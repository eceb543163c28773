"""The shared linear-algebra core: normal equations, conditioning, regressor lists, residuals."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe.dgp import DgpConfig, draw
from tensorfe.errors import EstimationError, TensorShapeError
from tensorfe.factor import fit_factor_model, residual_proxies
from tensorfe.inference import (
    corrected_estimate,
    corrected_estimate_split,
    crossfit_split,
    orthogonalize,
    pooled_ols,
)
from tensorfe.kernel_fe import iterative_kernel_fe, kernel_fe_estimate, kernel_weights, within_projections
from tensorfe.montecarlo import EstimatorSpec, estimate_panel
from tensorfe.tensor_ops import (
    GRAM_COND_LIMIT,
    cross_moments,
    hosvd_truncate,
    net_of,
    regressor_list,
    solve_gram,
)

SHAPE = (9, 10, 11)


def test_cross_moments_match_the_stacked_design(rng):
    xs = [rng.standard_normal(SHAPE) for _ in range(3)]
    y = rng.standard_normal(SHAPE)
    design = np.stack([x.ravel() for x in xs], axis=1)
    gram, rhs = cross_moments(xs, y)
    assert_allclose(gram, design.T @ design, rtol=1e-12)
    assert_allclose(rhs, design.T @ y.ravel(), rtol=1e-12)
    assert_array_equal(gram, gram.T)


@pytest.mark.parametrize("layout", ["C", "F", "transposed", "mixed"])
def test_cross_moments_read_any_layout_without_copying(rng, layout):
    """Flattenings are F-ordered and unflattened tensors are transposed views;
    the normal equations must not copy either (np.vdot copies both)."""
    ts = [rng.standard_normal((60, 50, 40)) for _ in range(3)]
    expected = cross_moments(ts[:2], ts[2])
    f_ts = [np.asfortranarray(t) for t in ts]
    # Equal values, strides in neither C nor F order.
    t_ts = [np.ascontiguousarray(t.transpose(1, 2, 0)).transpose(2, 0, 1) for t in ts]
    mats = {"C": ts, "F": f_ts, "transposed": t_ts, "mixed": [f_ts[0], ts[1], t_ts[2]]}[layout]
    tracemalloc.start()
    try:
        gram, rhs = cross_moments(mats[:2], mats[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_allclose(gram, expected[0], rtol=1e-12)
    assert_allclose(rhs, expected[1], rtol=1e-12)
    assert peak < mats[0].nbytes


def test_solve_gram_solves_well_conditioned_systems(rng):
    a = rng.standard_normal((4, 3))
    gram = a.T @ a
    rhs = rng.standard_normal(3)
    assert_allclose(gram @ solve_gram(gram, rhs), rhs, atol=1e-12)


@pytest.mark.parametrize(
    "gram",
    [np.zeros((2, 2)), np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])],
    ids=["zero", "non-finite", "singular"],
)
def test_solve_gram_raises_instead_of_guessing(gram):
    with pytest.raises(EstimationError, match="things"):
        solve_gram(gram, np.ones(2), "things")


def test_solve_gram_condition_limit_is_the_boundary():
    ok = np.diag([1.0, 1.0 / (0.5 * GRAM_COND_LIMIT)])
    bad = np.diag([1.0, 1.0 / (2.0 * GRAM_COND_LIMIT)])
    assert_allclose(solve_gram(ok, np.ones(2)), [1.0, 0.5 * GRAM_COND_LIMIT])
    with pytest.raises(EstimationError):
        solve_gram(bad, np.ones(2))


def test_net_of_subtracts_the_summed_fit(rng):
    y = rng.standard_normal(SHAPE)
    xs = [rng.standard_normal(SHAPE) for _ in range(2)]
    assert_array_equal(net_of(y, xs, [0.5, -2.0]), y - (0.5 * xs[0] + -2.0 * xs[1]))
    assert_array_equal(net_of(y, xs[:1], [3.0]), y - 3.0 * xs[0])


def test_regressor_list_forms(rng):
    xs = [rng.standard_normal(SHAPE) for _ in range(2)]
    assert len(regressor_list(xs[0], SHAPE)) == 1
    for form in (xs, tuple(xs), np.stack(xs)):
        out = regressor_list(form, SHAPE)
        assert len(out) == 2
        for got, want in zip(out, xs):
            assert_array_equal(got, want)


def test_low_rank_parts_accept_every_regressor_form(rng):
    xs = [rng.standard_normal(SHAPE) for _ in range(2)]
    y = rng.standard_normal(SHAPE)
    want = [hosvd_truncate(xk, (1, 2, 2)) for xk in xs]
    for form in (xs, tuple(xs), np.stack(xs)):
        for got, expected in zip(orthogonalize(y, form, [0.0, 0.0], (1, 2, 2)).gamma_x, want):
            assert_array_equal(got, expected)
    assert_array_equal(orthogonalize(y, xs[0], [0.0], (1, 2, 2)).gamma_x[0], want[0])


def test_regressor_list_rejects_bad_input():
    with pytest.raises(TensorShapeError, match="eta 2"):
        regressor_list([np.zeros(SHAPE), np.zeros((2, 2))], SHAPE, "eta")
    with pytest.raises(TensorShapeError):
        regressor_list([], SHAPE)
    with pytest.raises(TensorShapeError):
        regressor_list([np.full(SHAPE, np.inf)], SHAPE)


# -- one conditioning policy across the estimators ----------------------------


def _proxies(rng):
    return residual_proxies(rng.standard_normal(SHAPE), 1)


COLLINEAR_FITS = {
    "fit_factor_model": lambda y, xs, rng: fit_factor_model(y, xs, 1, 1),
    "pooled_ols": lambda y, xs, rng: pooled_ols(y, xs),
    "kernel_fe_estimate": lambda y, xs, rng: kernel_fe_estimate(
        y, xs, within_projections(kernel_weights(_proxies(rng), "gaussian", 1.0))
    ),
    "iterative_kernel_fe": lambda y, xs, rng: iterative_kernel_fe(y, xs, _proxies(rng), "gaussian", 1.0),
    "corrected_estimate": lambda y, xs, rng: corrected_estimate(y, xs, [0.5, 0.5], (1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(COLLINEAR_FITS))
def test_duplicated_regressor_raises_everywhere(name, rng):
    x = rng.standard_normal(SHAPE)
    y = x + rng.standard_normal(SHAPE)
    with pytest.raises(EstimationError, match="collinear"):
        COLLINEAR_FITS[name](y, [x, x.copy()], rng)


# -- every estimator entry point accepts every regressor form -----------------


def _kernel_projections(y, x):
    xs = regressor_list(x, y.shape)
    proxies = residual_proxies(net_of(y, xs, pooled_ols(y, xs)), 2)
    return proxies, within_projections(kernel_weights(proxies, "gaussian", 1.0))


ENTRY_POINTS = {
    "fit_factor_model": lambda y, x: fit_factor_model(y, x, 2, 2).beta,
    "pooled_ols": pooled_ols,
    "kernel_fe_estimate": lambda y, x: kernel_fe_estimate(y, x, _kernel_projections(y, x)[1]).beta,
    "iterative_kernel_fe": lambda y, x: iterative_kernel_fe(
        y, x, _kernel_projections(y, x)[0], "gaussian", 1.0
    ).beta,
    "corrected_estimate": lambda y, x: corrected_estimate(y, x, pooled_ols(y, x), (2, 2, 2)).beta,
    "corrected_estimate_split": lambda y, x: corrected_estimate_split(
        y, x, (2, 2, 2), crossfit_split(y.shape, 3, seed=1)
    ).beta,
}
for _spec in (
    EstimatorSpec("ols", "ols"),
    EstimatorSpec("within", "within"),
    EstimatorSpec("factor", "factor", flatten_dim=3),
    EstimatorSpec("ker", "ker", bandwidth=0.8),
    EstimatorSpec("ik", "ik", bandwidth=0.8),
    EstimatorSpec("ic", "ic", bandwidth=0.8, effects="kernel"),
    EstimatorSpec("ic-split", "ic", bandwidth=0.8, split=True),
):
    ENTRY_POINTS[f"estimate_panel[{_spec.name}]"] = lambda y, x, spec=_spec: estimate_panel(y, x, spec).beta


@pytest.fixture(scope="module")
def two_regressor_panel():
    panel = draw(DgpConfig(dims=SHAPE), np.random.SeedSequence([21]))
    x2 = np.random.default_rng(22).standard_normal(SHAPE)
    return panel.outcome - 0.5 * x2, panel.regressors[0], x2


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_regressor_forms_give_identical_slopes(name, two_regressor_panel):
    y, x1, x2 = two_regressor_panel
    fit = ENTRY_POINTS[name]
    single = fit(y, [x1])
    for form in (x1, (x1,), x1[None]):
        assert_array_equal(fit(y, form), single)
    pair = fit(y, [x1, x2])
    assert pair.shape == (2,)
    for form in ((x1, x2), np.stack([x1, x2])):
        assert_array_equal(fit(y, form), pair)
