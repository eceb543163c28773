"""Where tensors are validated, and what catches a NaN made past that point.

Every exported function that takes a tensor rejects a non-finite entry with
``TensorShapeError``, wherever in the array it sits.  Inside the package the
primitives run unchecked on tensors the package built itself, so a NaN made
there surfaces as ``EstimationError`` from ``solve_gram`` or ``build_report``.
The factor layer reads the defactoring bases off the fit instead of
re-decomposing its loadings and factors; the reference below is the old path.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorfe import (
    DgpConfig,
    EstimatorSpec,
    corrected_estimate,
    corrected_estimate_split,
    cp_compose,
    crossfit_split,
    defactored_regressors,
    draw,
    estimate_panel,
    fit_factor_model,
    flatten,
    hosvd_truncate,
    iterative_kernel_fe,
    kernel_fe_estimate,
    kernel_weights,
    mode_bases,
    mode_product,
    multilinear_rank,
    orthogonalize,
    pooled_ols,
    project,
    residual_proxies,
    standard_within,
    truncated_svd,
    unflatten,
    var_hac,
    var_heteroskedastic,
    var_homoskedastic,
    weighted_within,
    write_panel_csv,
)
from tensorfe import kernel_fe, montecarlo
from tensorfe.errors import EstimationError, TensorShapeError
from tensorfe.inference import build_report
from tensorfe.kernel_fe import smoothed_effects
from tensorfe.tensor_ops import solve_gram

SHAPE = (6, 5, 4)
_rng = np.random.default_rng(11)
Y = _rng.standard_normal(SHAPE)
X = _rng.standard_normal(SHAPE)
MAT = _rng.standard_normal((5, 6))
PROXIES = {d: _rng.standard_normal((n, 1)) for d, n in enumerate(SHAPE, start=1)}
WITHIN = {d: np.eye(n) - np.full((n, n), 1.0 / n) for d, n in enumerate(SHAPE, start=1)}
FIT = fit_factor_model(Y, X, 1, 1)

# (function applied to the poisoned array, the clean array it poisons)
CASES = {
    "flatten": (lambda t: flatten(t, 2), Y),
    "unflatten": (lambda m: unflatten(m, 2, SHAPE), flatten(Y, 2)),
    "mode_product tensor": (lambda t: mode_product(t, MAT, 1), Y),
    "mode_product matrix": (lambda m: mode_product(Y, m, 1), MAT),
    "cp_compose": (lambda a: cp_compose([a, np.ones((3, 2))]), np.ones((4, 2))),
    "truncated_svd": (lambda m: truncated_svd(m, 2), MAT),
    "mode_bases": (lambda t: mode_bases(t, (2, 2, 2)), Y),
    "project tensor": (lambda t: project(t, mode_bases(Y, (2, 2, 2))), Y),
    "project basis": (lambda b: project(Y, {1: b}), np.linalg.qr(MAT.T)[0][:, :2]),
    "hosvd_truncate": (lambda t: hosvd_truncate(t, (2, 2, 2)), Y),
    "multilinear_rank": (multilinear_rank, Y),
    "fit_factor_model y": (lambda y: fit_factor_model(y, X, 1, 1), Y),
    "fit_factor_model x": (lambda x: fit_factor_model(Y, x, 1, 1), X),
    "defactored_regressors": (lambda x: defactored_regressors(FIT, x), X),
    "residual_proxies": (lambda r: residual_proxies(r, 1), Y),
    "orthogonalize": (lambda y: orthogonalize(y, X, [1.0], (2, 2, 2)), Y),
    "corrected_estimate y": (lambda y: corrected_estimate(y, X, [1.0], (2, 2, 2)), Y),
    "corrected_estimate x": (lambda x: corrected_estimate(Y, x, [1.0], (2, 2, 2)), X),
    "corrected_estimate effects": (lambda e: corrected_estimate(Y, X, [1.0], (2, 2, 2), effects=e), Y),
    "corrected_estimate_split": (lambda y: corrected_estimate_split(y, X, (2, 2, 2), crossfit_split(SHAPE, 3)), Y),
    "pooled_ols y": (lambda y: pooled_ols(y, X), Y),
    "pooled_ols x": (lambda x: pooled_ols(Y, x), X),
    "var_hac resid": (lambda r: var_hac(X, r, (1, 1, 1)), Y),
    "var_hac eta": (lambda e: var_hac(e, Y, (1, 1, 1)), X),
    "var_heteroskedastic": (lambda r: var_heteroskedastic(X, r), Y),
    "var_homoskedastic": (lambda r: var_homoskedastic(X, r), Y),
    "kernel_weights": (lambda u: kernel_weights({1: u}, "gaussian", 1.0), PROXIES[1]),
    "weighted_within tensor": (lambda t: weighted_within(t, WITHIN), Y),
    "weighted_within matrix": (lambda m: weighted_within(Y, {1: m}), WITHIN[1]),
    "smoothed_effects": (lambda r: smoothed_effects(r, WITHIN), Y),
    "standard_within": (standard_within, Y),
    "kernel_fe_estimate": (lambda y: kernel_fe_estimate(y, X, WITHIN), Y),
    "kernel_fe_estimate x": (lambda x: kernel_fe_estimate(Y, x, WITHIN), X),
    "iterative_kernel_fe": (lambda x: iterative_kernel_fe(Y, x, PROXIES, "gaussian", 1.0), X),
    "iterative_kernel_fe y": (lambda y: iterative_kernel_fe(y, X, PROXIES, "gaussian", 1.0), Y),
    "iterative_kernel_fe proxies": (
        lambda u: iterative_kernel_fe(Y, X, {**PROXIES, 2: u}, "gaussian", 1.0),
        np.column_stack([PROXIES[2], np.ones(SHAPE[1])]),
    ),
    "estimate_panel": (lambda y: estimate_panel(y, X, EstimatorSpec(name="ols", kind="ols")), Y),
    "estimate_panel x": (lambda x: estimate_panel(Y, x, EstimatorSpec(name="ik", kind="ik", bandwidth=1.0)), X),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exported_functions_reject_non_finite_entries(case, bad, where):
    fn, clean = CASES[case]
    poisoned = np.array(clean, dtype=np.float64)
    index = {"first": 0, "middle": poisoned.size // 2, "last": poisoned.size - 1}[where]
    poisoned.flat[index] = bad
    with pytest.raises(TensorShapeError, match="non-finite"):
        fn(poisoned)


def test_panel_writer_rejects_non_finite_entries(tmp_path):
    poisoned = Y.copy()
    poisoned[-1, -1, -1] = np.nan
    with pytest.raises(TensorShapeError, match="non-finite"):
        write_panel_csv(tmp_path / "p.csv", poisoned, [X])


def test_within_matrices_are_still_checked_against_the_tensor():
    with pytest.raises(TensorShapeError, match="4 columns cannot act on dimension 2 of size 5"):
        weighted_within(Y, {2: np.eye(4)})
    with pytest.raises(TensorShapeError, match="4 columns cannot act on dimension 2 of size 5"):
        kernel_fe_estimate(Y, X, {2: np.eye(4)})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_gram_rejects_a_non_finite_right_hand_side(bad):
    with pytest.raises(EstimationError, match="right-hand side"):
        solve_gram(np.eye(2), np.array([1.0, bad]), "things")


def test_a_non_finite_preliminary_slope_fails_the_split_estimate():
    # A preliminary estimator is user code that runs past the boundary checks.
    with pytest.raises(EstimationError, match="finite slope"):
        corrected_estimate_split(Y, X, (2, 2, 2), crossfit_split(SHAPE, 3), prelim=lambda y, x: [np.nan])


def test_a_nan_made_past_the_boundary_fails_the_round_record(monkeypatch):
    panel = draw(DgpConfig("growing", (8, 7, 6)), 1)
    ws = lambda: montecarlo._PanelWorkspace(panel.outcome, panel.regressors)
    ker = EstimatorSpec(name="ker", kind="ker", bandwidth=1.0)
    assert not montecarlo._evaluate(ker, ws()).failed

    within = kernel_fe._within

    def leaky_within(arr, projections):  # the transformed outcome picks up a NaN
        out = within(arr, projections)
        if arr is panel.outcome:
            out.flat[0] = np.nan
        return out

    monkeypatch.setattr(kernel_fe, "_within", leaky_within)
    record = montecarlo._evaluate(ker, ws())
    assert record.failed and "right-hand side" in record.message
    monkeypatch.undo()

    monkeypatch.setattr(montecarlo, "var_hac", lambda eta, resid, lags: np.full((1, 1), np.nan))
    record = montecarlo._evaluate(ker, ws())
    assert record.failed and record.message == "EstimationError: the variance estimate is non-finite"


def _old_defactored(fit, xs):
    """The former path: fresh truncated SVDs of the loadings and the factors."""

    def span_basis(mat):
        svd = truncated_svd(mat, mat.shape[1])
        return svd.u[:, svd.s > 0.0]

    b_load, b_fact = span_basis(fit.loadings), span_basis(fit.factors)
    out = []
    for xk in xs:
        mat = flatten(xk, fit.flatten_dim)
        mat = mat - b_load @ (b_load.T @ mat)
        mat = mat - (mat @ b_fact) @ b_fact.T
        out.append(unflatten(mat, fit.flatten_dim, fit.residual.shape))
    return out


def _panel(design, dims, n_reg):
    d = draw(DgpConfig(design, dims), 5)
    xs = list(d.regressors)
    if n_reg == 2:  # a promotion-style indicator as the second regressor
        promo = (np.random.default_rng(6).random(dims) < 0.25).astype(float)
        xs.append(promo)
        return d.outcome - 0.5 * promo, xs
    return d.outcome, xs


@pytest.mark.parametrize(
    "design, dims, n_reg, flatten_dim",
    [("fixed", (12, 12, 12, 12), 1, 2), ("growing", (40, 40, 40), 1, 1), ("growing", (80, 30, 100), 2, 1)],
    ids=["12^4", "40^3", "80x30x100"],
)
def test_defactoring_bases_from_the_fit_match_fresh_svds(design, dims, n_reg, flatten_dim):
    y, xs = _panel(design, dims, n_reg)
    fit = fit_factor_model(y, xs, flatten_dim, 2)
    zeroed = dataclasses.replace(fit, loadings=fit.loadings * [1.0, 0.0])  # second singular value exactly 0
    for f in (fit, zeroed):
        for got, want in zip(defactored_regressors(f, xs), _old_defactored(f, xs)):
            assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
