"""Alternating least squares with low-rank confounders, plus proxy extraction."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorfe.dgp import DgpConfig, draw
from tensorfe.errors import EstimationError
from tensorfe.factor import (
    FactorFit,
    _half_hessian,
    defactored_regressors,
    fit_factor_model,
    residual_proxies,
)
from tensorfe.tensor_ops import cp_compose, flatten, hosvd_truncate, unflatten

BETA = (1.0, -0.5)


def build_panel(rng, shape=(12, 10, 8), n_components=2, noise=0.0):
    """Noiseless (by default) outcome with a CP confounder correlated with x."""
    mats = [rng.standard_normal((n, n_components)) for n in shape]
    effects = cp_compose(mats)
    xs = [
        0.5 * effects + rng.standard_normal(shape),
        rng.standard_normal(shape),
    ]
    y = BETA[0] * xs[0] + BETA[1] * xs[1] + effects
    if noise:
        y = y + noise * rng.standard_normal(shape)
    return y, xs, effects


def test_noiseless_recovery_at_true_rank():
    y, xs, _ = build_panel(np.random.default_rng(0))
    fit = fit_factor_model(y, xs, 1, 2)
    assert fit.converged
    assert_allclose(fit.beta, BETA, atol=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_noiseless_recovery_along_every_dim(dim):
    y, xs, _ = build_panel(np.random.default_rng(1))
    fit = fit_factor_model(y, xs, dim, 2)
    assert_allclose(fit.beta, BETA, atol=1e-6)


def test_over_specified_rank_still_recovers():
    y, xs, _ = build_panel(np.random.default_rng(2))
    fit = fit_factor_model(y, xs, 1, 3)
    assert_allclose(fit.beta, BETA, atol=1e-5)


def test_zero_factors_reduces_to_pooled_ols():
    rng = np.random.default_rng(3)
    y, xs, _ = build_panel(rng, noise=0.5)
    fit = fit_factor_model(y, xs, 1, 0)
    design = np.stack([x.ravel() for x in xs], axis=1)
    expected = np.linalg.lstsq(design, y.ravel(), rcond=None)[0]
    assert_allclose(fit.beta, expected, atol=1e-12)
    assert fit.converged


def test_objective_trace_never_increases():
    y, xs, _ = build_panel(np.random.default_rng(4), noise=1.0)
    fit = fit_factor_model(y, xs, 1, 2)
    trace = np.asarray(fit.objective_trace)
    assert trace.size >= 1
    assert np.all(np.diff(trace) <= 1e-10)
    assert fit.objective == pytest.approx(trace.min())


def golden_section_min(f, lo, hi, tol=1e-10):
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    c, e = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fe = f(c), f(e)
    while hi - lo > tol:
        if fc <= fe:
            hi, e, fe = e, c, fc
            c = hi - inv * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, e, fe
            e = lo + inv * (hi - lo)
            fe = f(e)
    return 0.5 * (lo + hi)


def test_fit_stays_in_the_basin_of_pooled_ols():
    """The profile objective on this draw has two minima: ALS from pooled OLS
    (1.1418) descends to 1.0529; the global one (1.3985) lies past a barrier
    near 1.175.  A Newton point is tried only where the profile Hessian is
    positive definite with positive eigenvalue gaps, and kept only when it
    does not raise the objective, so no step crosses the barrier."""
    d = draw(DgpConfig("growing", (20, 15, 25)), 3)
    y, x = d.outcome, d.regressors[0]

    def svd_profile(b):
        s = np.linalg.svd(flatten(y - b * x, 1), compute_uv=False)
        return float(np.sum(s[2:] ** 2))

    local_min = golden_section_min(svd_profile, 1.0, 1.15)
    fit = fit_factor_model(y, x, 1, 2)
    assert fit.converged
    assert abs(fit.beta[0] - local_min) <= 1e-7
    assert fit.objective <= svd_profile(local_min) * (1 + 1e-10)


def test_newton_steps_cut_iterations_at_40_cubed():
    d = draw(DgpConfig("growing", (40, 40, 40)), 0)
    fit = fit_factor_model(d.outcome, d.regressors, 1, 2)
    assert fit.converged
    assert fit.iterations <= 25  # plain ALS takes 54


def test_newton_steps_keep_iterations_down_over_seeds():
    """Growing 40^3, seeds 0-9, every dimension, r = 2: safeguarded Newton
    steps on the profile objective take 259 iterations in all; plain ALS
    steps with Anderson extrapolation took 386."""
    total = 0
    for seed in range(10):
        d = draw(DgpConfig("growing", (40, 40, 40)), seed)
        for dim in (1, 2, 3):
            fit = fit_factor_model(d.outcome, d.regressors, dim, 2)
            assert fit.converged
            total += fit.iterations
    assert total <= 300


@pytest.mark.parametrize(
    "shape, n_reg, dim",
    [((12, 10, 8), 1, 1)]
    + [((12, 10, 8), 2, d) for d in (1, 2, 3)]
    + [((6, 5, 4, 3), 1 + d % 2, d) for d in (1, 2, 3, 4)]
    + [((30, 4, 3), 2, 1)],  # a tall flattening: its row Gram matrix has 18 zero eigenvalues
)
def test_half_hessian_matches_second_differences_of_the_svd_profile(shape, n_reg, dim):
    rng = np.random.default_rng(90 + dim)
    y, xs, _ = build_panel(rng, shape=shape, noise=1.0)
    xs = xs[:n_reg]
    a = flatten(y, dim)
    bs = [flatten(xk, dim) for xk in xs]
    n_factors = 2
    beta = np.array([1.1, -0.4])[:n_reg]

    def svd_profile(b):
        s = np.linalg.svd(a - sum(bk * m for bk, m in zip(b, bs)), compute_uv=False)
        return float(np.sum(s[n_factors:] ** 2))

    resid = a - sum(bk * m for bk, m in zip(beta, bs))
    eigvals, eigvecs = np.linalg.eigh(resid @ resid.T)
    q = eigvecs[:, -n_factors:]
    wq = np.array([0.5 * (resid @ m.T + m @ resid.T) @ q for m in bs])
    q_bb = np.array([[np.vdot(q.T @ mk, q.T @ ml) for ml in bs] for mk in bs])
    gram = np.array([[np.vdot(mk, ml) for ml in bs] for mk in bs])
    hessian = _half_hessian(gram, q_bb, wq, eigvals, eigvecs)

    e = 1e-4 * np.eye(n_reg)
    second_diff = np.array(
        [
            [
                svd_profile(beta + e[k] + e[l])
                - svd_profile(beta + e[k] - e[l])
                - svd_profile(beta - e[k] + e[l])
                + svd_profile(beta - e[k] - e[l])
                for l in range(n_reg)
            ]
            for k in range(n_reg)
        ]
    ) / (4e-8)
    assert_allclose(2.0 * hessian, second_diff, rtol=0.0, atol=1e-5 * np.max(np.abs(second_diff)))


def direct_als_map(y, xs, dim, n_factors, beta):
    """One plain ALS step from ``beta``: full SVD of the flattened residual,
    then pooled OLS of the data net of its top-``n_factors`` part."""

    def unfold(t):
        return np.moveaxis(t, dim - 1, 0).reshape(t.shape[dim - 1], -1)

    a = unfold(y)
    bs = [unfold(xk) for xk in xs]
    u, s, vt = np.linalg.svd(a - sum(b * bk for b, bk in zip(beta, bs)), full_matrices=False)
    top = (u[:, :n_factors] * s[:n_factors]) @ vt[:n_factors]
    design = np.stack([bk.ravel() for bk in bs], axis=1)
    return np.linalg.lstsq(design, (a - top).ravel(), rcond=None)[0]


@pytest.mark.parametrize(
    "shape, n_reg, dim, n_factors",
    [
        ((12, 10, 8), 1, 1, 2),
        ((12, 10, 8), 2, 2, 2),
        ((12, 10, 8), 2, 3, 1),
        ((6, 5, 4, 3), 1, 4, 2),
        ((6, 5, 4, 3), 2, 2, 1),
        ((12, 10, 8), 2, 1, 12),  # n_factors = rows of the flattening
        ((30, 3, 2), 1, 1, 6),  # n_factors = columns of the flattening
    ],
)
@pytest.mark.parametrize("tol, atol", [(1e-9, 1e-7), (1e-12, 1e-10)])
def test_fit_is_a_fixed_point_of_the_direct_als_map(shape, n_reg, dim, n_factors, tol, atol):
    rng = np.random.default_rng(80 + len(shape) + n_reg + dim)
    y, xs, _ = build_panel(rng, shape=shape, noise=1.0)
    if n_reg == 1:
        y, xs = y - BETA[1] * xs[1], xs[:1]
    fit = fit_factor_model(y, xs, dim, n_factors, tol=tol)
    assert fit.converged
    assert_allclose(direct_als_map(y, xs, dim, n_factors, fit.beta), fit.beta, rtol=0.0, atol=atol)


def test_fitted_low_rank_term_has_requested_rank():
    y, xs, _ = build_panel(np.random.default_rng(5), noise=0.3)
    fit = fit_factor_model(y, xs, 1, 2)
    lr = flatten(fit.low_rank, 1)
    s = np.linalg.svd(lr, compute_uv=False)
    assert s[2] <= 1e-8 * s[0]


@pytest.mark.parametrize("shape, dim", [((12, 10, 8), 1), ((12, 10, 8), 3), ((6, 5, 4, 3), 2), ((30, 4, 3), 1)])
def test_reported_components_are_the_residual_svd_at_the_returned_slopes(shape, dim):
    """Loadings, factors, residual and objective equal a direct SVD of the flattened residual at
    ``fit.beta``; the fit completes its last eigendecomposition instead of taking a new one.  The
    30 x 4 x 3 panel's dimension-1 flattening is tall."""
    y, xs, _ = build_panel(np.random.default_rng(80 + dim), shape=shape, noise=0.5)
    fit = fit_factor_model(y, xs, dim, 2)
    resid = flatten(y - sum(b * xk for b, xk in zip(fit.beta, xs)), dim)
    u, s, vt = np.linalg.svd(resid, full_matrices=False)
    low_rank = (u[:, :2] * s[:2]) @ vt[:2]
    scale = np.abs(resid).max()
    assert_allclose(fit.loadings @ fit.factors.T, low_rank, rtol=0.0, atol=1e-10 * scale)
    assert_allclose(flatten(fit.residual, dim), resid - low_rank, rtol=0.0, atol=1e-10 * scale)
    assert_allclose(fit.factors.T @ fit.factors, np.eye(2), rtol=0.0, atol=1e-12)
    assert_allclose(np.linalg.norm(fit.loadings, axis=0), s[:2], rtol=1e-12)
    assert_allclose(fit.objective, np.sum(s[2:] ** 2), rtol=1e-10)


def test_defactored_regressors_are_annihilated():
    y, xs, _ = build_panel(np.random.default_rng(6), noise=0.4)
    fit = fit_factor_model(y, xs, 1, 2)
    for xd in defactored_regressors(fit, xs):
        m = flatten(xd, 1)
        assert_allclose(fit.loadings.T @ m, 0.0, atol=1e-8)
        assert_allclose(m @ fit.factors, 0.0, atol=1e-8)


def known_span_fit(rng, shape, dim, n_factors=2, loading_rank=2):
    """A FactorFit whose loading and factor spans have known orthonormal bases.

    ``loading_rank < n_factors`` makes the loading matrix rank-deficient.
    """
    n = shape[dim - 1]
    m = int(np.prod(shape)) // n
    q_load = np.linalg.qr(rng.standard_normal((n, loading_rank)))[0]
    q_fact = np.linalg.qr(rng.standard_normal((m, n_factors)))[0]
    fit = FactorFit(
        beta=np.zeros(1),
        loadings=q_load @ rng.standard_normal((loading_rank, n_factors)),
        factors=q_fact,
        residual=np.zeros(shape),
        flatten_dim=dim,
        n_factors=n_factors,
        iterations=0,
        converged=True,
        objective=0.0,
    )
    return fit, q_load, q_fact


@pytest.mark.parametrize(
    "shape, dim",
    [((7, 6, 5), d) for d in (1, 2, 3)] + [((5, 4, 3, 3), d) for d in (1, 2, 3, 4)],
)
@pytest.mark.parametrize("n_reg", [1, 2])
@pytest.mark.parametrize("loading_rank", [2, 1])
def test_defactored_regressors_match_dense_annihilators(shape, dim, n_reg, loading_rank):
    rng = np.random.default_rng(60 + dim)
    fit, q_load, q_fact = known_span_fit(rng, shape, dim, loading_rank=loading_rank)
    xs = [rng.standard_normal(shape) for _ in range(n_reg)]
    m_load = np.eye(q_load.shape[0]) - q_load @ q_load.T
    m_fact = np.eye(q_fact.shape[0]) - q_fact @ q_fact.T
    for xk, xd in zip(xs, defactored_regressors(fit, xs)):
        expected = unflatten(m_load @ flatten(xk, dim) @ m_fact, dim, shape)
        assert_allclose(xd, expected, rtol=0.0, atol=1e-12)


def test_defactoring_memory_is_linear_in_the_cells():
    """A 6 x 80 x 50 panel flattened on dimension 1 has M = 4000 columns.

    One dense M x M annihilator would take 128 MB; the thin products must
    stay within a few copies of the regressor.
    """
    rng = np.random.default_rng(70)
    shape = (6, 80, 50)
    fit, _, _ = known_span_fit(rng, shape, 1)
    x = rng.standard_normal(shape)
    tracemalloc.start()
    try:
        defactored_regressors(fit, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * x.nbytes


def test_tall_fit_memory_is_linear_in_the_cells():
    """A 1000 x 10 x 10 panel flattened on dimension 1 has N_n = 1000 > M = 100.

    The fit works on the M x M side of the flattening.  On the row side each
    N_n x N_n Gram block would take 8 MB, ten times the panel.
    """
    panel = draw(DgpConfig("growing", (1000, 10, 10)), 0)
    tracemalloc.start()
    try:
        fit = fit_factor_model(panel.outcome, panel.regressors, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert fit.loadings.shape == (1000, 2) and fit.factors.shape == (100, 2)
    assert peak < 8 * panel.outcome.nbytes


def test_proxies_span_rank_one_direction():
    rng = np.random.default_rng(7)
    vecs = [rng.standard_normal(9) for _ in range(3)]
    resid = np.einsum("i,j,k->ijk", *vecs)
    proxies = residual_proxies(resid, 1)
    for dim, v in zip((1, 2, 3), vecs):
        col = proxies[dim][:, 0]
        unit = v / np.linalg.norm(v)
        overlap = abs(float(col @ unit)) / np.linalg.norm(col)
        assert overlap > 1 - 1e-10  # collinear up to sign


def test_proxies_close_to_truth_under_small_noise():
    rng = np.random.default_rng(8)
    shape = (30, 30, 30)
    mats = [rng.standard_normal((30, 2)) for _ in range(3)]
    effects = cp_compose(mats)
    noisy = effects + 0.01 * rng.standard_normal(shape)
    proxies = residual_proxies(noisy, 2)
    for dim, truth in zip((1, 2, 3), mats):
        est = proxies[dim]
        # Procrustes alignment: estimated columns span the loading space.
        coef, *_ = np.linalg.lstsq(est, truth, rcond=None)
        mse = np.mean((est @ coef - truth) ** 2)
        assert mse < 1e-2


def test_proxies_reject_zero_residual():
    with pytest.raises(EstimationError):
        residual_proxies(np.zeros((5, 5, 5)), 1)


def test_proxy_columns_are_standardized(rng):
    resid = rng.standard_normal((10, 11, 12))
    proxies = residual_proxies(resid, 2)
    for dim in (1, 2, 3):
        assert_allclose(proxies[dim].std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_low_rank_effects_exact_at_matching_ranks():
    rng = np.random.default_rng(9)
    col = rng.standard_normal((8, 1))
    mats = [col @ np.ones((1, 3)), rng.standard_normal((8, 3)), rng.standard_normal((8, 3))]
    effects = cp_compose(mats)
    assert_allclose(hosvd_truncate(effects, (1, 3, 3)), effects, atol=1e-9)


def test_low_rank_effects_filters_noise():
    rng = np.random.default_rng(10)
    shape = (20, 20, 20)
    wins = 0
    for _ in range(50):
        mats = [rng.standard_normal((20, 2)) for _ in range(3)]
        effects = cp_compose(mats)
        noise = rng.standard_normal(shape)
        est = hosvd_truncate(effects + noise, (2, 2, 2))
        if np.linalg.norm(est - effects) < np.linalg.norm(noise):
            wins += 1
    assert wins == 50


def test_low_rank_effects_zero_ranks():
    arr = np.random.default_rng(11).standard_normal((4, 4, 4))
    assert_allclose(hosvd_truncate(arr, (0, 0, 0)), 0.0)
