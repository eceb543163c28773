"""Orthogonalized estimation, sandwich variances, reports, cross-fitting."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe.dgp import DgpConfig, draw
from tensorfe.errors import EstimationError, RankError, TensorShapeError
from tensorfe.factor import fit_factor_model, residual_proxies
from tensorfe.inference import (
    CrossfitPlan,
    Orthogonalization,
    build_report,
    corrected_estimate,
    corrected_estimate_split,
    crossfit_split,
    normal_quantile,
    orthogonalize,
    pooled_ols,
    var_hac,
    var_heteroskedastic,
    var_homoskedastic,
)
from tensorfe.kernel_fe import kernel_fe_estimate, kernel_weights, within_projections
from tensorfe.tensor_ops import cp_compose, flatten, hosvd_truncate, mode_product, truncated_svd

Z_95 = 1.959963984540054


def spanned_panel(seed, shape=(10, 9, 8), rank=2):
    """Regressors split exactly into a low-rank part and its orthocomplement.

    Each regressor is gamma + eta where gamma lives in a shared per-dimension
    subspace and eta is projected onto the complement of that subspace along
    every dimension, so <eta, gamma> = 0 holds in exact arithmetic terms.
    """
    rng = np.random.default_rng(seed)
    bases = [np.linalg.qr(rng.standard_normal((n, rank)))[0] for n in shape]

    def in_span():
        return cp_compose([u @ rng.standard_normal((rank, rank)) for u in bases])

    def in_complement():
        t = rng.standard_normal(shape)
        for d, u in enumerate(bases, start=1):
            t = mode_product(t, np.eye(u.shape[0]) - u @ u.T, d)
        return t

    gammas = [in_span(), in_span()]
    etas = [in_complement(), in_complement()]
    effects = in_span()
    xs = [g + e for g, e in zip(gammas, etas)]
    beta = np.array([1.0, -0.5])
    y = beta[0] * xs[0] + beta[1] * xs[1] + effects
    return y, xs, gammas, etas, effects, beta


# -- orthogonalization --------------------------------------------------------


def test_cleaned_regressors_orthogonal_to_projections():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((8, 7, 6))
    xs = [rng.standard_normal((8, 7, 6)) for _ in range(2)]
    orth = orthogonalize(y, xs, [0.5, 0.5], (2, 2, 2))
    for eta, gamma in zip(orth.eta, orth.gamma_x):
        lhs = abs(float(np.vdot(eta, gamma)))
        assert lhs <= 1e-10 * np.linalg.norm(gamma) * np.linalg.norm(eta) + 1e-12


def test_combined_projection_identity_holds_exactly():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((6, 6, 6))
    xs = [rng.standard_normal((6, 6, 6))]
    orth = orthogonalize(y, xs, [0.3], (1, 1, 1))
    assert_array_equal(orth.gamma_y, 0.3 * orth.gamma_x[0] + orth.effects)


def test_supplied_effects_bypass_the_truncation():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((5, 5, 5))
    xs = [rng.standard_normal((5, 5, 5))]
    custom = rng.standard_normal((5, 5, 5))
    orth = orthogonalize(y, xs, [0.0], (1, 1, 1), effects=custom)
    assert_array_equal(orth.effects, custom)
    assert_array_equal(orth.gamma_y, custom)  # beta_tilde = 0


def test_low_rank_parts_exact_for_structured_regressors():
    _, _, gammas, _, _, _ = spanned_panel(3)
    for gamma in gammas:
        assert_allclose(hosvd_truncate(gamma, (2, 2, 2)), gamma, atol=1e-9)


def test_zero_ranks_remove_nothing():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4, 4))
    assert_array_equal(hosvd_truncate(x, (0, 0, 0)), np.zeros_like(x))


# -- corrected estimator ------------------------------------------------------


def test_oracle_nuisances_give_exact_recovery():
    y, xs, gammas, etas, effects, beta = spanned_panel(5)
    beta_tilde = np.array([0.3, -0.2])  # deliberately wrong prelim
    orth = Orthogonalization(
        gamma_x=gammas,
        effects=effects,
        gamma_y=beta_tilde[0] * gammas[0] + beta_tilde[1] * gammas[1] + effects,
        eta=etas,
        beta_tilde=beta_tilde,
        ranks=(2, 2, 2),
    )
    fit = corrected_estimate(y, xs, orth=orth)
    assert_allclose(fit.beta, beta, atol=1e-10)
    assert_allclose(fit.residual, 0.0, atol=1e-9)


def test_correct_prelim_gives_exact_recovery_noiseless():
    # With beta_tilde = beta the cleaned outcome is exactly sum_k beta_k eta_k,
    # whatever subspaces the truncation happens to pick.
    y, xs, _, _, _, beta = spanned_panel(6)
    fit = corrected_estimate(y, xs, beta, (2, 2, 2))
    assert_allclose(fit.beta, beta, atol=1e-8)


def test_zero_ranks_and_zero_prelim_reduce_to_pooled_ols():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((6, 5, 4))
    xs = [rng.standard_normal((6, 5, 4)) for _ in range(2)]
    fit = corrected_estimate(y, xs, [0.0, 0.0], (0, 0, 0))
    assert_allclose(fit.beta, pooled_ols(y, xs), atol=1e-14)


def test_zero_cleaned_regressor_raises():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((5, 5, 5))
    with pytest.raises(EstimationError):
        corrected_estimate(y, [np.zeros((5, 5, 5))], [0.0], (0, 0, 0))


def test_collinear_cleaned_regressors_raise():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 5, 5))
    y = rng.standard_normal((5, 5, 5))
    with pytest.raises(EstimationError):
        corrected_estimate(y, [x, x.copy()], [0.0, 0.0], (0, 0, 0))


def test_pooled_ols_matches_lstsq(rng):
    y = rng.standard_normal((5, 6, 7))
    xs = [rng.standard_normal((5, 6, 7)) for _ in range(3)]
    design = np.stack([x.ravel() for x in xs], axis=1)
    expected = np.linalg.lstsq(design, y.ravel(), rcond=None)[0]
    assert_allclose(pooled_ols(y, xs), expected, atol=1e-12)


# -- variance estimators ------------------------------------------------------


def test_homoskedastic_closed_form():
    rng = np.random.default_rng(10)
    shape = (6, 5, 4)
    etas = [rng.standard_normal(shape) for _ in range(2)]
    resid = rng.standard_normal(shape)
    n = resid.size
    z = np.stack([e.ravel() for e in etas], axis=1)
    sigma_sq = float(resid.ravel() @ resid.ravel()) / n
    expected = sigma_sq * np.linalg.inv(z.T @ z / n) / n
    assert_allclose(var_homoskedastic(etas, resid), expected, atol=1e-14)


def test_homoskedastic_orthonormal_scores_give_identity_over_n():
    rng = np.random.default_rng(11)
    n = 9 * 8 * 7
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    etas = [np.sqrt(n) * q[:, k].reshape(9, 8, 7) for k in range(2)]
    resid = rng.standard_normal((9, 8, 7))
    vcov = var_homoskedastic(etas, resid)
    sigma_sq = float(np.vdot(resid, resid)) / n
    assert_allclose(vcov, sigma_sq / n * np.eye(2), atol=1e-14)
    assert_allclose(vcov * n, np.eye(2), atol=0.1)  # sigma^2 near 1


def brute_force_hac(etas, resid, lags, clip=True):
    """O(N^2) pairwise oracle for the tapered cross-moment matrix.

    ``clip=False`` skips the eigenvalue clip, giving the raw sandwich.
    """
    shape = resid.shape
    k = len(etas)
    scores = [e * resid for e in etas]
    meat = np.zeros((k, k))
    for i in itertools.product(*(range(n) for n in shape)):
        for j in itertools.product(*(range(n) for n in shape)):
            gaps = [abs(a - b) for a, b in zip(i, j)]
            if any(g > l for g, l in zip(gaps, lags)):
                continue
            w = 1.0
            for g, l in zip(gaps, lags):
                w *= 1.0 - g / (l + 1)
            for a in range(k):
                for b in range(k):
                    meat[a, b] += w * scores[a][i] * scores[b][j]
    n = resid.size
    meat /= n
    meat = 0.5 * (meat + meat.T)
    evals, evecs = np.linalg.eigh(meat)
    if clip and evals[0] < 0:
        meat = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    z = np.stack([e.ravel() for e in etas], axis=1)
    omega_inv = np.linalg.inv(z.T @ z / n)
    return omega_inv @ meat @ omega_inv / n


def test_hac_matches_pairwise_oracle():
    rng = np.random.default_rng(12)
    shape = (4, 3, 3)
    etas = [rng.standard_normal(shape) for _ in range(2)]
    resid = rng.standard_normal(shape)
    for lags in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)]:
        assert_allclose(var_hac(etas, resid, lags), brute_force_hac(etas, resid, lags), atol=1e-13)


def assert_close_in_norm(actual, expected, rtol):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "shape, lags",
    [
        ((6, 5), (0, 4)),
        ((6, 5), (5, 1)),
        ((4, 3, 3), (3, 1, 0)),
        ((4, 3, 3), (1, 2, 2)),
        ((3, 3, 2, 2), (2, 0, 1, 1)),
        ((3, 3, 2, 2), (0, 1, 0, 0)),
    ],
)
@pytest.mark.parametrize("n_reg", [1, 3])
def test_separable_hac_matches_pairwise_oracle(shape, lags, n_reg):
    rng = np.random.default_rng(sum(shape) + sum(lags) + n_reg)
    etas = [rng.standard_normal(shape) for _ in range(n_reg)]
    resid = rng.standard_normal(shape)
    assert_close_in_norm(var_hac(etas, resid, lags), brute_force_hac(etas, resid, lags), 1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20)
def test_hac_clip_removes_only_rounding(seed):
    """The tapered middle matrix is PSD in exact arithmetic, so clipping changes nothing material."""
    rng = np.random.default_rng(seed)
    shape = (4, 3, 3)
    etas = [rng.standard_normal(shape) for _ in range(3)]
    resid = ma1_field(rng, shape) if seed % 2 else rng.standard_normal(shape)
    lags = (3, 2, 1) if seed % 3 else (1, 0, 2)
    assert_close_in_norm(var_hac(etas, resid, lags), brute_force_hac(etas, resid, lags, clip=False), 1e-12)


def layouts(a):
    """The same values as a C-ordered array, an F-ordered array and a strided view."""
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": np.repeat(a, 2, axis=1)[:, ::2]}


@pytest.mark.parametrize("lags", [(0, 0, 0), (1, 1, 1), (2, 0, 1)])
@pytest.mark.parametrize("n_reg", [1, 2])
def test_hac_does_not_depend_on_memory_layout(lags, n_reg):
    """The factor estimator hands ``var_hac`` an F-ordered residual; every layout must give the same matrix."""
    rng = np.random.default_rng(20 + n_reg)
    shape = (5, 4, 3)
    etas = [rng.standard_normal(shape) for _ in range(n_reg)]
    resid = ma1_field(rng, shape)
    expected = var_hac(etas, resid, lags)
    assert np.all(np.diag(expected) > 0.0)
    for eta_kind, resid_kind in itertools.product(("C", "F", "strided"), repeat=2):
        got = var_hac([layouts(e)[eta_kind] for e in etas], layouts(resid)[resid_kind], lags)
        assert_close_in_norm(got, expected, 1e-12)


def test_zero_lags_equal_heteroskedastic_exactly():
    rng = np.random.default_rng(13)
    eta = rng.standard_normal((5, 5, 5))
    resid = rng.standard_normal((5, 5, 5))
    assert_array_equal(var_heteroskedastic([eta], resid), var_hac([eta], resid, (0, 0, 0)))


def test_constant_magnitude_residuals_collapse_to_homoskedastic():
    rng = np.random.default_rng(14)
    eta = rng.standard_normal((6, 5, 4))
    resid = 1.7 * np.where(rng.random((6, 5, 4)) < 0.5, -1.0, 1.0)
    het = var_heteroskedastic([eta], resid)
    homo = var_homoskedastic([eta], resid)
    # equal squared residuals make the meat proportional to the bread
    assert_allclose(het, homo, rtol=0.25)


def test_hetero_agrees_with_homo_on_homoskedastic_data():
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(500):
        eta = rng.standard_normal((12, 12, 12))
        resid = rng.standard_normal((12, 12, 12))
        het = np.sqrt(var_heteroskedastic([eta], resid)[0, 0])
        homo = np.sqrt(var_homoskedastic([eta], resid)[0, 0])
        ratios.append(het / homo)
    assert 0.99 < np.mean(ratios) < 1.01


def test_hetero_inflates_when_variance_tracks_the_scores():
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(200):
        eta = rng.standard_normal((12, 12, 12))
        resid = np.abs(eta) * rng.standard_normal((12, 12, 12))
        ratios.append(
            np.sqrt(var_heteroskedastic([eta], resid)[0, 0])
            / np.sqrt(var_homoskedastic([eta], resid)[0, 0])
        )
    assert np.mean(ratios) > 1.5
    assert np.min(ratios) > 1.3


def ma1_field(rng, shape, theta=0.9):
    z = rng.standard_normal(tuple(s + 2 for s in shape))
    core = z[1:-1, 1:-1, 1:-1]
    return core + theta * (z[:-2, 1:-1, 1:-1] + z[1:-1, :-2, 1:-1] + z[1:-1, 1:-1, :-2])


def test_hac_widens_under_moving_average_dependence():
    rng = np.random.default_rng(3)
    wider, ratios = 0, []
    for _ in range(200):
        eta = ma1_field(rng, (12, 12, 12))
        resid = ma1_field(rng, (12, 12, 12))
        s_hac = np.sqrt(var_hac([eta], resid, (1, 1, 1))[0, 0])
        s_zero = np.sqrt(var_hac([eta], resid, (0, 0, 0))[0, 0])
        wider += s_hac > s_zero
        ratios.append(s_hac / s_zero)
    assert wider == 200
    assert np.mean(ratios) > 1.05


def test_zero_residual_gives_zero_variance():
    eta = np.random.default_rng(15).standard_normal((4, 4, 4))
    assert_array_equal(var_homoskedastic([eta], np.zeros((4, 4, 4))), np.zeros((1, 1)))
    assert_array_equal(var_hac([eta], np.zeros((4, 4, 4)), (1, 1, 1)), np.zeros((1, 1)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_hac_variance_is_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    shape = (5, 4, 4)
    etas = [rng.standard_normal(shape) for _ in range(2)]
    resid = ma1_field(rng, shape) if seed % 2 else rng.standard_normal(shape)
    vcov = var_hac(etas, resid, (1, 1, 1))
    assert np.min(np.linalg.eigvalsh(vcov)) >= -1e-12


def test_hac_rejects_bad_lags():
    eta = np.zeros((3, 3, 3))
    with pytest.raises(RankError):
        var_hac([eta], eta, (1, 1))
    with pytest.raises(RankError):
        var_hac([eta], eta, (3, 0, 0))
    with pytest.raises(RankError):
        var_hac([eta], eta, (-1, 0, 0))


def test_variance_rejects_shape_mismatch():
    with pytest.raises(TensorShapeError):
        var_homoskedastic([np.zeros((3, 3))], np.zeros((4, 4)))


# -- coverage of the full pipeline under correctly-specified errors -----------


def ic_pipeline(y, xs, bandwidth=1.2, ranks=(4, 4, 4)):
    prelim = fit_factor_model(y, xs, 1, 2)
    resid = y - prelim.beta[0] * xs[0]
    proxies = residual_proxies(resid, 2)
    projections = within_projections(kernel_weights(proxies, "gaussian", bandwidth))
    kfit = kernel_fe_estimate(y, xs, projections)
    return corrected_estimate(y, xs, kfit.beta, ranks)


@pytest.mark.slow
def test_normal_interval_coverage_with_iid_errors():
    """Nominal coverage when the homoskedastic model is correctly specified.

    Takes the growing-design draw, swaps the dependent-error term for iid
    noise of matching variance, and runs the full corrected pipeline.
    """
    hits, n_draws = 0, 1000
    sigma = float(np.sqrt(3.682))
    for i in range(n_draws):
        panel = draw(DgpConfig(dims=(30, 30, 30)), np.random.SeedSequence([77, i]))
        rng = np.random.default_rng(np.random.SeedSequence([78, i]))
        y = panel.regressors[0] + panel.effects + sigma * rng.standard_normal(panel.shape)
        fit = ic_pipeline(y, panel.regressors)
        se = float(np.sqrt(var_homoskedastic(fit.eta, fit.residual)[0, 0]))
        hits += abs(fit.beta[0] - 1.0) <= Z_95 * se
    assert 0.92 <= hits / n_draws <= 0.97


# -- reports ------------------------------------------------------------------


def test_normal_quantile_values():
    assert normal_quantile(0.95) == pytest.approx(Z_95, abs=1e-12)
    assert normal_quantile(0.99) == pytest.approx(2.5758293035489004, abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_report_intervals_are_symmetric():
    report = build_report("ic", [1.2, -0.3], np.diag([0.04, 0.01]), 1000)
    assert_allclose(report.ci_upper - report.beta, report.beta - report.ci_lower, atol=1e-15)
    assert_allclose(report.se, [0.2, 0.1], atol=1e-15)
    assert_allclose(report.ci_upper, report.beta + Z_95 * report.se, atol=1e-12)


def test_report_serialization_keys():
    report = build_report("ker", [0.5], [[0.01]], 64, level=0.9, variance_model="hac")
    payload = report.to_dict()
    assert payload["method"] == "ker"
    assert payload["ci_low"] == report.ci_lower.tolist()
    assert payload["ci_high"] == report.ci_upper.tolist()
    assert payload["n_cells"] == 64
    assert set(payload) >= {"beta", "se", "level", "variance_model", "vcov", "diagnostics"}


def test_report_rejects_mismatched_vcov():
    with pytest.raises(TensorShapeError):
        build_report("ols", [1.0, 2.0], np.eye(3), 10)


# -- cross-fitting ------------------------------------------------------------


def test_crossfit_folds_partition_the_dimension():
    plan = crossfit_split((10, 11, 9), 2, seed=5)
    assert plan.dim == 2
    merged = sorted(plan.fold_a + plan.fold_b)
    assert merged == list(range(11))
    assert abs(len(plan.fold_a) - len(plan.fold_b)) <= 1


def test_crossfit_is_deterministic_in_the_seed():
    a = crossfit_split((8, 8, 8), 3, seed=42)
    b = crossfit_split((8, 8, 8), 3, seed=42)
    c = crossfit_split((8, 8, 8), 3, seed=43)
    assert a == b
    assert a.folds != c.folds


def test_crossfit_rejects_tiny_dimension():
    with pytest.raises(RankError):
        crossfit_split((1, 5, 5), 1)


def test_split_estimate_records_fold_prelims():
    y, xs, _, _, _, beta = spanned_panel(16, shape=(12, 10, 8))
    plan = crossfit_split(y.shape, 3, seed=0)
    fit = corrected_estimate_split(y, xs, (2, 2, 2), plan)
    assert len(fit.fold_beta_tilde) == 2
    assert fit.split is plan
    assert fit.residual.shape == y.shape
    # noiseless: fold subspace estimation leaves only a higher-order error
    assert_allclose(fit.beta, beta, atol=5e-3)
    again = corrected_estimate_split(y, xs, (2, 2, 2), plan)
    assert_array_equal(again.beta, fit.beta)


def test_split_and_plain_estimates_agree_within_sampling_error():
    """Cross-fitting changes nothing material on the growing design."""
    n_draws, close = 200, 0
    for i in range(n_draws):
        panel = draw(DgpConfig(dims=(16, 16, 16)), np.random.SeedSequence([79, i]))
        y, xs = panel.outcome, panel.regressors
        fit = ic_pipeline(y, xs)
        se = float(np.sqrt(var_hac(fit.eta, fit.residual, (1, 1, 1))[0, 0]))
        plan = crossfit_split(y.shape, 3, seed=i)

        def prelim(y_sub, x_sub):
            pf = fit_factor_model(y_sub, x_sub, 1, 2)
            proxies = residual_proxies(y_sub - pf.beta[0] * x_sub[0], 2)
            projections = within_projections(kernel_weights(proxies, "gaussian", 1.2))
            return kernel_fe_estimate(y_sub, x_sub, projections).beta

        split_fit = corrected_estimate_split(y, xs, (4, 4, 4), plan, prelim=prelim)
        close += abs(split_fit.beta[0] - fit.beta[0]) < 3.0 * se
    assert close / n_draws >= 0.95


def test_full_rank_projection_raises_in_the_plain_and_the_split_estimator():
    """Every projected mode at full rank leaves exactly zero cleaned regressors.

    The projection is then the identity, so neither estimator may fit a slope
    to what is left: rounding noise, whose HAC standard error ran to 1e13.
    """
    panel = draw(DgpConfig(dims=(8, 6, 5)), np.random.SeedSequence([3]))
    y, xs = panel.outcome, panel.regressors
    with pytest.raises(EstimationError, match="cleaned regressors are identically zero"):
        corrected_estimate(y, xs, pooled_ols(y, xs), (8, 6, 5))
    plan = crossfit_split(y.shape, 1, seed=0)
    with pytest.raises(EstimationError, match="cross-fitted cleaned regressors are identically zero"):
        corrected_estimate_split(y, xs, (2, 6, 5), plan)
    panel = draw(DgpConfig(design="fixed", dims=(6, 5, 4, 4)), 0)
    plan = crossfit_split(panel.shape, 1, seed=0)
    with pytest.raises(EstimationError, match="cross-fitted cleaned regressors are identically zero"):
        corrected_estimate_split(panel.outcome, panel.regressors, (2, 5, 4, 4), plan)


def test_split_estimate_rejects_folds_that_do_not_partition_the_split_dimension():
    """The two folds' pieces go back to full shape, so together they must hold every unit once."""
    panel = draw(DgpConfig(dims=(8, 6, 5)), np.random.SeedSequence([3]))
    for fold_a, fold_b in (((0, 1, 2), (3,)), ((0, 1, 2, 3), (3, 4)), ((0, 2, 4), (1, 3, 5))):
        plan = CrossfitPlan(dim=3, fold_a=fold_a, fold_b=fold_b, seed=0)
        with pytest.raises(RankError, match="do not partition the 5 units of dimension 3"):
            corrected_estimate_split(panel.outcome, panel.regressors, (2, 2, 2), plan)


def dense_projector_split(y, xs, ranks, plan):
    """Cross-fit with dense ``B @ B.T`` projectors and per-mode loops.

    Returns the slope, Omega, and the full-shape cleaned regressors and
    residual, each fold's pieces written into its own index positions.
    """
    dims = [d for d in range(1, y.ndim + 1) if d != plan.dim]

    def take(t, idx):
        return np.take(t, np.asarray(idx), axis=plan.dim - 1)

    def projected(t, fitted_on):
        for d in dims:
            basis = truncated_svd(flatten(fitted_on, d), ranks[d - 1]).u
            t = mode_product(t, basis @ basis.T, d)
        return t

    gram, rhs = np.zeros((len(xs), len(xs))), np.zeros(len(xs))
    eta_full, effects_full = [np.full(y.shape, np.nan) for _ in xs], np.full(y.shape, np.nan)
    for apply_idx, fit_idx in ((plan.fold_a, plan.fold_b), (plan.fold_b, plan.fold_a)):
        fit_y, fit_x = take(y, fit_idx), [take(x, fit_idx) for x in xs]
        sub_y, sub_x = take(y, apply_idx), [take(x, apply_idx) for x in xs]
        bt = pooled_ols(fit_y, fit_x)
        gamma = [projected(x, f) for x, f in zip(sub_x, fit_x)]
        effects = projected(sub_y - sum(b * x for b, x in zip(bt, sub_x)), fit_y - sum(b * x for b, x in zip(bt, fit_x)))
        eta = [x - g for x, g in zip(sub_x, gamma)]
        target = sub_y - sum(b * g for b, g in zip(bt, gamma)) - effects
        gram += np.array([[np.vdot(a, b) for b in eta] for a in eta])
        rhs += np.array([np.vdot(a, target) for a in eta])
        units = (slice(None),) * (plan.dim - 1) + (np.asarray(apply_idx),)
        effects_full[units] = effects
        for full, part in zip(eta_full, eta):
            full[units] = part
    beta = np.linalg.solve(gram, rhs)
    residual = y - sum(b * x for b, x in zip(beta, xs)) - effects_full
    return beta, gram / y.size, eta_full, residual


@pytest.mark.parametrize("n_reg", [1, 2])
@pytest.mark.parametrize("split_dim", [1, 3])
def test_split_estimate_matches_dense_projector_cross_fit(n_reg, split_dim):
    panel = draw(DgpConfig(dims=(10, 9, 12)), np.random.SeedSequence([61, split_dim]))
    promo = (np.random.default_rng(split_dim).random(panel.shape) < 0.25).astype(float)
    y, xs = panel.outcome - 0.5 * promo, (panel.regressors + [promo])[:n_reg]
    plan = crossfit_split(y.shape, split_dim, seed=split_dim)
    fit = corrected_estimate_split(y, xs, (2, 3, 2), plan)
    beta, omega, eta, residual = dense_projector_split(y, xs, (2, 3, 2), plan)
    assert_allclose(fit.beta, beta, rtol=1e-12)
    assert_allclose(fit.omega, omega, rtol=1e-12)
    # Cell for cell: the HAC variance reads index adjacency from these tensors.
    scale = np.max(np.abs(y))
    for k in range(n_reg):
        assert_allclose(fit.eta[k], eta[k], rtol=0.0, atol=1e-12 * scale)
    assert_allclose(fit.residual, residual, rtol=0.0, atol=1e-12 * scale)
