"""Kernel weight matrices and the weighted within transformation."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe.errors import DegenerateWeightsError, EstimationError, RankError
from tensorfe.factor import residual_proxies
from tensorfe.kernel_fe import (
    _pairwise_distances,
    iterative_kernel_fe,
    kernel_eval,
    kernel_fe_estimate,
    kernel_weights,
    smoothed_effects,
    standard_within,
    weighted_within,
    within_projections,
)
from tensorfe.tensor_ops import cp_compose


def proxy_set(columns):
    return {int(d): np.asarray(c, dtype=float) for d, c in columns.items()}


def scalar_proxies(*values):
    return proxy_set({1: np.asarray(values, dtype=float).reshape(-1, 1)})


# -- kernel evaluations -------------------------------------------------------


def test_gaussian_kernel_values():
    assert kernel_eval("gaussian", np.array(0.0)) == 1.0
    assert_allclose(kernel_eval("gaussian", np.array(2.0)), np.exp(-4.0))


def test_indicator_kernel_values():
    assert kernel_eval("indicator", np.array(0.5)) == 1.0
    assert kernel_eval("indicator", np.array(1.5)) == 0.0


def three_dim_proxies():
    return proxy_set({1: [[0.0], [1.0]], 2: [[0.0], [1.0]], 3: [[0.0], [1.0]]})


def test_kernel_weights_validation():
    for bandwidth in (-1.0, 0.0, np.inf, (1.0, 1.0, -1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            kernel_weights(three_dim_proxies(), "gaussian", bandwidth)
    with pytest.raises(ValueError, match="unknown kernel family"):
        kernel_weights(three_dim_proxies(), "cauchy", 1.0)


def test_kernel_weights_per_dim_bandwidths():
    """One bandwidth per proxy dimension in ascending order; any other count is an error."""
    w = kernel_weights(three_dim_proxies(), "gaussian", (0.5, 1.0, 2.0))
    for d, h in zip((1, 2, 3), (0.5, 1.0, 2.0)):
        k = np.exp(-(1.0 / h) ** 2)
        assert_allclose(w.weights[d][0, 1], k / (1.0 + k))
    for bandwidth in ((0.5, 1.0), (0.5, 1.0, 2.0, 99.0), (0.5, 1.0, 2.0, 99.0, 1e9)):
        with pytest.raises(RankError, match="bandwidths given for 3 dimensions"):
            kernel_weights(three_dim_proxies(), "gaussian", bandwidth)
    with pytest.raises(ValueError, match="dict"):
        kernel_weights(three_dim_proxies(), "gaussian", {1: 0.5, 2: 1.0, 3: 2.0})


# -- weight matrices ----------------------------------------------------------


def test_identical_pair_gets_equal_weights():
    w = kernel_weights(proxy_set({1: [[1.3], [1.3]]}), "gaussian", 1.0)
    assert_allclose(w.weights[1], [[0.5, 0.5], [0.5, 0.5]])


def test_far_away_unit_keeps_its_own_row():
    w = kernel_weights(scalar_proxies(0.0, 0.5, 10.0), "gaussian", 1.0)
    mat = w.weights[1]
    assert mat[2, 2] > 1 - 1e-10
    assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.2, 1.0, 5.0]))
@example(seed=434, bandwidth=0.2)  # every unit of dimension 1 is isolated
def test_rows_sum_to_one(seed, bandwidth):
    """Rows sum to one, unless some dimension has every unit isolated.

    A unit is isolated when its off-diagonal Gaussian mass is at most
    ``n * eps``; the weights must then raise instead.
    """
    rng = np.random.default_rng(seed)
    columns = {1: rng.standard_normal((8, 2)), 2: rng.standard_normal((5, 1))}
    all_isolated = False
    for u in columns.values():
        n = u.shape[0]
        dist_sq = np.sum((u[:, None, :] - u[None, :, :]) ** 2, axis=-1)
        off_diag = np.where(np.eye(n, dtype=bool), 0.0, np.exp(-dist_sq / bandwidth**2))
        all_isolated |= bool(np.all(off_diag.sum(axis=1) <= n * np.finfo(np.float64).eps))
    if all_isolated:
        with pytest.raises(DegenerateWeightsError):
            kernel_weights(proxy_set(columns), "gaussian", bandwidth)
        return
    w = kernel_weights(proxy_set(columns), "gaussian", bandwidth)
    for dim in (1, 2):
        assert_allclose(w.weights[dim].sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.sampled_from([0.0, 1e3]))
def test_pairwise_distances_match_the_difference_array(seed, width, offset):
    """Symmetric, zero on the diagonal, and equal to the norms of the explicit row differences.

    One column is the exact ``|u_i - u_j|``; wider proxies may differ by
    rounding in the squared norms, also when every row sits far from the origin.
    """
    rng = np.random.default_rng(seed)
    u = offset + rng.standard_normal((9, width))
    diff = u[:, None, :] - u[None, :, :]
    expected = np.sqrt(np.sum(diff**2, axis=-1))
    got = _pairwise_distances(u)
    assert_array_equal(got, got.T)
    assert_array_equal(np.diag(got), 0.0)
    if width == 1:
        assert_array_equal(got, expected)
    else:
        assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


@given(st.integers(0, 2**31 - 1))
def test_weights_invariant_to_orthogonal_proxy_rotation(seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((9, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    base = kernel_weights(proxy_set({1: cols}), "gaussian", 0.7).weights[1]
    rotated = kernel_weights(proxy_set({1: cols @ q}), "gaussian", 0.7).weights[1]
    assert_allclose(rotated, base, atol=1e-12)


def test_all_rows_isolated_raises():
    # Indicator kernel with a gap wider than the bandwidth everywhere: no
    # usable neighbours in the whole dimension.
    with pytest.raises(DegenerateWeightsError):
        kernel_weights(scalar_proxies(0.0, 10.0), "indicator", 1.0)


def test_isolated_rows_are_recorded_but_tolerated():
    w = kernel_weights(scalar_proxies(0.0, 0.2, 50.0), "indicator", 1.0)
    assert_array_equal(w.degenerate_rows[1], [2])


def test_degenerate_fraction_vanishes_as_samples_grow():
    """With n*h -> infinity the share of neighbourless units goes to zero."""
    fractions = []
    for n in (50, 200, 800):
        rng = np.random.default_rng(2)
        frac = 0.0
        for _ in range(20):
            w = kernel_weights(proxy_set({1: rng.standard_normal((n, 1))}), "indicator", n ** -0.25)
            frac += len(w.degenerate_rows[1]) / n
        fractions.append(frac / 20)
    assert fractions[0] > fractions[1] > fractions[2]
    assert fractions[2] < 0.01


# -- within transformations ---------------------------------------------------


def uniform_projections(shape):
    cols = {d: np.zeros((n, 1)) for d, n in enumerate(shape, start=1)}
    w = kernel_weights(cols, "gaussian", 1.0)
    return w, within_projections(w)


def test_uniform_weights_reduce_to_standard_within(rng):
    t = rng.standard_normal((6, 5, 4))
    _, projections = uniform_projections(t.shape)
    assert_allclose(weighted_within(t, projections), standard_within(t), atol=1e-13)


def test_uniform_weights_reduce_to_within_ols(rng):
    shape = (8, 7, 6)
    x = rng.standard_normal(shape)
    y = 2.0 * x + rng.standard_normal(shape)
    _, projections = uniform_projections(shape)
    fit = kernel_fe_estimate(y, [x], projections)
    xw, yw = standard_within(x), standard_within(y)
    assert_allclose(fit.beta[0], float(np.vdot(xw, yw) / np.vdot(xw, xw)), atol=1e-12)


def test_standard_within_annihilates_additive_two_way_effects(rng):
    n1, n2, n3 = 5, 6, 7
    a = rng.standard_normal((n1, n2))[:, :, None] * np.ones(n3)
    b = rng.standard_normal((n1, n3))[:, None, :] * np.ones((1, n2, 1))
    c = rng.standard_normal((n2, n3))[None, :, :] * np.ones((n1, 1, 1))
    out = standard_within(a + b + c)
    assert_allclose(out, 0.0, atol=1e-10)


def test_group_constant_tensor_is_annihilated(rng):
    # Two latent groups per dimension; the effect depends only on the group
    # cell, and the indicator kernel recovers the grouping from the proxies.
    groups = [rng.integers(0, 2, size=n) for n in (8, 9, 10)]
    cell_values = rng.standard_normal((2, 2, 2))
    effects = cell_values[np.ix_(groups[0], groups[1], groups[2])]
    proxies = proxy_set({d: g.reshape(-1, 1).astype(float) for d, g in enumerate(groups, start=1)})
    w = kernel_weights(proxies, "indicator", 0.5)
    assert_allclose(weighted_within(effects, within_projections(w)), 0.0, atol=1e-10)


def test_group_effects_recovered_exactly_by_smoothing(rng):
    groups = [rng.integers(0, 2, size=n) for n in (8, 9, 10)]
    cell_values = rng.standard_normal((2, 2, 2))
    effects = cell_values[np.ix_(groups[0], groups[1], groups[2])]
    proxies = proxy_set({d: g.reshape(-1, 1).astype(float) for d, g in enumerate(groups, start=1)})
    projections = within_projections(kernel_weights(proxies, "indicator", 0.5))
    assert_allclose(smoothed_effects(effects, projections), effects, atol=1e-8)


def test_identity_projections_leave_tensor_unchanged(rng):
    t = rng.standard_normal((4, 5, 6))
    projections = {d: np.eye(n) for d, n in enumerate(t.shape, start=1)}
    assert_array_equal(weighted_within(t, projections), t)


def test_smoothing_complements_the_within_transform(rng):
    t = rng.standard_normal((6, 6, 6))
    proxies = residual_proxies(rng.standard_normal((6, 6, 6)), 1)
    projections = within_projections(kernel_weights(proxies, "gaussian", 1.0))
    assert_allclose(weighted_within(t, projections) + smoothed_effects(t, projections), t, atol=1e-12)


# -- estimators built on the transforms ---------------------------------------


def test_iterative_fit_with_single_column_matches_plain_kernel_fit():
    rng = np.random.default_rng(0)
    shape = (10, 11, 9)
    effects = cp_compose([rng.standard_normal((n, 1)) for n in shape])
    x = 0.6 * effects + rng.standard_normal(shape)
    y = x + effects + 0.1 * rng.standard_normal(shape)
    proxies = residual_proxies(y - x, 1)
    plain = kernel_fe_estimate(y, [x], within_projections(kernel_weights(proxies, "gaussian", 0.8)))
    iterated = iterative_kernel_fe(y, [x], proxies, "gaussian", 0.8)
    assert iterated.beta[0] == plain.beta[0]


def test_kernel_estimators_reject_a_fit_without_proxies(rng):
    """No proxies means no within transform: an error, not pooled OLS under a kernel label."""
    y, x = rng.standard_normal((5, 4, 3)), rng.standard_normal((5, 4, 3))
    with pytest.raises(RankError, match="no proxy columns"):
        kernel_weights({}, "gaussian", 1.0)
    with pytest.raises(RankError, match="no proxy columns"):
        iterative_kernel_fe(y, [x], {}, "gaussian", 1.0)
    with pytest.raises(RankError, match="no within matrices"):
        kernel_fe_estimate(y, [x], {})


def test_a_zero_within_matrix_leaves_no_data_and_raises(rng):
    y, x = rng.standard_normal((5, 4, 3)), rng.standard_normal((5, 4, 3))
    with pytest.raises(EstimationError, match="identically zero"):
        kernel_fe_estimate(y, [x], {1: np.zeros((5, 5))})


def test_attenuation_improves_with_proxy_accuracy():
    """Better proxies leave less of the confounder behind after the transform."""
    means = []
    for noise_sd in (2.0, 0.5, 0.1):
        rng = np.random.default_rng(1)
        total = 0.0
        for _ in range(100):
            mats = [rng.standard_normal((12, 1)) for _ in range(3)]
            effects = cp_compose(mats)
            cols = {d: m + noise_sd * rng.standard_normal(m.shape) for d, m in zip((1, 2, 3), mats)}
            w = kernel_weights(cols, "gaussian", 0.5)
            total += np.linalg.norm(weighted_within(effects, within_projections(w)))
        means.append(total / 100)
    assert means[0] > means[1] > means[2]
