"""Flattening, mode products, truncated SVD and HOSVD against loop oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe.errors import EstimationError, RankError, TensorShapeError
from tensorfe.factor import residual_proxies
from tensorfe.tensor_ops import (
    cp_compose,
    flatten,
    hosvd_truncate,
    mode_bases,
    mode_product,
    multilinear_rank,
    project,
    truncated_svd,
    unflatten,
)

SHAPES = [(2, 3, 4), (3, 3), (4, 2, 3, 2), (5, 1, 3), (2, 2, 2, 2)]


def flatten_loops(t, dim):
    """Reference implementation: one scalar write per entry.

    Column j enumerates the remaining dimensions in cyclic order starting
    at dim+1, with the first of those varying fastest.
    """
    d = t.ndim
    order = [(dim - 1 + k) % d for k in range(1, d)]
    cols = 1
    for ax in order:
        cols *= t.shape[ax]
    out = np.zeros((t.shape[dim - 1], cols))
    for idx in np.ndindex(*t.shape):
        col, stride = 0, 1
        for ax in order:
            col += idx[ax] * stride
            stride *= t.shape[ax]
        out[idx[dim - 1], col] = t[idx]
    return out


def random_cp(rng, shape, n_components, scale=1.0):
    mats = [scale * rng.standard_normal((n, n_components)) for n in shape]
    return cp_compose(mats), mats


def test_flatten_2x3x4_first_dim():
    a = np.arange(24, dtype=float).reshape(2, 3, 4)
    out = flatten(a, 1)
    assert out.shape == (2, 12)
    assert_array_equal(out[0], [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11])


def test_flatten_matrix_second_dim_is_transpose():
    m = np.arange(4, dtype=float).reshape(2, 2)
    assert_array_equal(flatten(m, 2), flatten(m, 1).T)


@pytest.mark.parametrize("shape", SHAPES)
def test_flatten_matches_loop_oracle(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    t = rng.standard_normal(shape)
    for dim in range(1, len(shape) + 1):
        assert_array_equal(flatten(t, dim), flatten_loops(t, dim))


@given(st.sampled_from(SHAPES), st.integers(0, 2**31 - 1), st.data())
def test_flatten_unflatten_roundtrip_bit_exact(shape, seed, data):
    dim = data.draw(st.integers(1, len(shape)), label="dim")
    t = np.random.default_rng(seed).standard_normal(shape)
    back = unflatten(flatten(t, dim), dim, shape)
    assert_array_equal(back, t)  # exact, not approximate


def test_mode_product_all_ones():
    t = np.ones((2, 2, 2))
    out = mode_product(t, np.ones((2, 2)), 2)
    assert_array_equal(out, np.full((2, 2, 2), 2.0))


def layout(rng, shape, kind):
    """A tensor of ``shape`` laid out as a C-contiguous array, a transposed view or a strided view."""
    if kind == "transposed":
        return rng.standard_normal(shape[::-1]).T
    if kind == "strided":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::-2]
    return rng.standard_normal(shape)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["contiguous", "transposed", "strided"]),
    st.data(),
)
def test_mode_product_flattening_identity(shape, seed, kind, data):
    rng = np.random.default_rng(seed)
    t = layout(rng, tuple(shape), kind)
    dim = data.draw(st.integers(1, t.ndim), label="dim")
    k = data.draw(st.integers(0, 5), label="rows")
    mat = rng.standard_normal((k, t.shape[dim - 1]))
    out = mode_product(t, mat, dim)
    out_shape = t.shape[: dim - 1] + (k,) + t.shape[dim:]
    assert out.shape == out_shape
    assert out.flags.c_contiguous
    assert_allclose(out, unflatten(mat @ flatten(t, dim), dim, out_shape), rtol=1e-12, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
def test_mode_products_commute_across_distinct_dims(seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    one_way = mode_product(mode_product(t, a, 1), b, 3)
    other = mode_product(mode_product(t, b, 3), a, 1)
    assert_allclose(one_way, other, atol=1e-10)


def test_cp_compose_rank_one_example():
    m = cp_compose(
        [
            np.array([[1.0], [2.0]]),
            np.array([[1.0], [0.0], [1.0]]),
            np.array([[1.0], [1.0]]),
        ]
    )
    assert m.shape == (2, 3, 2)
    assert m[1, 2, 0] == 2.0


def test_cp_compose_matches_sum_of_outer_products():
    rng = np.random.default_rng(7)
    for shape in [(3,), (3, 4), (3, 4, 2), (2, 1, 3, 2), (2, 3, 1, 2, 2)]:
        for n_comp in (0, 1, 3):
            t, mats = random_cp(rng, shape, n_comp)
            direct = np.zeros(shape)
            for comp in range(n_comp):
                outer = np.ones(())
                for m in mats:
                    outer = np.multiply.outer(outer, m[:, comp])
                direct += outer
            assert t.shape == shape
            assert_allclose(t, direct, atol=1e-12)


def test_multilinear_rank_of_two_component_sum():
    t, _ = random_cp(np.random.default_rng(11), (6, 7, 5), 2)
    assert multilinear_rank(t).ranks == (2, 2, 2)


def test_multilinear_rank_collinear_first_dim():
    # All components share one direction along the first dimension.
    rng = np.random.default_rng(3)
    col = rng.standard_normal((8, 1))
    mats = [
        col @ np.ones((1, 5)),
        rng.standard_normal((8, 5)),
        rng.standard_normal((8, 5)),
    ]
    assert multilinear_rank(cp_compose(mats)).ranks == (1, 5, 5)


def test_multilinear_rank_zero_tensor():
    assert multilinear_rank(np.zeros((4, 3, 2))).ranks == (0, 0, 0)


def test_truncated_svd_of_diagonal():
    fit = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert_allclose(fit.s, [3.0, 2.0])
    assert_allclose(fit.residual_norm_sq, 1.0)
    assert_allclose(fit.compose(), np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def eckart_young_tail(m, k):
    # Independent route to the tail energy: eigenvalues of the Gram matrix.
    evals = np.linalg.eigvalsh(m.T @ m)
    return float(np.sum(np.clip(evals, 0.0, None)[: m.shape[1] - k]))


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_truncation_residual_matches_gram_eigenvalues(seed, k):
    m = np.random.default_rng(seed).standard_normal((6, 5))
    fit = truncated_svd(m, k)
    resid = np.linalg.norm(m - fit.compose()) ** 2
    assert_allclose(fit.residual_norm_sq, resid, rtol=1e-8, atol=1e-12)
    assert_allclose(resid, eckart_young_tail(m, k), rtol=1e-8, atol=1e-12)


def rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (12, 60), (60, 12), (30, 400), (400, 30)])
def test_truncated_svd_matches_lapack(shape):
    m = np.random.default_rng(sum(shape)).standard_normal(shape)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    for k in range(min(shape) + 1):
        fit = truncated_svd(m, k)
        assert fit.u.shape == (shape[0], k) and fit.v.shape == (shape[1], k)
        assert rel_err(fit.u @ fit.u.T, u[:, :k] @ u[:, :k].T) <= 1e-10
        assert rel_err(fit.v @ fit.v.T, vh[:k].T @ vh[:k]) <= 1e-10
        assert rel_err(fit.s, s[:k]) <= 1e-10
        assert rel_err(fit.compose(), (u[:, :k] * s[:k]) @ vh[:k]) <= 1e-10
        tail = float(np.sum(s[k:] ** 2))
        assert abs(fit.residual_norm_sq - tail) <= 1e-10 * tail


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_rank_one_flattening_reports_exact_zeros(dim):
    t, _ = random_cp(np.random.default_rng(29), (40, 40, 40), 1)
    fit = truncated_svd(flatten(t, dim), 2)
    assert fit.s[0] > 0.0
    assert fit.s[1] == 0.0


def test_exact_rank_one_residual_gives_degenerate_proxies():
    t, _ = random_cp(np.random.default_rng(29), (40, 40, 40), 1)
    with pytest.raises(EstimationError, match="degenerate proxies"):
        residual_proxies(t, 2)


def test_truncated_svd_beats_random_candidates():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((6, 8))
    best = np.linalg.norm(m - truncated_svd(m, 3).compose())
    for _ in range(200):
        cand = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 8))
        # rescale the candidate optimally before comparing
        coef = np.vdot(cand, m) / np.vdot(cand, cand)
        assert np.linalg.norm(m - coef * cand) >= best - 1e-9


def test_hosvd_reconstructs_rank_one_exactly():
    t, _ = random_cp(np.random.default_rng(23), (4, 5, 3), 1)
    assert_allclose(hosvd_truncate(t, (1, 1, 1)), t, atol=1e-10)


def test_hosvd_exact_at_true_multilinear_rank():
    rng = np.random.default_rng(29)
    for _ in range(20):
        t, _ = random_cp(rng, (6, 5, 7), int(rng.integers(1, 4)))
        ranks = multilinear_rank(t).ranks
        err = np.linalg.norm(hosvd_truncate(t, ranks) - t)
        assert err <= 1e-8 * np.linalg.norm(t)


def test_hosvd_truncate_collinear_structure():
    rng = np.random.default_rng(31)
    col = rng.standard_normal((6, 1))
    mats = [
        col @ np.ones((1, 3)),
        rng.standard_normal((6, 3)),
        rng.standard_normal((6, 3)),
    ]
    t = cp_compose(mats)
    assert_allclose(hosvd_truncate(t, (1, 3, 3)), t, atol=1e-9)


def test_hosvd_truncate_zero_rank_gives_zero_tensor():
    t = np.random.default_rng(37).standard_normal((3, 4, 2))
    assert_array_equal(hosvd_truncate(t, (0, 2, 2)), np.zeros_like(t))


def test_hosvd_truncate_full_ranks_is_identity():
    t = np.random.default_rng(41).standard_normal((3, 4, 2))
    assert_allclose(hosvd_truncate(t, (3, 4, 2)), t, atol=1e-12)


def test_rank_above_a_narrow_flattening_keeps_every_vector():
    t = np.random.default_rng(43).standard_normal((6, 2, 1))  # dimension 1 flattens to 6 x 2
    assert_allclose(hosvd_truncate(t, (4, 2, 1)), t, atol=1e-12)


def dense_projection(t, bases):
    out = t
    for d, basis in bases.items():
        out = mode_product(out, basis @ basis.T, d)
    return out


@pytest.mark.parametrize("shape, ranks", [((6, 5, 7), (2, 3, 1)), ((4, 5, 3, 6), (2, 1, 2, 3))])
def test_project_matches_dense_projectors_and_is_idempotent(shape, ranks):
    t = np.random.default_rng(47).standard_normal(shape)
    bases = mode_bases(t, ranks)
    assert list(bases) == list(range(1, len(shape) + 1))
    for d, basis in bases.items():
        assert_allclose(basis.T @ basis, np.eye(ranks[d - 1]), atol=1e-12)
    once = project(t, bases)
    assert_allclose(once, dense_projection(t, bases), atol=1e-12)
    assert_allclose(project(once, bases), once, atol=1e-12)
    assert_array_equal(once, hosvd_truncate(t, ranks))


@pytest.mark.parametrize("shape", [(4, 5, 3), (3, 4, 2, 5)])
def test_mode_bases_omit_full_rank_modes_and_zero_rank_gives_zeros(shape):
    t = np.random.default_rng(53).standard_normal(shape)
    assert mode_bases(t, shape) == {}
    assert_array_equal(project(t, {}), t)
    bases = mode_bases(t, (1, 0) + shape[2:])
    assert list(bases) == [1, 2]
    assert bases[2].shape == (shape[1], 0)
    assert_array_equal(project(t, bases), np.zeros_like(t))


def test_mode_bases_check_only_the_listed_dims():
    t = np.random.default_rng(59).standard_normal((6, 4, 3))
    bases = mode_bases(t, (2, 2, 9), dims=[1, 2])  # dimension 3's rank is never used
    assert [b.shape for b in bases.values()] == [(6, 2), (4, 2)]
    with pytest.raises(RankError):
        mode_bases(t, (2, 2, 9))
    with pytest.raises(RankError):
        mode_bases(t, (2, 2))


def test_flatten_rejects_out_of_range_dim():
    with pytest.raises(RankError):
        flatten(np.zeros((2, 2)), 3)
    with pytest.raises(RankError):
        flatten(np.zeros((2, 2)), 0)


def test_mode_product_rejects_mismatched_matrix():
    with pytest.raises(TensorShapeError):
        mode_product(np.zeros((2, 2, 2)), np.zeros((3, 3)), 1)


def test_truncated_svd_rejects_excess_rank():
    with pytest.raises(RankError):
        truncated_svd(np.zeros((2, 2)), 5)


def test_hosvd_truncate_rejects_excess_rank():
    with pytest.raises(RankError):
        hosvd_truncate(np.zeros((2, 2)), (3, 1))


def test_cp_compose_rejects_component_mismatch():
    with pytest.raises(TensorShapeError):
        cp_compose([np.ones((2, 1)), np.ones((3, 2))])
