"""Dense tensor primitives and the package's one linear-algebra core.

Conventions (frozen; every routine in the package relies on them):

* Dimensions are 1-indexed in all public APIs, matching the usual panel
  notation where "dimension 1" is the first index of the array.
* ``flatten(t, n)`` puts mode ``n`` on the rows; its columns run over the
  remaining dimensions in the cyclic order ``n+1, ..., d, 1, ..., n-1`` with
  the first-listed dimension varying fastest.

Singular values below ``1e-12`` times the largest one are treated as exact
zeros wherever a decomposition is computed.

Every estimator is built from five shared steps, each done in one place:

* :func:`truncated_svd` is the only SVD that returns vectors (leading
  subspaces of flattenings, loadings, proxies, projectors); it takes the
  leading subspace from ``eigh`` of the smaller Gram matrix, while
  :func:`multilinear_rank` keeps a plain ``compute_uv=False`` SVD because
  the Gram route resolves small singular values only to about
  ``sqrt(eps)`` times the largest;
* :func:`cross_moments` builds the ``K x K`` normal equations and
  :func:`solve_gram` solves them under one conditioning policy: it raises
  :class:`~tensorfe.errors.EstimationError` when the Gram matrix is zero,
  non-finite, or has a condition number above ``GRAM_COND_LIMIT`` (10**12);
  no estimator falls back to a pseudo-inverse;
* :func:`regressor_list` normalizes a regressor argument (one tensor, a
  list or tuple of tensors, or tensors stacked along a leading axis);
* :func:`net_of` forms the residual ``y - sum_k beta[k] * x[k]``;
* :func:`mode_bases` fits the leading subspace of each mode's flattening and
  :func:`project` applies the multilinear projection ``B (B.T .)`` onto them
  as thin mode products; HOSVD truncation and both corrected estimators
  (plain and cross-fitted) are built from this pair.

Tensors are validated at the package boundary: every exported name and
estimator entry point runs :func:`as_tensor` once (non-finite entries raise
``TensorShapeError``), and code inside the package calls the unchecked
kernels (``_flatten``, ``_mode_product``, ``_truncated_svd``, ...) on tensors
it built itself.  A non-finite value made past the boundary is caught by
:func:`solve_gram` (Gram matrix or right-hand side) or by ``build_report``
(variance), both raising ``EstimationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, RankError, TensorShapeError

SVD_ZERO_RTOL = 1e-12
GRAM_COND_LIMIT = 1e12


def as_tensor(t, name: str = "tensor", min_order: int = 1) -> np.ndarray:
    """Coerce to a float64 ndarray and validate order and finiteness."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim < min_order:
        raise TensorShapeError(
            f"{name} must have at least {min_order} dimension(s), got {arr.ndim}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise TensorShapeError(f"{name} contains non-finite entries")
    return arr


def check_dim(dim: int, order: int) -> int:
    """Validate a 1-indexed dimension against a tensor order."""
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise RankError(f"dimension index must be an integer, got {dim!r}")
    if not 1 <= dim <= order:
        raise RankError(f"dimension index {dim} out of range for order-{order} tensor")
    return int(dim)


def per_dim(value, count: int, name: str) -> tuple:
    """One value per dimension: a scalar or one-element sequence is repeated ``count`` times.

    A sequence of length ``count`` is kept (as a tuple); any other length,
    or a dict, raises :class:`~tensorfe.errors.RankError` naming the setting.
    """
    if isinstance(value, dict):  # iterating it would yield its keys
        raise RankError(f"{name} must be one value or a sequence with one per dimension, not a dict")
    values = tuple(value) if np.iterable(value) else (value,)
    if len(values) == 1:
        return values * count
    if len(values) != count:
        raise RankError(f"{len(values)} {name} given for {count} dimensions")
    return values


def _cyclic_perm(dim: int, order: int) -> tuple[int, ...]:
    # 0-based axis order (n, n+1, ..., d-1, 0, ..., n-2) for 1-indexed dim n;
    # axis n-1 leads, the rest follow cyclically.
    n = dim - 1
    return (n,) + tuple(range(n + 1, order)) + tuple(range(n))


def flatten(t, dim: int) -> np.ndarray:
    """Mode-``dim`` flattening with cyclic column order.

    Row ``i`` collects every cell whose ``dim``-th index is ``i``.  The columns
    enumerate the other dimensions cyclically starting *after* ``dim``, with
    the first-listed dimension varying fastest, so for a 3-D tensor
    ``flatten(t, 2)`` has its columns ordered by (dim-3, dim-1) with dim 3
    fastest.

    Parameters
    ----------
    t : array_like
        Input tensor of order >= 1.
    dim : int
        1-indexed mode to put on the rows.
    """
    arr = as_tensor(t)
    return _flatten(arr, check_dim(dim, arr.ndim))


def _flatten(arr: np.ndarray, dim: int) -> np.ndarray:
    return np.transpose(arr, _cyclic_perm(dim, arr.ndim)).reshape(arr.shape[dim - 1], -1, order="F")


def unflatten(m, dim: int, shape) -> np.ndarray:
    """Invert :func:`flatten`: rebuild the tensor of the given shape."""
    mat = as_tensor(m, name="matrix")
    if mat.ndim != 2:
        raise TensorShapeError(f"expected a matrix, got order-{mat.ndim} array")
    shape = tuple(int(s) for s in shape)
    dim = check_dim(dim, len(shape))
    if mat.shape != (shape[dim - 1], math.prod(shape[: dim - 1] + shape[dim:])):
        raise TensorShapeError(f"matrix shape {mat.shape} incompatible with shape {shape} flattened along dimension {dim}")
    return _unflatten(mat, dim, shape)


def _unflatten(mat: np.ndarray, dim: int, shape: tuple[int, ...]) -> np.ndarray:
    perm = _cyclic_perm(dim, len(shape))
    return np.transpose(mat.reshape(tuple(shape[p] for p in perm), order="F"), np.argsort(perm))


def mode_product(t, mat, dim: int) -> np.ndarray:
    """Multiply a tensor along one mode: contract ``mat``'s columns with it.

    The result replaces the size of mode ``dim`` by ``mat.shape[0]``; it is
    the tensor whose mode-``dim`` flattening equals ``mat @ flatten(t, dim)``.

    The tensor is viewed as ``(pre, N_dim, post)`` (``pre`` and ``post`` the
    products of the sizes before and after ``dim``) and multiplied as one
    ``np.matmul`` of ``mat`` against that view, or as ``view @ mat.T`` when
    ``dim`` is the last mode.  Nothing is transposed: the result is always
    C-contiguous, at ``2 * k * cells`` flops for a ``k``-row ``mat``, and a
    non-contiguous input costs one extra copy to reach the view.
    """
    arr = as_tensor(t)
    dim = check_dim(dim, arr.ndim)
    return _mode_product(arr, _mode_matrix(mat, arr.shape[dim - 1], dim), dim)


def _mode_matrix(mat, n: int, dim: int) -> np.ndarray:
    """Check a matrix that is to act on dimension ``dim`` of size ``n``."""
    m = as_tensor(mat, name="matrix")
    if m.ndim != 2:
        raise TensorShapeError(f"mode factor must be a matrix, got order {m.ndim}")
    if m.shape[1] != n:
        raise TensorShapeError(f"matrix with {m.shape[1]} columns cannot act on dimension {dim} of size {n}")
    return m


def _mode_product(arr: np.ndarray, m: np.ndarray, dim: int) -> np.ndarray:
    n = arr.shape[dim - 1]
    pre, post = math.prod(arr.shape[: dim - 1]), math.prod(arr.shape[dim:])
    if post == 1:
        out = arr.reshape(pre, n) @ m.T
    else:
        out = np.matmul(m, arr.reshape(pre, n, post))
    return out.reshape(arr.shape[: dim - 1] + (m.shape[0],) + arr.shape[dim:])


def cp_compose(factor_matrices) -> np.ndarray:
    """Sum of rank-one outer products from per-dimension loading matrices.

    ``factor_matrices[n]`` has shape ``(N_{n+1}, L)``; component ``l`` of the
    result is the outer product of the ``l``-th columns, and the output is the
    sum over all ``L`` components.

    The mode-1 flattening of that sum (in C order over the other modes) is
    ``A_1 @ KR.T``, where ``KR`` is the Khatri–Rao (column-wise Kronecker)
    product of ``A_2, ..., A_d``: row ``(i_2, ..., i_d)`` of ``KR`` holds
    ``prod_n A_n[i_n, :]``.  ``KR`` is built one mode at a time by broadcast
    products and the sum over components is one GEMM.
    """
    mats = [as_tensor(m, name=f"factor matrix {i + 1}") for i, m in enumerate(factor_matrices)]
    if not mats:
        raise TensorShapeError("need at least one factor matrix")
    for i, m in enumerate(mats):
        if m.ndim != 2:
            raise TensorShapeError(f"factor matrix {i + 1} must be 2-D, got {m.ndim}-D")
    widths = {m.shape[1] for m in mats}
    if len(widths) != 1:
        raise TensorShapeError(f"factor matrices disagree on component count: {sorted(widths)}")
    width = widths.pop()
    khatri_rao = np.ones((1, width))
    for m in mats[1:]:
        khatri_rao = (khatri_rao[:, None, :] * m[None, :, :]).reshape(khatri_rao.shape[0] * m.shape[0], width)
    return (mats[0] @ khatri_rao.T).reshape(tuple(m.shape[0] for m in mats))


@dataclass
class TruncatedSvd:
    """Leading singular triplets of a matrix, plus the discarded tail.

    ``u`` is ``(rows, k)``, ``s`` the leading singular values (descending,
    exact zeros where the raw values fall below ``1e-12 * s[0]``), ``v`` is
    ``(cols, k)`` so ``u @ diag(s) @ v.T`` is the rank-``k`` approximation.
    ``tail`` holds the discarded singular values, making the approximation
    error ``sqrt(sum(tail**2))`` available without a second decomposition;
    they come from Gram eigenvalues, so each is accurate to about
    ``sqrt(eps) * s[0]`` and their squares to about ``eps * s[0]**2``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    tail: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def residual_norm_sq(self) -> float:
        return float(np.sum(self.tail**2))

    def compose(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def truncated_svd(m, k: int) -> TruncatedSvd:
    """Rank-``k`` truncated SVD (best approximation in Frobenius norm).

    ``side`` is the matrix or its transpose, whichever has fewer rows.  The
    leading subspace comes from ``eigh`` of the small Gram matrix
    ``side @ side.T``; an exact thin SVD of the ``long x k`` image
    ``side.T @ q`` of its top-``k`` eigenvectors ``q`` then gives the
    singular values and both sets of vectors, and the tail is the square
    root of the discarded eigenvalues clipped at zero.  A direction missing
    from the data has ``|q_i.T @ side|`` of order ``eps * ||m||``, so
    exactly low-rank inputs still report exact zeros.
    """
    mat = as_tensor(m, name="matrix")
    if mat.ndim != 2:
        raise TensorShapeError(f"expected a matrix, got order-{mat.ndim} array")
    max_rank = min(mat.shape)
    if not 0 <= k <= max_rank:
        raise RankError(f"rank {k} out of range [0, {max_rank}] for shape {mat.shape}")
    return _truncated_svd(mat, k)


def _truncated_svd(mat: np.ndarray, k: int) -> TruncatedSvd:
    wide = mat.shape[0] <= mat.shape[1]
    side = mat if wide else mat.T
    svd = _complete_svd(side, k, *np.linalg.eigh(side @ side.T))
    return svd if wide else TruncatedSvd(u=svd.v, s=svd.s, v=svd.u, tail=svd.tail)


def _complete_svd(side: np.ndarray, k: int, eigvals: np.ndarray, eigvecs: np.ndarray) -> TruncatedSvd:
    """Rank-``k`` SVD of ``side``, the shorter (or square) side, from ``eigvals, eigvecs = eigh(side @ side.T)``.

    A caller that already holds that decomposition (the factor fit) passes it in.
    """
    top = eigvecs[:, ::-1][:, :k]
    # The SVD of the long-by-k image: LAPACK's tall path is the faster one.
    v, s, rot = np.linalg.svd(side.T @ top, full_matrices=False)
    tail = np.sqrt(np.clip(eigvals[::-1][k:], 0.0, None))
    s = np.concatenate([s, tail])
    s = np.where(s < SVD_ZERO_RTOL * s[0], 0.0, s) if s.size else s
    return TruncatedSvd(u=top @ rot.T, s=s[:k], v=v, tail=s[k:])


def mode_bases(t, ranks, dims=None) -> dict[int, np.ndarray]:
    """Leading left singular vectors of each listed mode's flattening.

    ``ranks`` gives one rank per dimension of ``t``; only the listed ``dims``
    (1-indexed, default all) are fitted and have their ranks checked against
    ``[0, N_d]``.  A mode whose rank reaches its size is left out, because its
    projection is the identity; a flattening narrower than its rank keeps all
    its vectors, and a zero rank gives a zero-width basis.
    """
    return _mode_bases(as_tensor(t), ranks, dims)


def _mode_bases(arr: np.ndarray, ranks, dims=None) -> dict[int, np.ndarray]:
    # Checks the ranks and dimensions, not the tensor's entries.
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != arr.ndim:
        raise RankError(f"{len(ranks)} ranks given for an order-{arr.ndim} tensor")
    dims = range(1, arr.ndim + 1) if dims is None else [check_dim(d, arr.ndim) for d in dims]
    bases = {}
    for d in dims:
        r, n = ranks[d - 1], arr.shape[d - 1]
        if not 0 <= r <= n:
            raise RankError(f"rank {r} out of range [0, {n}]")
        if r < n:
            mat = _flatten(arr, d)
            bases[d] = _truncated_svd(mat, min(r, mat.shape[1])).u
    return bases


def project(t, bases) -> np.ndarray:
    """Apply ``B (B.T .)`` along each mode ``d`` of ``bases``, as two thin mode products.

    For orthonormal bases this is an orthogonal projection of the vectorized
    tensor, a
    fact the orthogonalized estimators rely on; a zero-width basis gives exact
    zeros.
    """
    out = as_tensor(t)
    for d, basis in bases.items():
        out = mode_product(mode_product(out, basis.T, d), basis, d)
    return out


def _project(arr: np.ndarray, bases) -> np.ndarray:
    # ``project`` for bases fitted by ``_mode_bases`` on a tensor of the same shape.
    for d, basis in bases.items():
        arr = _mode_product(_mode_product(arr, basis.T, d), basis, d)
    return arr


def hosvd_truncate(t, ranks) -> np.ndarray:
    """Multilinear projection of ``t`` onto its leading HOSVD subspaces.

    ``project(t, mode_bases(t, ranks))``: the identity along full-rank modes
    and the zero tensor when any rank is zero.
    """
    arr = as_tensor(t)
    return _project(arr, _mode_bases(arr, ranks))


@dataclass
class MultilinearRank:
    """Per-dimension ranks of the mode flattenings, with their spectra."""

    ranks: tuple[int, ...]
    spectra: list[np.ndarray]


def multilinear_rank(t, rel_tol: float = 1e-8) -> MultilinearRank:
    """Numerical rank of every mode flattening.

    A singular value counts toward the rank when it exceeds ``rel_tol`` times
    the largest singular value of the same flattening; an all-zero flattening
    has rank 0.
    """
    arr = as_tensor(t)
    ranks, spectra = [], []
    for n in range(1, arr.ndim + 1):
        s = np.linalg.svd(_flatten(arr, n), compute_uv=False)
        spectra.append(s)
        top = s[0] if s.size else 0.0
        ranks.append(0 if top == 0.0 else int(np.sum(s > rel_tol * top)))
    return MultilinearRank(ranks=tuple(ranks), spectra=spectra)


def regressor_list(x, shape, name: str = "regressor") -> list[np.ndarray]:
    """Normalize a regressor argument to a non-empty list of tensors of ``shape``.

    One array of exactly ``shape`` is a single regressor; anything else (a
    list, a tuple, or an array stacked along a leading axis) is iterated.
    """
    shape = tuple(shape)
    xs = [x] if isinstance(x, np.ndarray) and x.shape == shape else list(x)
    out = [as_tensor(xk, name=f"{name} {k + 1}") for k, xk in enumerate(xs)]
    for k, xk in enumerate(out):
        if xk.shape != shape:
            raise TensorShapeError(f"{name} {k + 1} has shape {xk.shape}, expected {shape}")
    if not out:
        raise TensorShapeError(f"need at least one {name}")
    return out


def net_of(y, xs, beta) -> np.ndarray:
    """Residual ``y - sum_k beta[k] * xs[k]``: the fitted part is summed, then subtracted once."""
    return y - sum(b * xk for b, xk in zip(beta, xs))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product of two same-shape arrays, copying neither.

    ``np.vdot`` first copies an operand that is not C-contiguous, such as an
    F-ordered flattening or a transposed view; ``einsum`` reads any strides.
    On C-contiguous operands ``vdot`` is the faster of the two, so it stays:
    min-of-15 µs per call on one BLAS thread (numpy 2.4, Xeon, 2 cores),
    ``vdot`` against ``einsum``, 16 vs 28 on 40³, 6.5 vs 12.5 on 12⁴ and
    166 vs 183 on 80×30×100.
    """
    if a.flags.c_contiguous and b.flags.c_contiguous:
        return np.vdot(a, b)
    axes = list(range(a.ndim))
    return np.einsum(a, axes, b, axes, [])


def cross_moments(xs, target) -> tuple[np.ndarray, np.ndarray]:
    """Normal equations of ``target`` on ``xs``: the Gram matrix and right-hand side."""
    n_reg = len(xs)
    gram = np.empty((n_reg, n_reg))
    for k in range(n_reg):
        for l in range(k, n_reg):
            gram[k, l] = gram[l, k] = _inner(xs[k], xs[l])
    return gram, np.array([_inner(xk, target) for xk in xs])


def solve_gram(gram, rhs, what: str = "regressors") -> np.ndarray:
    """Solve ``gram @ beta = rhs`` under the one conditioning policy.

    Raises :class:`EstimationError` naming ``what`` when the Gram matrix is
    zero, non-finite, or has a condition number above ``GRAM_COND_LIMIT``,
    or when the right-hand side is non-finite.
    """
    if not np.all(np.isfinite(gram)) or not np.any(gram):
        raise EstimationError(f"{what} are identically zero or non-finite")
    if not np.all(np.isfinite(rhs)):
        raise EstimationError(f"the normal equations of the {what} have a non-finite right-hand side")
    if np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise EstimationError(f"{what} are (near-)collinear")
    return np.linalg.solve(gram, rhs)
