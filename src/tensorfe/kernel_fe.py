"""Kernel-weighted within transforms built from loading proxies.

Each dimension of the panel gets an ``N_n x N_n`` weight matrix whose row
``i`` averages over units that look similar to ``i`` in proxy space; the
within transform subtracts those local averages mode by mode.  The slope
coefficient then comes from pooled OLS on the transformed data, which
differences out low-rank interactive effects without estimating them.

Proxies, weight matrices and within matrices are plain dicts keyed by the
1-indexed dimension.  A kernel is a family name plus a bandwidth: one value
for every proxy dimension, or one per proxy dimension in ascending order
(:func:`~tensorfe.tensor_ops.per_dim`).

Weight rows are normalized including the own-unit term, so rows always sum to
one.  A unit with (numerically) no neighbours gets weight one on itself and a
zero row in ``I - W`` — it simply drops out of the transformed data, which is
flagged rather than treated as an error unless *every* unit in a dimension is
isolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightsError, RankError, TensorShapeError
from .tensor_ops import _mode_matrix, _mode_product, as_tensor, check_dim, cross_moments, net_of
from .tensor_ops import per_dim, regressor_list, solve_gram

KERNEL_FAMILIES = ("gaussian", "indicator")


def kernel_eval(family, u) -> np.ndarray:
    """Evaluate a kernel family at (nonnegative) scaled distances.

    ``gaussian`` is ``exp(-u^2)``; ``indicator`` is ``1`` strictly inside the
    unit interval and ``0`` at or beyond it.
    """
    u = np.asarray(u, dtype=np.float64)
    if family == "gaussian":
        return np.exp(-(u**2))
    if family == "indicator":
        return (np.abs(u) < 1.0).astype(np.float64)
    raise ValueError(f"unknown kernel family {family!r}; choose from {KERNEL_FAMILIES}")


def _pairwise_distances(u: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a proxy matrix.

    Single-column proxies take the absolute-difference path so that the
    per-column estimator and the vector-norm estimator agree exactly when
    there is one proxy column.  Wider proxies use the Gram identity
    ``|u_i - u_j|^2 = |u_i|^2 + |u_j|^2 - 2 u_i'u_j`` on the column-centred
    rows (distances are translation invariant, and centring keeps the
    cancellation small), clamped at zero; it needs ``O(N^2)`` memory rather
    than an ``N x N x r`` difference array.  The squared norms are the Gram
    diagonal, so the diagonal distance is exactly zero.
    """
    if u.shape[1] == 1:
        col = u[:, 0]
        return np.abs(col[:, None] - col[None, :])
    u = u - u.mean(axis=0)
    gram = u @ u.T
    sq_norms = np.diag(gram)
    return np.sqrt(np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram, 0.0))


def _normalize_rows(kmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a kernel matrix; return weights and isolated-row indices."""
    n = kmat.shape[0]
    row_sums = kmat.sum(axis=1)
    # The self term k(0) = 1 keeps every row sum >= 1 for both families.
    weights = kmat / row_sums[:, None]
    off_diag_mass = row_sums - np.diag(kmat)
    degenerate = np.flatnonzero(off_diag_mass <= n * np.finfo(np.float64).eps)
    return weights, degenerate


@dataclass
class WeightSet:
    """Row-stochastic kernel weight matrices and their isolated rows, both keyed by dimension."""

    weights: dict[int, np.ndarray]
    degenerate_rows: dict[int, np.ndarray]


def _proxy_matrices(proxies) -> dict[int, np.ndarray]:
    """Proxy matrices ``(N_d, r)`` by dimension in ascending order."""
    out: dict[int, np.ndarray] = {}
    for d in sorted(proxies):
        u = as_tensor(proxies[d], name=f"proxies for dimension {d}")
        if u.ndim == 1:
            u = u[:, None]
        if u.ndim != 2:
            raise TensorShapeError(f"proxies for dimension {d} must be a matrix")
        out[d] = u
    if not out:
        raise RankError("no proxy columns supplied")
    return out


def kernel_weights(proxies, family: str, bandwidth) -> WeightSet:
    """Build per-dimension weight matrices from proxy distances.

    ``proxies`` maps each 1-indexed dimension to its ``N_d x r`` proxy matrix
    (or ``N_d`` vector).  ``bandwidth`` is one positive finite float, or one
    per proxy dimension in ascending order.  ``W[i, j]`` is the kernel
    ``family`` evaluated at the proxy distance between units ``i`` and ``j``
    over the bandwidth, normalized so each row (self term included) sums to
    one.  Raises when every unit of some dimension is isolated — the within
    transform would annihilate that entire dimension.
    """
    columns = _proxy_matrices(proxies)
    bandwidths = [float(h) for h in per_dim(bandwidth, len(columns), "bandwidths")]
    for h in bandwidths:
        if not (np.isfinite(h) and h > 0):
            raise ValueError(f"bandwidths must be positive and finite, got {h!r}")

    weights: dict[int, np.ndarray] = {}
    degenerate: dict[int, np.ndarray] = {}
    for (d, u), h in zip(columns.items(), bandwidths):
        kmat = kernel_eval(family, _pairwise_distances(u) / h)
        w, iso = _normalize_rows(kmat)
        if iso.size == u.shape[0]:
            raise DegenerateWeightsError(
                f"all {u.shape[0]} units of dimension {d} are isolated at bandwidth {h}; "
                "the within transform would remove every observation"
            )
        weights[d] = w
        degenerate[d] = iso
    return WeightSet(weights=weights, degenerate_rows=degenerate)


def within_projections(weight_set: WeightSet) -> dict[int, np.ndarray]:
    """Turn weight matrices into within-transform matrices, keyed by dimension.

    Each dimension's matrix subtracts the weighted neighbourhood average:
    ``I - W``.
    """
    return {d: np.eye(w.shape[0]) - w for d, w in weight_set.weights.items()}


def weighted_within(t, projections: dict[int, np.ndarray]) -> np.ndarray:
    """Apply the per-dimension within matrices as successive mode products, in ascending dimension."""
    return _within(as_tensor(t), projections)


def _within(arr: np.ndarray, projections: dict[int, np.ndarray]) -> np.ndarray:
    # ``weighted_within`` on a checked tensor: only the small within matrices are checked.
    for d in sorted(projections):
        mat = projections[d]
        d = check_dim(d, arr.ndim)
        arr = _mode_product(arr, _mode_matrix(mat, arr.shape[d - 1], d), d)
    return arr


def smoothed_effects(resid, projections: dict[int, np.ndarray]) -> np.ndarray:
    """Implied fixed-effect estimate: the part the within transform removes.

    Applied to a preliminary residual (outcome net of the regression part)
    this is the kernel estimate of the interactive effects — the weighted
    neighbourhood structure the transform would subtract.  Its estimation
    noise shrinks with growing neighbourhoods, so downstream users get an
    effects estimate whose error is of the same order as the slope CLT term
    rather than exactly inside the regressors' structural span.
    """
    arr = as_tensor(resid)
    return arr - _within(arr, projections)


def standard_within(t) -> np.ndarray:
    """Classical within transform: demean along every dimension.

    The centering operators commute, so composing them is the usual
    inclusion–exclusion multi-way fixed-effects sweep (for three dimensions,
    the familiar eight-term formula).
    """
    out = as_tensor(t, min_order=2)
    for axis in range(out.ndim):
        out = out - out.mean(axis=axis, keepdims=True)
    return out


@dataclass
class KernelFeFit:
    """Pooled OLS on kernel-within-transformed data.

    ``degenerate_rows`` lists isolated units by dimension, or by
    ``(dim, m)`` for the weights :func:`iterative_kernel_fe` builds from the
    ``m``-th proxy column (1-indexed) of a dimension.
    """

    beta: np.ndarray
    y_within: np.ndarray
    x_within: list[np.ndarray]
    projections: dict[int, np.ndarray]
    degenerate_rows: dict = field(default_factory=dict)

    @property
    def residual(self) -> np.ndarray:
        return net_of(self.y_within, self.x_within, self.beta)


def _within_fit(y, x, projections: dict[int, np.ndarray], degenerate_rows: dict) -> KernelFeFit:
    # The shared tail of both kernel estimators: transform, then pooled OLS.
    # No within matrix at all would make the fit pooled OLS under a kernel
    # label.  A zero within matrix leaves no data, and ``solve_gram`` raises.
    y_arr = as_tensor(y, name="outcome", min_order=2)
    xs = regressor_list(x, y_arr.shape)
    if not projections:
        raise RankError("no within matrices supplied; the fit would be pooled OLS")
    y_t = _within(y_arr, projections)
    x_t = [_within(xk, projections) for xk in xs]
    beta = solve_gram(*cross_moments(x_t, y_t))
    return KernelFeFit(beta=beta, y_within=y_t, x_within=x_t, projections=projections, degenerate_rows=degenerate_rows)


def kernel_fe_estimate(y, x, projections: dict[int, np.ndarray], *, weight_set: WeightSet | None = None) -> KernelFeFit:
    """Slope estimate from pooled OLS after the kernel within transform.

    ``projections`` typically comes from :func:`within_projections`; passing
    the originating :class:`WeightSet` forwards its degenerate-row diagnostic
    into the fit.
    """
    return _within_fit(y, x, projections, dict(weight_set.degenerate_rows) if weight_set is not None else {})


def iterative_kernel_fe(y, x, proxies, family: str, bandwidth) -> KernelFeFit:
    """Kernel-weighted estimate sweeping one proxy column at a time.

    Instead of one weight matrix per dimension built from vector proxy
    distances, each proxy column gets its own weights from scalar distances
    (|difference| / bandwidth), built by :func:`kernel_weights` on that one
    column, and contributes one ``I - W`` factor; a
    dimension's transform is the product of its column factors.  With a single
    proxy column per dimension this reproduces :func:`kernel_fe_estimate`
    exactly.  ``proxies`` and ``bandwidth`` follow :func:`kernel_weights`;
    every column of a dimension uses that dimension's bandwidth.
    ``degenerate_rows`` is keyed by ``(dim, column)``.
    """
    columns = _proxy_matrices(proxies)
    degenerate: dict[tuple[int, int], np.ndarray] = {}
    composed: dict[int, np.ndarray] = {}
    for (d, u), h in zip(columns.items(), per_dim(bandwidth, len(columns), "bandwidths")):
        transform = np.eye(u.shape[0])
        for m in range(u.shape[1]):
            column = kernel_weights({d: u[:, m]}, family, h)
            degenerate[(d, m + 1)] = column.degenerate_rows[d]
            transform = (np.eye(u.shape[0]) - column.weights[d]) @ transform
        composed[d] = transform
    return _within_fit(y, x, composed, degenerate)
