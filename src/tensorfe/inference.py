"""Orthogonalized slope estimation and variance/interval machinery.

The corrected estimator replaces each regressor by its residual from a
multilinear low-rank projection (removing the part that co-moves with the
interactive effects), estimates the effects themselves from the outcome net
of a preliminary slope, and then regresses the structurally-cleaned outcome
on the cleaned regressors.  Debiasing works because the nuisance errors enter
the estimating equation only through products of small terms.  Both the plain
and the cross-fitted estimator take that projection from the one pair
:func:`~tensorfe.tensor_ops.mode_bases` + :func:`~tensorfe.tensor_ops.project`;
the cross-fitted one fits the bases on the other fold.

Variance estimators share one sandwich: homoskedastic, heteroskedastic, and a
HAC version whose middle matrix weights cross-moments at per-dimension
offsets with a product-Bartlett taper.  The taper is separable, so the HAC
applies one Bartlett Toeplitz matrix per lagged dimension as a mode product
and its cost does not grow with the lags.  Setting every lag to zero
reproduces the heteroskedastic estimator exactly (same code path).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import EstimationError, RankError, TensorShapeError
from .tensor_ops import (
    _mode_bases,
    _mode_product,
    _project,
    as_tensor,
    check_dim,
    cross_moments,
    hosvd_truncate,
    net_of,
    regressor_list,
    solve_gram,
)


@dataclass
class Orthogonalization:
    """Nuisance estimates feeding the corrected slope estimator.

    ``gamma_x[k]`` is regressor ``k``'s low-rank part, ``effects`` the
    low-rank estimate of the interactive component from the preliminary
    residual, and ``gamma_y`` their combination
    ``sum_k gamma_x[k] * beta_tilde[k] + effects`` (held exactly, by
    construction).  ``eta[k] = x[k] - gamma_x[k]`` is the cleaned regressor.
    """

    gamma_x: list[np.ndarray]
    effects: np.ndarray
    gamma_y: np.ndarray
    eta: list[np.ndarray]
    beta_tilde: np.ndarray
    ranks: tuple[int, ...]


def orthogonalize(y, x, beta_tilde, ranks, *, effects=None) -> Orthogonalization:
    """Build every nuisance object the corrected estimator needs.

    Parameters
    ----------
    y, x : array_like
        Outcome tensor and regressor tensor(s) of the same shape.
    beta_tilde : array_like
        Preliminary slope estimate (consistent; e.g. a kernel-within fit).
    ranks : sequence of int
        Per-dimension truncation ranks for both the regressor projections and
        the effects estimate.
    effects : array_like, optional
        Caller-supplied effects estimate replacing the default multilinear
        truncation of the preliminary residual (e.g. a kernel-smoothed
        estimate from the same fit that produced ``beta_tilde``).  The
        regressor projections still use ``ranks``.
    """
    y_arr = as_tensor(y, name="outcome", min_order=2)
    return _orthogonalize(y_arr, regressor_list(x, y_arr.shape), beta_tilde, ranks, effects)


def _orthogonalize(y_arr: np.ndarray, xs: list[np.ndarray], beta_tilde, ranks, effects) -> Orthogonalization:
    # ``orthogonalize`` on an outcome and regressors its caller has checked.
    bt = np.atleast_1d(np.asarray(beta_tilde, dtype=np.float64))
    if bt.shape != (len(xs),):
        raise TensorShapeError(f"beta_tilde has shape {bt.shape}, expected ({len(xs)},)")
    ranks = tuple(int(r) for r in ranks)
    gamma_x = [hosvd_truncate(xk, ranks) for xk in xs]
    if effects is None:
        effects = hosvd_truncate(net_of(y_arr, xs, bt), ranks)
    else:
        effects = as_tensor(effects, name="effects")
        if effects.shape != y_arr.shape:
            raise TensorShapeError(f"effects has shape {effects.shape}, expected {y_arr.shape}")
    return _assemble(xs, bt, ranks, gamma_x, effects)


def _assemble(xs: list[np.ndarray], bt: np.ndarray, ranks, gamma_x: list[np.ndarray], effects) -> Orthogonalization:
    # The nuisance objects of regressors ``xs`` given their low-rank parts and the effects estimate.
    gamma_y = sum(b * g for b, g in zip(bt, gamma_x)) + effects
    eta = [xk - g for xk, g in zip(xs, gamma_x)]
    return Orthogonalization(gamma_x, effects, gamma_y, eta, beta_tilde=bt, ranks=ranks)


@dataclass
class CorrectedFit:
    """Corrected slope estimate with the ingredients for variance estimation.

    ``eta`` and ``residual`` are full-shape tensors (residual = outcome net of
    regression part and estimated effects), so downstream HAC estimators can
    use true index adjacency; the cross-fitted estimator puts its two folds'
    pieces back in original index order.
    """

    beta: np.ndarray
    omega: np.ndarray
    residual: np.ndarray
    eta: list[np.ndarray]
    beta_tilde: np.ndarray
    split: "CrossfitPlan | None" = None
    fold_beta_tilde: list[np.ndarray] = field(default_factory=list)

    @property
    def n_cells(self) -> int:
        return self.residual.size


def corrected_estimate(
    y, x, beta_tilde=None, ranks=None, *, effects=None, orth: Orthogonalization | None = None
) -> CorrectedFit:
    """Orthogonalization-corrected slope estimate.

    Either pass a prebuilt :class:`Orthogonalization` or the preliminary slope
    and ranks to build one (``effects`` optionally overrides the truncation
    estimate, see :func:`orthogonalize`).  The slope solves the normal
    equations of the cleaned regressors against the outcome net of its
    estimated structural part; the returned residual nets out the regression
    at the *corrected* slope and the estimated effects.
    """
    y_arr = as_tensor(y, name="outcome", min_order=2)
    xs = regressor_list(x, y_arr.shape)
    if orth is None:
        if beta_tilde is None or ranks is None:
            raise ValueError("need either a prebuilt orthogonalization or (beta_tilde, ranks)")
        orth = _orthogonalize(y_arr, xs, beta_tilde, ranks, effects)
    gram, rhs = cross_moments(orth.eta, y_arr - orth.gamma_y)
    beta = solve_gram(gram, rhs, "cleaned regressors")
    residual = net_of(y_arr, xs, beta) - orth.effects
    return CorrectedFit(
        beta=beta,
        omega=gram / y_arr.size,
        residual=residual,
        eta=orth.eta,
        beta_tilde=orth.beta_tilde,
    )


# --------------------------------------------------------------------------
# Variance estimation
# --------------------------------------------------------------------------


def _omega_inv(etas: list[np.ndarray]) -> np.ndarray:
    """Inverse of the scale matrix ``Omega = N^{-1} sum_i eta_i eta_i'``."""
    omega = cross_moments(etas, etas[0])[0] / etas[0].size
    return solve_gram(omega, np.eye(len(etas)), "variance-estimate scores")


def var_homoskedastic(eta, resid) -> np.ndarray:
    """Sandwich under homoskedastic, uncorrelated errors.

    ``sigma^2 * Omega^{-1} / N`` with ``sigma^2`` the plain mean of squared
    residuals (no degrees-of-freedom correction).
    """
    resid = as_tensor(resid, name="residual")
    omega_inv = _omega_inv(regressor_list(eta, resid.shape, "eta"))
    sigma_sq = float(np.vdot(resid, resid)) / resid.size
    return sigma_sq * omega_inv / resid.size


@functools.lru_cache(maxsize=64)
def _bartlett(n: int, lag: int) -> np.ndarray:
    """Bartlett Toeplitz ``B[i, j] = max(0, 1 - |i - j| / (lag + 1))``, built once per size and lag (read-only)."""
    taper = np.clip(1.0 - np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / (lag + 1), 0.0, None)
    taper.flags.writeable = False
    return taper


def var_hac(eta, resid, lags) -> np.ndarray:
    """Heteroskedasticity- and autocorrelation-robust sandwich.

    The middle matrix sums ``N^{-1} sum_i e_i e_{i+s} eta_i eta_{i+s}'`` over offsets ``|s_n| <= lags[n]``
    with the product-Bartlett taper ``prod_n (1 - |s_n| / (lags[n] + 1))``.  The taper is separable:
    ``meat[a, b] = <s_a, s_b x_1 B_1 ... x_d B_d> / N`` for scores ``s_k = e * eta_k`` and Bartlett
    Toeplitz ``B_n[i, j] = max(0, 1 - |i - j| / (lags[n] + 1))``, applied as mode products (skipped at
    lag 0) in ``O(cells * sum_n N_n)`` whatever the lags.  Each ``B_n`` is PSD (its symbol is the Fejér
    kernel; Newey & West 1987), so the symmetrization and eigenvalue clip only remove rounding.
    """
    resid = as_tensor(resid, name="residual")
    etas = regressor_list(eta, resid.shape, "eta")
    lags = tuple(int(l) for l in lags)
    if len(lags) != resid.ndim:
        raise RankError(f"{len(lags)} lags given for an order-{resid.ndim} tensor")
    for l, n in zip(lags, resid.shape):
        if l < 0 or l >= n:
            raise RankError(f"lag {l} out of range [0, {n - 1}]")

    omega_inv = _omega_inv(etas)
    n_cells = resid.size
    scores = [e * resid for e in etas]
    tapered = scores
    for dim, (l, n) in enumerate(zip(lags, resid.shape), start=1):
        if l:
            tapered = [_mode_product(t, _bartlett(n, l), dim) for t in tapered]
    meat = np.array([[np.vdot(sa, tb) for tb in tapered] for sa in scores]) / n_cells
    meat = 0.5 * (meat + meat.T)
    eigvals, eigvecs = np.linalg.eigh(meat)
    if eigvals[0] < 0.0:
        meat = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    return omega_inv @ meat @ omega_inv / n_cells


def var_heteroskedastic(eta, resid) -> np.ndarray:
    """Heteroskedasticity-robust sandwich (independent, non-identical errors).

    Identical to :func:`var_hac` with every lag set to zero.
    """
    return var_hac(eta, resid, lags=(0,) * np.ndim(resid))


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass
class EstimateReport:
    """Slope estimates with standard errors and symmetric normal intervals."""

    method: str
    beta: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    level: float
    variance_model: str
    vcov: np.ndarray
    n_cells: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready payload (interval keys spelled ``ci_low`` / ``ci_high``)."""
        out = {
            "method": self.method,
            "beta": self.beta.tolist(),
            "se": self.se.tolist(),
            "ci_low": self.ci_lower.tolist(),
            "ci_high": self.ci_upper.tolist(),
            "level": self.level,
            "variance_model": self.variance_model,
            "vcov": self.vcov.tolist(),
            "n_cells": self.n_cells,
            "diagnostics": self.diagnostics,
        }
        return out


def normal_quantile(level: float) -> float:
    """Two-sided normal critical value for a confidence level in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def build_report(
    method: str,
    beta,
    vcov,
    n_cells: int,
    *,
    level: float = 0.95,
    variance_model: str = "hac",
    diagnostics: dict | None = None,
) -> EstimateReport:
    """Assemble a report: normal intervals around the point estimates; a non-finite ``vcov`` raises."""
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    vcov = np.asarray(vcov, dtype=np.float64)
    if vcov.shape != (beta.size, beta.size):
        raise TensorShapeError(f"vcov shape {vcov.shape} does not match {beta.size} coefficient(s)")
    if not np.all(np.isfinite(vcov)):
        raise EstimationError("the variance estimate is non-finite")
    se = np.sqrt(np.clip(np.diag(vcov), 0.0, None))
    z = normal_quantile(level)
    return EstimateReport(
        method=method,
        beta=beta,
        se=se,
        ci_lower=beta - z * se,
        ci_upper=beta + z * se,
        level=level,
        variance_model=variance_model,
        vcov=vcov,
        n_cells=int(n_cells),
        diagnostics=diagnostics or {},
    )


# --------------------------------------------------------------------------
# Cross-fitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossfitPlan:
    """Two-fold split along one dimension, deterministic in the seed."""

    dim: int
    fold_a: tuple[int, ...]
    fold_b: tuple[int, ...]
    seed: int

    @property
    def folds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.fold_a, self.fold_b)


def crossfit_split(shape, dim: int, seed: int = 0) -> CrossfitPlan:
    """Halve one dimension's index set into two random folds.

    The permutation is drawn from ``SeedSequence([seed])``; indices inside
    each fold are sorted so sub-tensors keep their original ordering.
    """
    shape = tuple(int(s) for s in shape)
    dim = check_dim(dim, len(shape))
    n = shape[dim - 1]
    if n < 2:
        raise RankError(f"cannot split dimension {dim} of size {n}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    perm = rng.permutation(n)
    half = (n + 1) // 2
    fold_a = tuple(int(i) for i in np.sort(perm[:half]))
    fold_b = tuple(int(i) for i in np.sort(perm[half:]))
    return CrossfitPlan(dim=dim, fold_a=fold_a, fold_b=fold_b, seed=int(seed))


def pooled_ols(y, x) -> np.ndarray:
    """Plain pooled OLS slope on vectorized tensors (no transform)."""
    y_arr = as_tensor(y, name="outcome")
    return solve_gram(*cross_moments(regressor_list(x, y_arr.shape), y_arr))


def corrected_estimate_split(
    y,
    x,
    ranks,
    plan: CrossfitPlan,
    prelim: Callable[[np.ndarray, list[np.ndarray]], Sequence[float]] = pooled_ols,
) -> CorrectedFit:
    """Cross-fitted corrected estimate.

    For each fold along the split dimension, the preliminary slope and the
    :func:`~tensorfe.tensor_ops.mode_bases` of every regressor and of the
    preliminary residual are fitted on the complement fold over the non-split
    dimensions, then :func:`~tensorfe.tensor_ops.project` applies them to this
    fold; the split dimension itself is never projected, so its rank is
    ignored.  This is :func:`orthogonalize` with the bases fitted out of fold:
    full-rank modes are the identity (all of them full rank leaves nothing of
    the regressors and raises :class:`EstimationError`), and a rank above a
    fold flattening's width keeps all its vectors.  Fold-level cleaned moments
    are pooled into one slope.  The two folds' cleaned regressors and effects
    are concatenated along the split dimension and put back in original index
    order with one take, so the residual and cleaned regressors have full
    shape and autocorrelation-aware variance estimators stay meaningful; the
    plan's folds must partition the split dimension.
    """
    y_arr = as_tensor(y, name="outcome", min_order=2)
    xs = regressor_list(x, y_arr.shape)
    split_dim = check_dim(plan.dim, y_arr.ndim)
    project_dims = [d for d in range(1, y_arr.ndim + 1) if d != split_dim]
    axis = split_dim - 1
    index = np.concatenate(plan.folds)
    if not np.array_equal(np.sort(index), np.arange(y_arr.shape[axis])):
        raise RankError(f"the plan's folds do not partition the {y_arr.shape[axis]} units of dimension {split_dim}")
    # Each fold is the apply fold of one pass and the fit fold of the other.
    folds = [(np.take(y_arr, idx, axis), [np.take(xk, idx, axis) for xk in xs]) for idx in plan.folds]
    gram_a, rhs_a, bt_a, pieces_a = _cross_fit_pass(folds[0], folds[1], ranks, project_dims, prelim)
    gram_b, rhs_b, bt_b, pieces_b = _cross_fit_pass(folds[1], folds[0], ranks, project_dims, prelim)
    del folds  # freed before the full-shape tensors are built, so the peak stays in the passes

    # Concatenated along the split dimension, the two passes' pieces go back to index order in one take.
    order = np.argsort(index)
    effects, *eta = [np.take(np.concatenate(parts, axis), order, axis) for parts in zip(pieces_a, pieces_b)]
    gram = gram_a + gram_b
    beta = solve_gram(gram, rhs_a + rhs_b, "cross-fitted cleaned regressors")
    return CorrectedFit(
        beta=beta,
        omega=gram / y_arr.size,
        residual=net_of(y_arr, xs, beta) - effects,
        eta=eta,
        beta_tilde=np.mean([bt_a, bt_b], axis=0),
        split=plan,
        fold_beta_tilde=[bt_a, bt_b],
    )


def _cross_fit_pass(apply, fit, ranks, project_dims, prelim):
    # One pass: the preliminary slope and the bases are fitted on the ``fit`` fold and clean the ``apply`` fold.
    # Returns the pass's normal equations, its preliminary slope, and its effects and cleaned regressors.
    (sub_y, sub_x), (fit_y, fit_x) = apply, fit
    bt = np.atleast_1d(np.asarray(prelim(fit_y, fit_x), dtype=np.float64))
    if bt.shape != (len(sub_x),) or not np.all(np.isfinite(bt)):
        raise EstimationError(f"preliminary estimator returned {bt}, expected {len(sub_x)} finite slope(s)")
    gamma_x = [_project(xk, _mode_bases(fk, ranks, project_dims)) for xk, fk in zip(sub_x, fit_x)]
    effects = _project(net_of(sub_y, sub_x, bt), _mode_bases(net_of(fit_y, fit_x, bt), ranks, project_dims))
    orth = _assemble(sub_x, bt, ranks, gamma_x, effects)
    return (*cross_moments(orth.eta, sub_y - orth.gamma_y), bt, [effects, *orth.eta])
