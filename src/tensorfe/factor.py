"""Least-squares interactive fixed-effects estimation on a flattened tensor.

The estimator alternates two exact minimization steps on the mode-``n``
flattening of the data (Bai 2009, Econometrica 77(4)): a pooled-OLS update
of the slope coefficients given the current low-rank component, and a
truncated-SVD update of the low-rank component given the slopes.  The loop
never touches the ``N_n x M`` flattenings.  With ``A`` and ``B_k`` the
flattened outcome and regressors, the residual's row Gram matrix at ``beta``
and the OLS step's projected inner products are both quadratic forms in the
``N_n x N_n`` blocks ``A A'``, ``A B_k'`` and ``B_k B_l'`` (``k <= l``),
formed and symmetrized once; an iteration costs one ``eigh`` of a
combination of them plus their ``r x r`` compressions.  The reported
loadings, factors, and residual come from one genuine thin SVD at the last
iterate.

The alternation is a fixed-point map ``beta -> G(beta)`` that converges
linearly, often slowly.  Anderson extrapolation (Walker & Ni 2011, SIAM J.
Numer. Anal. 49(4)) over the last few iterates shortens it, under two
safeguards that keep the fit on ALS's own limit: extrapolation starts only
once the plain steps shrink at a steady ratio, and an extrapolated point is
accepted only when its profile objective is no worse than that of the plain
step from the same iterate.  Without the first, a secant step taken while
ALS is still moving away from an unstable fixed point can jump across it
into another basin of the objective.  An accepted jump itself breaks the
steady ratio, so after one a candidate is tried on every iteration until
one fails the objective test; that clears the history and re-arms the first
safeguard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, RankError
from .tensor_ops import (
    as_tensor,
    check_dim,
    cross_moments,
    flatten,
    net_of,
    regressor_list,
    solve_gram,
    truncated_svd,
    unflatten,
)


@dataclass
class FactorFit:
    """Result of the alternating least-squares interactive-effects fit.

    ``loadings`` (rows of the flattening) carry the singular-value scale;
    ``factors`` (columns) are orthonormal, so the estimated low-rank component
    is ``loadings @ factors.T`` in the flattened geometry.  ``residual`` is the
    full-shape tensor left after removing both the regression part and the
    low-rank part.  ``objective`` is the sum of squared discarded singular
    values of the defactored residual — the quantity the alternation descends.
    """

    beta: np.ndarray
    loadings: np.ndarray
    factors: np.ndarray
    residual: np.ndarray
    flatten_dim: int
    n_factors: int
    iterations: int
    converged: bool
    objective: float
    objective_trace: list[float] = field(default_factory=list)

    @property
    def low_rank(self) -> np.ndarray:
        """The estimated interactive-effect component, in tensor shape."""
        mat = self.loadings @ self.factors.T
        return unflatten(mat, self.flatten_dim, self.residual.shape)


ANDERSON_MEMORY = 3
SETTLED_RATIO_RTOL = 0.05


def _settled(history) -> bool:
    """Whether the last three plain steps shrink at one steady ratio.

    Extrapolation only pays off, and only stays in ALS's own basin, once the
    alternation contracts geometrically; steps that grow or change rate mean
    the iterate is still moving between regions of the profile objective.
    """
    if len(history) < 3:
        return False
    l0, l1, l2 = (np.linalg.norm(g - b) for b, g in history[-3:])
    if not l0 > l1 > l2 > 0.0:
        return False
    r1, r2 = l1 / l0, l2 / l1
    return abs(r2 - r1) <= SETTLED_RATIO_RTOL * r1


def _anderson(history) -> np.ndarray:
    """Anderson-extrapolated iterate from ``(beta, G(beta))`` pairs (Walker & Ni 2011).

    With residuals ``f_i = G(beta_i) - beta_i``, the mixing weights solve
    ``min ||f_m - dF gamma||`` over the residual differences ``dF``, and the
    new iterate is ``G(beta_m) - dG gamma``.
    """
    betas = np.array([b for b, _ in history])
    steps = np.array([g for _, g in history])
    resid = steps - betas
    gamma = np.linalg.lstsq(np.diff(resid, axis=0).T, resid[-1], rcond=None)[0]
    return steps[-1] - np.diff(steps, axis=0).T @ gamma


def fit_factor_model(
    y,
    x,
    flatten_dim: int = 1,
    n_factors: int = 1,
    *,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> FactorFit:
    """Alternating least squares for slopes plus a low-rank component.

    Each iteration takes the plain ALS step ``G(beta)``: the top
    ``n_factors`` eigenvectors ``Q`` of the residual's row Gram matrix at
    ``beta``, then pooled OLS of the data net of that low-rank component.
    The OLS step needs only ``<Q'B_k, Q'R> = <Q, W_k Q>`` with
    ``R = A - sum_l beta_l B_l`` and ``W_k`` the symmetric part of
    ``A B_k' - sum_l beta_l B_l B_k'``, so both halves of the step run on
    the ``1 + K + K(K+1)/2`` precomputed Gram blocks.

    Once the last three plain steps shrink with ratios that agree within 5%,
    an Anderson step of memory 3 extrapolates from the recent ``(beta,
    G(beta))`` pairs; it replaces ``G(beta)`` only if its profile objective
    (the discarded eigenvalue mass) is no larger.  After an accepted
    candidate one is tried on every following iteration, the stopping one
    included; a rejected candidate clears the history, so the steady-ratio
    test must pass again before the next.  Every accepted iterate therefore
    lowers the objective, as a plain ALS step does, and the last iterate is
    the one returned.

    The fit starts from pooled OLS and returns the limit ALS reaches from
    there, which is a local minimizer of the profile objective; on small
    panels it need not be the global one.  On a growing-design 20 x 15 x 25
    draw (seed 3) flattened on dimension 1, ALS from pooled OLS (1.1418)
    converges to 1.0529 with objective 25235.12, while the global minimum
    lies at 1.3985 (objective 24921.07) beyond a barrier near 1.175; the true
    slope is 1.0.

    Parameters
    ----------
    y : array_like
        Outcome tensor, order >= 2.
    x : array_like or sequence of array_like
        Regressor tensor(s), each shaped like ``y``.
    flatten_dim : int
        1-indexed mode whose flattening carries the low-rank component.
    n_factors : int
        Number of factors kept in the SVD step.  Zero reduces the fit to
        pooled OLS.
    tol : float
        The fit stops once a plain ALS step moves the slope vector by at
        most ``tol * max(||beta||, 1)`` (Euclidean norm); that step's result
        is the last iterate, or the extrapolation from it when one is tried,
        accepted, and within the same distance of that result.
    max_iter : int
        Cap on the number of plain ALS steps; hitting it marks the fit as
        non-converged.

    Returns
    -------
    FactorFit
        The slope vector of the last iterate, with the matching loadings,
        factors, and residual.  ``objective_trace`` holds the profile
        objective of every accepted iterate, starting from pooled OLS, so it
        never increases beyond rounding; the last iterate is returned rather
        than the lowest entry, because near the limit the entries differ by
        rounding alone and an earlier iterate is farther from the fixed
        point.

    Raises
    ------
    EstimationError
        When the regressors' Gram matrix fails the conditioning policy of
        :func:`~tensorfe.tensor_ops.solve_gram`.
    """
    y_arr = as_tensor(y, name="outcome", min_order=2)
    xs = regressor_list(x, y_arr.shape)
    flatten_dim = check_dim(flatten_dim, y_arr.ndim)
    a = flatten(y_arr, flatten_dim)
    bs = [flatten(xk, flatten_dim) for xk in xs]
    n_rows = a.shape[0]
    max_rank = min(a.shape)
    if not 0 <= n_factors <= max_rank:
        raise RankError(f"n_factors {n_factors} out of range [0, {max_rank}]")

    n_reg = len(bs)
    gram, rhs = cross_moments(bs, a)
    beta = solve_gram(gram, rhs)

    if n_factors == 0:
        resid_mat = net_of(a, bs, beta)
        objective = float(np.vdot(resid_mat, resid_mat))
        return FactorFit(
            beta=beta,
            loadings=np.zeros((n_rows, 0)),
            factors=np.zeros((a.shape[1], 0)),
            residual=unflatten(resid_mat, flatten_dim, y_arr.shape),
            flatten_dim=flatten_dim,
            n_factors=0,
            iterations=0,
            converged=True,
            objective=objective,
            objective_trace=[objective],
        )

    # Row-Gram blocks A A', A B_k' and B_k B_l' (k <= l), each symmetrized
    # once: a quadratic form sees only a block's symmetric part, and both the
    # residual row Gram matrix and the OLS step's projected inner products are
    # such forms in them.
    pairs = [(k, l) for k in range(n_reg) for l in range(k, n_reg)]
    blocks = np.empty((1 + n_reg + len(pairs), n_rows, n_rows))
    blocks[0] = a @ a.T
    for k, bk in enumerate(bs):
        blocks[1 + k] = a @ bk.T
    for j, (k, l) in enumerate(pairs):
        blocks[1 + n_reg + j] = bs[k] @ bs[l].T
    for block in blocks:
        block += block.T
        block *= 0.5
    flat_blocks = blocks.reshape(len(blocks), -1)

    def residual_row_gram(b: np.ndarray) -> np.ndarray:
        # (A - sum b_k B_k)(A - sum b_k B_k)' as one combination of the blocks.
        cross = [(2.0 if k < l else 1.0) * b[k] * b[l] for k, l in pairs]
        return (np.concatenate(([1.0], -2.0 * b, cross)) @ flat_blocks).reshape(n_rows, n_rows)

    def profile(b: np.ndarray) -> tuple[float, np.ndarray]:
        # Profile objective (the discarded eigenvalue mass) and the top basis.
        s = residual_row_gram(b)
        eigvals, eigvecs = np.linalg.eigh(s)
        return max(float(np.trace(s) - np.sum(eigvals[-n_factors:])), 0.0), eigvecs[:, -n_factors:]

    def als_step(b: np.ndarray, basis: np.ndarray) -> np.ndarray:
        # Pooled OLS against the data net of the current low-rank component;
        # <Q'B_k, Q'R> = <Q, W_k Q> is read off the blocks' compressions.
        quad = np.einsum("jik,ik->j", blocks[1:] @ basis, basis)
        q_bb = np.empty((n_reg, n_reg))
        for j, (k, l) in enumerate(pairs):
            q_bb[k, l] = q_bb[l, k] = quad[n_reg + j]
        low_rank_part = quad[:n_reg] - q_bb @ b
        # The Gram matrix is constant and passed the policy in the first solve.
        return np.linalg.solve(gram, rhs - low_rank_part)

    def within_tol(new: np.ndarray, old: np.ndarray) -> bool:
        return np.linalg.norm(new - old) <= tol * max(np.linalg.norm(old), 1.0)

    objective, basis = profile(beta)
    trace = [objective]
    history: list[tuple[np.ndarray, np.ndarray]] = []  # accepted (beta, G(beta)) pairs
    extrapolating = False  # the last candidate passed the objective safeguard
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        step = als_step(beta, basis)
        converged = within_tol(step, beta)
        history = history[-ANDERSON_MEMORY:] + [(beta, step)]
        beta = step
        objective, basis = profile(step)
        # An accepted jump breaks the steady ratio _settled looks for, so once
        # one is accepted the next candidates skip that gate, the stopping
        # iteration's too; a rejection clears the history and re-arms it.  On
        # the stopping iteration the candidate may only refine the tested step
        # within tol, so tol still bounds the returned slopes.
        if extrapolating or (not converged and _settled(history)):
            candidate = _anderson(history)
            cand_objective, cand_basis = profile(candidate)
            extrapolating = cand_objective <= objective and (not converged or within_tol(candidate, step))
            if extrapolating:
                beta, objective, basis = candidate, cand_objective, cand_basis
            else:
                history = []
        trace.append(objective)
        if converged:
            break

    # One honest thin SVD at the last iterate: the Gram eigenbasis is only a
    # device for the loop, reported quantities come from the residual itself.
    resid_mat = net_of(a, bs, beta)
    svd = truncated_svd(resid_mat, n_factors)
    loadings = svd.u * svd.s
    factors = svd.v
    defactored = resid_mat - loadings @ factors.T
    return FactorFit(
        beta=beta,
        loadings=loadings,
        factors=factors,
        residual=unflatten(defactored, flatten_dim, y_arr.shape),
        flatten_dim=flatten_dim,
        n_factors=n_factors,
        iterations=iterations,
        converged=converged,
        objective=svd.residual_norm_sq,
        objective_trace=trace,
    )


def defactored_regressors(fit: FactorFit, x) -> list[np.ndarray]:
    """Project regressors off the fitted loading and factor spaces.

    Returns the regressor tensors with both the estimated loading span (rows)
    and factor span (columns) of the flattening swept out — the quantities
    whose Gram matrix scales the factor estimator's sampling variance.
    Thin products with orthonormal span bases, ``X - B_l (B_l' X)`` then ``X - (X B_f) B_f'``,
    need ``O(cells * r)`` time and ``O(cells)`` memory: no ``M x M`` annihilator is formed.
    """
    xs = regressor_list(x, fit.residual.shape)

    def span_basis(mat: np.ndarray) -> np.ndarray:
        svd = truncated_svd(mat, mat.shape[1])
        return svd.u[:, svd.s > 0.0]  # the SVD already zeroed the negligible directions

    b_load = span_basis(fit.loadings)
    b_fact = span_basis(fit.factors)
    out = []
    for xk in xs:
        mat = flatten(xk, fit.flatten_dim)
        mat = mat - b_load @ (b_load.T @ mat)
        mat = mat - (mat @ b_fact) @ b_fact.T
        out.append(unflatten(mat, fit.flatten_dim, fit.residual.shape))
    return out


@dataclass
class ProxySet:
    """Per-dimension proxy columns for the latent loadings.

    ``columns[n]`` holds the ``N_n x r_n`` proxy matrix for dimension ``n``
    (1-indexed): leading left singular vectors of the mode-``n`` flattening of
    a preliminary residual, scaled by their singular values and then column-
    standardized to unit sample variance.  ``source`` records where the
    residual came from.
    """

    columns: dict[int, np.ndarray]
    source: str = "residual-svd"

    def for_dim(self, dim: int) -> np.ndarray:
        if dim not in self.columns:
            raise RankError(f"no proxies extracted for dimension {dim}")
        return self.columns[dim]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(self.columns))


def residual_proxies(residual, ranks, dims=None, *, source: str = "residual-svd") -> ProxySet:
    """Extract standardized loading proxies from a preliminary residual.

    Parameters
    ----------
    residual : array_like
        Outcome net of the preliminary regression part (the low-rank signal
        should dominate it).
    ranks : int or sequence of int
        Proxy columns per dimension; a scalar applies to every dimension.
    dims : sequence of int, optional
        1-indexed dimensions to extract for (default: all).
    """
    arr = as_tensor(residual, name="residual", min_order=2)
    order = arr.ndim
    dims = tuple(range(1, order + 1)) if dims is None else tuple(check_dim(d, order) for d in dims)
    if np.isscalar(ranks):
        rank_map = {d: int(ranks) for d in dims}
    else:
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != len(dims):
            raise RankError(f"{len(ranks)} ranks given for {len(dims)} dimensions")
        rank_map = dict(zip(dims, ranks))

    columns: dict[int, np.ndarray] = {}
    for d in dims:
        mat = flatten(arr, d)
        max_rank = min(mat.shape)
        r = rank_map[d]
        if not 1 <= r <= max_rank:
            raise RankError(f"proxy rank {r} out of range [1, {max_rank}] for dimension {d}")
        if mat.shape[0] < 2:
            raise EstimationError(f"dimension {d} has fewer than 2 units; cannot standardize")
        svd = truncated_svd(mat, r)
        cols = svd.u * svd.s
        sd = cols.std(axis=0, ddof=1)
        if np.any(sd <= 0.0) or not np.all(np.isfinite(sd)):
            raise EstimationError(
                f"degenerate proxies in dimension {d}: zero-variance singular direction "
                "(is the preliminary residual exactly low-rank or zero?)"
            )
        columns[d] = cols / sd
    return ProxySet(columns=columns, source=source)

