"""Least-squares interactive fixed-effects estimation on a flattened tensor.

The estimator minimizes the profile objective ``f(beta)``, the residual mass
left after removing the best rank-``r`` approximation of the mode-``n``
flattening of the data net of the regression part (Bai 2009, Econometrica
77(4)).  The loop never touches the ``N_n x M`` flattenings.  With ``A`` and
``B_k`` the flattened outcome and regressors, the residual's row Gram matrix
``S(beta)`` is a quadratic form in the ``N_n x N_n`` blocks ``A A'``,
``A B_k'`` and ``B_k B_l'`` (``k <= l``), formed and symmetrized once, and
``f(beta) = tr S(beta) - sum_{i <= r} lambda_i(S(beta))``.  When ``N_n > M``
the flattenings are transposed first, so the blocks are ``min(N_n, M)``
square; the nonzero eigenvalues, hence ``f`` and the steps, are the same on
either side (Bai 2009, section 3).  Everything an
iteration needs besides one ``eigh`` of ``S`` is a product of those blocks
with its eigenvectors.  The reported loadings, factors, and residual come
from one thin SVD of the last iterate's residual projected on the top
eigenvectors of that iterate's ``S``, which the loop has already computed.

The plain alternating step ``beta -> G(beta)`` (top-``r`` subspace, then
pooled OLS net of it) descends ``f`` but converges linearly, often slowly.
Because ``gram (G(beta) - beta)`` is minus half the gradient of ``f``, the
Newton step on ``f`` is ``beta + H^{-1} gram (G(beta) - beta)``, where
``2H`` is the exact Hessian that eigenvalue perturbation gives from the
eigenpairs of ``S(beta)`` (Moon & Weidner 2015, Econometrica 83(4), expand
the same objective).  Two safeguards guard the Newton point: it is tried
only where ``H`` is positive definite and every kept/discarded eigenvalue
gap is positive, so that ``f`` is smooth and locally convex there, and it is
taken only when its profile objective is no larger than the current
iterate's; otherwise the iteration takes the plain step.  The fit stops
once a plain step moves the slopes by at most ``tol`` (relative); on that
iteration a Newton point is kept only within ``tol`` of the plain step, so
``tol`` bounds the last plain step either way, not the distance to the
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, RankError
from .tensor_ops import (
    _complete_svd,
    _flatten,
    _truncated_svd,
    _unflatten,
    as_tensor,
    check_dim,
    cross_moments,
    net_of,
    per_dim,
    regressor_list,
    solve_gram,
)


@dataclass
class FactorFit:
    """Result of the least-squares interactive-effects fit.

    ``loadings`` (rows of the flattening) carry the singular-value scale;
    ``factors`` (columns) are orthonormal, so the estimated low-rank component
    is ``loadings @ factors.T`` in the flattened geometry.  ``residual`` is the
    full-shape tensor left after removing both the regression part and the
    low-rank part.  ``objective`` is the sum of squared discarded singular
    values of the defactored residual — the quantity the fit descends.
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
        return _unflatten(self.loadings @ self.factors.T, self.flatten_dim, self.residual.shape)


def _half_hessian(gram, q_bb, wq, eigvals, eigvecs) -> np.ndarray | None:
    """Half the Hessian of the profile objective, or None without a spectral gap.

    ``eigvals, eigvecs = eigh(S)`` for the residual's row Gram matrix ``S``
    at ``beta``; ``Q`` and ``V`` are its top ``r = wq.shape[2]`` and
    remaining eigenvectors.  ``wq[k] = W_k Q`` with ``W_k`` the symmetric part
    of ``R B_k'``, so that ``dS/dbeta_k = -2 W_k``, and ``q_bb[k, l] =
    <Q'B_k, Q'B_l>``.  Second-order eigenvalue perturbation of ``f = tr S -
    sum_{i <= r} lambda_i`` gives ``f'' = 2 H`` with

        H[k, l] = gram[k, l] - q_bb[k, l]
                  - sum_{i <= r < j} T_k[i, j] T_l[i, j] / (lambda_i - lambda_j),

    ``T_k = Q' (dS/dbeta_k) V``; the pairs inside the top block cancel.  The
    expansion holds only while every kept eigenvalue exceeds every discarded
    one.
    """
    r = wq.shape[2]
    gaps = eigvals[-r:, None] - eigvals[:-r]
    if not np.all(gaps > 0.0):
        return None
    t = np.swapaxes(wq, 1, 2) @ eigvecs[:, :-r]  # Q' W_k V = -T_k / 2
    return gram - q_bb - 4.0 * np.einsum("kij,lij->kl", t / gaps, t)


def fit_factor_model(
    y,
    x,
    flatten_dim: int = 1,
    n_factors: int = 1,
    *,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> FactorFit:
    """Least squares for slopes plus a low-rank component, by safeguarded Newton steps.

    Each iteration first forms the plain ALS step ``G(beta)``: the top
    ``n_factors`` eigenvectors ``Q`` of the residual's row Gram matrix at
    ``beta``, then pooled OLS of the data net of that low-rank component.
    The OLS step needs only ``<Q'B_k, Q'R> = <Q, W_k Q>`` with
    ``R = A - sum_l beta_l B_l`` and ``W_k`` the symmetric part of
    ``R B_k'``, so it runs on the ``1 + K + K(K+1)/2`` precomputed Gram
    blocks.

    The iteration then tries the Newton point ``beta + H^{-1} gram (G(beta)
    - beta)`` on the profile objective (the discarded eigenvalue mass), with
    ``2H`` its exact Hessian read off the same eigendecomposition.  It takes
    that point when ``H`` is positive definite, every kept eigenvalue exceeds
    every discarded one, and its profile objective is no larger than the
    current iterate's; otherwise it takes ``G(beta)``.  Either way the
    objective never increases.  A taken Newton point costs one ``eigh``, a
    refused one two.

    The fit starts from pooled OLS and returns the limit it reaches from
    there, which is a local minimizer of the profile objective; on small
    panels it need not be the global one.  On a growing-design 20 x 15 x 25
    draw (seed 3) flattened on dimension 1, the fit from pooled OLS (1.1418)
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
        The fit stops once a plain ALS step ``G(beta)`` moves the slope
        vector by at most ``tol * max(||beta||, 1)`` (Euclidean norm).  The
        last iterate is then ``G(beta)``, or the Newton point from the same
        ``beta`` when that passes both safeguards and lies within the same
        distance of ``G(beta)``; so ``tol`` bounds the last plain step, not
        the distance to the limit.
    max_iter : int
        Cap on the number of iterations; hitting it marks the fit as
        non-converged.

    Returns
    -------
    FactorFit
        The slope vector of the last iterate, with the matching loadings,
        factors, and residual.  ``objective_trace`` holds the profile
        objective of every iterate, starting from pooled OLS, so it never
        increases beyond rounding; the last iterate is returned rather than
        the lowest entry, because near the limit the entries differ by
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
    a = _flatten(y_arr, flatten_dim)
    bs = [_flatten(xk, flatten_dim) for xk in xs]
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
            residual=_unflatten(resid_mat, flatten_dim, y_arr.shape),
            flatten_dim=flatten_dim,
            n_factors=0,
            iterations=0,
            converged=True,
            objective=objective,
            objective_trace=[objective],
        )

    # A tall flattening (N_n > M) is fitted on its transposes: M x M blocks.
    tall = n_rows > a.shape[1]
    if tall:
        a, bs = a.T, [b.T for b in bs]
        n_rows = a.shape[0]

    # Row-Gram blocks A A', A B_k' and B_k B_l' (k <= l), each symmetrized
    # once: a quadratic form sees only a block's symmetric part, and the
    # residual row Gram matrix, the OLS step's projected inner products and
    # the Hessian's terms are all such forms in them.
    pairs = [(k, l) for k in range(n_reg) for l in range(k, n_reg)]
    pair_index = np.empty((n_reg, n_reg), dtype=int)  # position of B_k B_l' in blocks[1:]
    blocks = np.empty((1 + n_reg + len(pairs), n_rows, n_rows))
    blocks[0] = a @ a.T
    for k, bk in enumerate(bs):
        blocks[1 + k] = a @ bk.T
    for j, (k, l) in enumerate(pairs):
        blocks[1 + n_reg + j] = bs[k] @ bs[l].T
        pair_index[k, l] = pair_index[l, k] = n_reg + j
    for block in blocks:
        block += block.T
        block *= 0.5
    flat_blocks = blocks.reshape(len(blocks), -1)

    def profile(b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        # Profile objective (the discarded eigenvalue mass) and the full
        # eigendecomposition of (A - sum b_k B_k)(A - sum b_k B_k)'.
        cross = [(2.0 if k < l else 1.0) * b[k] * b[l] for k, l in pairs]
        s = (np.concatenate(([1.0], -2.0 * b, cross)) @ flat_blocks).reshape(n_rows, n_rows)
        eigvals, eigvecs = np.linalg.eigh(s)
        return max(float(np.trace(s) - np.sum(eigvals[-n_factors:])), 0.0), eigvals, eigvecs

    def within_tol(new: np.ndarray, old: np.ndarray) -> bool:
        return np.linalg.norm(new - old) <= tol * max(np.linalg.norm(old), 1.0)

    objective, eigvals, eigvecs = profile(beta)
    trace = [objective]
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        basis = eigvecs[:, -n_factors:]
        block_q = blocks[1:] @ basis
        pair_q = block_q[pair_index]  # sym(B_k B_l') Q
        wq = block_q[:n_reg] - np.einsum("l,klir->kir", beta, pair_q)  # W_k Q
        q_bb = np.einsum("klir,ir->kl", pair_q, basis)
        # The Gram matrix is constant and passed the policy in the first solve.
        step = np.linalg.solve(gram, rhs - np.einsum("kir,ir->k", wq, basis))
        converged = within_tol(step, beta)
        # The Newton point is tried only where f is smooth and locally convex.
        # On the stopping iteration it may only refine the tested step within
        # tol, so tol still bounds the returned slopes.
        hessian = _half_hessian(gram, q_bb, wq, eigvals, eigvecs)
        accepted = False
        if hessian is not None and np.linalg.eigvalsh(hessian)[0] > 0.0:
            candidate = beta + np.linalg.solve(hessian, gram @ (step - beta))
            if not converged or within_tol(candidate, step):
                cand_objective, cand_vals, cand_vecs = profile(candidate)
                accepted = cand_objective <= objective
        if accepted:
            beta, objective, eigvals, eigvecs = candidate, cand_objective, cand_vals, cand_vecs
        else:
            beta = step
            objective, eigvals, eigvecs = profile(step)
        trace.append(objective)
        if converged:
            break

    # The last profile's eigenpairs belong to the returned beta, so one thin
    # SVD of Q'R completes them: the reported loadings, factors and residual
    # come from the residual itself, at no further Gram product or eigh.
    resid_mat = net_of(a, bs, beta)
    svd = _complete_svd(resid_mat, n_factors, eigvals, eigvecs)
    defactored = resid_mat - (svd.u * svd.s) @ svd.v.T
    rows, cols = (svd.v, svd.u) if tall else (svd.u, svd.v)
    return FactorFit(
        beta=beta,
        loadings=rows * svd.s,
        factors=cols,
        residual=_unflatten(defactored.T if tall else defactored, flatten_dim, y_arr.shape),
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
    ``B_f`` is the fit's factor matrix itself, orthonormal by :class:`FactorFit`'s
    contract; ``B_l`` comes from a thin SVD of the ``N_n x r`` loadings, whose
    columns need not be orthogonal and may be rank-deficient.
    """
    xs = regressor_list(x, fit.residual.shape)
    svd = _truncated_svd(fit.loadings, fit.loadings.shape[1])
    b_load = svd.u[:, svd.s > 0.0]  # the SVD already zeroed the negligible directions
    b_fact = fit.factors
    out = []
    for xk in xs:
        mat = _flatten(xk, fit.flatten_dim)
        mat = mat - b_load @ (b_load.T @ mat)
        mat = mat - (mat @ b_fact) @ b_fact.T
        out.append(_unflatten(mat, fit.flatten_dim, fit.residual.shape))
    return out


def residual_proxies(residual, ranks) -> dict[int, np.ndarray]:
    """Extract standardized loading proxies from a preliminary residual.

    Returns the ``N_n x r_n`` proxy matrix of every dimension ``n``, keyed by
    ``n`` (1-indexed): the leading left singular vectors of the mode-``n``
    flattening of the residual, scaled by their singular values and then
    column-standardized to unit sample variance.

    Parameters
    ----------
    residual : array_like
        Outcome net of the preliminary regression part (the low-rank signal
        should dominate it).
    ranks : int or sequence of int
        Proxy columns per dimension, or one count for all of them
        (:func:`~tensorfe.tensor_ops.per_dim`).
    """
    arr = as_tensor(residual, name="residual", min_order=2)
    columns: dict[int, np.ndarray] = {}
    for d, r in enumerate(per_dim(ranks, arr.ndim, "proxy ranks"), start=1):
        mat = _flatten(arr, d)
        max_rank = min(mat.shape)
        r = int(r)
        if not 1 <= r <= max_rank:
            raise RankError(f"proxy rank {r} out of range [1, {max_rank}] for dimension {d}")
        if mat.shape[0] < 2:
            raise EstimationError(f"dimension {d} has fewer than 2 units; cannot standardize")
        svd = _truncated_svd(mat, r)
        cols = svd.u * svd.s
        sd = cols.std(axis=0, ddof=1)
        if np.any(sd <= 0.0) or not np.all(np.isfinite(sd)):
            raise EstimationError(
                f"degenerate proxies in dimension {d}: zero-variance singular direction "
                "(is the preliminary residual exactly low-rank or zero?)"
            )
        columns[d] = cols / sd
    return columns

