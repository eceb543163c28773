"""Correctness checks made apart from the program.

Each check recomputes a result with plain numpy, or tests a property the
method must have; none compares against a stored copy of earlier output.
Every check returns a list of failure messages, empty when it passes, so a
caller can run them all and report every failure at once.
"""

from __future__ import annotations

import numpy as np

# Slack for comparisons between two computations of the same quantity in
# float64 that take different routes through BLAS/LAPACK.
REL_TOL = 1e-8
# Relative slack on profile objectives (sums of squared singular values whose
# eigen- and SVD-based evaluations differ in rounding only).
OBJECTIVE_RTOL = 1e-10


def _close(a, b, rtol: float = REL_TOL) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def lstsq_slopes(y: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    """Pooled least squares without intercept on the vectorised panel."""
    z = np.column_stack([x.ravel() for x in xs])
    return np.linalg.lstsq(z, y.ravel(), rcond=None)[0]


def demean_all_axes(t: np.ndarray) -> np.ndarray:
    """Subtract the mean along every axis in turn (the multi-way within sweep)."""
    for axis in range(t.ndim):
        t = t - t.mean(axis=axis, keepdims=True)
    return t


def check_pooled(label: str, reported, y: np.ndarray, xs: list[np.ndarray], *, demean: bool) -> list[str]:
    """``ols`` / ``within`` slopes equal an independent ``lstsq``."""
    if demean:
        y, xs = demean_all_axes(y), [demean_all_axes(x) for x in xs]
    expected = lstsq_slopes(y, xs)
    if not _close(reported, expected):
        return [f"{label}: slope {list(reported)} != lstsq {expected.tolist()}"]
    return []


def mode_flatten(t: np.ndarray, dim: int) -> np.ndarray:
    """Rows indexed by dimension ``dim`` (1-based); column order is irrelevant here."""
    return np.moveaxis(t, dim - 1, 0).reshape(t.shape[dim - 1], -1)


def profile_objective(y: np.ndarray, xs: list[np.ndarray], beta, dim: int, n_factors: int) -> float:
    """Sum of squared singular values beyond ``n_factors`` of the residual's flattening."""
    resid = y - sum(b * x for b, x in zip(beta, xs))
    s = np.linalg.svd(mode_flatten(resid, dim), compute_uv=False)
    return float(np.sum(s[n_factors:] ** 2))


def check_factor_profile(
    label: str, reported, y: np.ndarray, xs: list[np.ndarray], dim: int, n_factors: int, step: float = 1e-3
) -> list[str]:
    """The reported slope minimises the profile objective against pooled OLS and nearby slopes."""
    beta = np.asarray(reported, dtype=np.float64)
    at_beta = profile_objective(y, xs, beta, dim, n_factors)
    slack = OBJECTIVE_RTOL * float(np.vdot(y, y))
    candidates = {"pooled OLS": lstsq_slopes(y, xs)}
    for k in range(beta.size):
        for sign in (1.0, -1.0):
            moved = beta.copy()
            moved[k] += sign * step * max(1.0, abs(beta[k]))
            candidates[f"beta[{k}]{'+' if sign > 0 else '-'}step"] = moved
    failures = []
    for name, cand in candidates.items():
        other = profile_objective(y, xs, cand, dim, n_factors)
        if at_beta > other + slack:
            failures.append(f"{label}: objective {at_beta:.12g} at reported slope exceeds {other:.12g} at {name}")
    return failures


def bartlett(n: int, lag: int) -> np.ndarray:
    """Toeplitz Bartlett matrix ``max(0, 1 - |i - j| / (lag + 1))``."""
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.clip(1.0 - dist / (lag + 1.0), 0.0, None)


def separable_hac(eta: list[np.ndarray], resid: np.ndarray, lags) -> np.ndarray:
    """HAC sandwich with ``meat[a,b] = <s_a, s_b x_1 B_1 ... x_d B_d> / N``."""
    n_cells = resid.size
    scores = [e * resid for e in eta]
    k = len(eta)
    meat = np.empty((k, k))
    for b in range(k):
        smoothed = scores[b]
        for axis, lag in enumerate(lags):
            smoothed = np.moveaxis(np.tensordot(bartlett(resid.shape[axis], lag), smoothed, axes=([1], [axis])), 0, axis)
        for a in range(k):
            meat[a, b] = float(np.vdot(scores[a], smoothed)) / n_cells
    meat = 0.5 * (meat + meat.T)
    vals, vecs = np.linalg.eigh(meat)
    meat = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    omega = np.array([[float(np.vdot(ea, eb)) / n_cells for eb in eta] for ea in eta])
    omega_inv = np.linalg.inv(omega)
    return omega_inv @ meat @ omega_inv / n_cells


def check_hac(captured) -> list[str]:
    """Recompute captured ``var_hac(eta, resid, lags)`` calls in the separable form."""
    if not captured:
        return ["hac: no var_hac call was captured"]
    failures = []
    for i, (args, kwargs, result) in enumerate(captured):
        bound = dict(zip(("eta", "resid", "lags"), args), **kwargs)
        eta = [bound["eta"]] if isinstance(bound["eta"], np.ndarray) else list(bound["eta"])
        expected = separable_hac(eta, np.asarray(bound["resid"]), tuple(int(l) for l in bound["lags"]))
        if not _close(result, expected):
            failures.append(f"hac call {i}: var_hac {np.asarray(result).tolist()} != separable {expected.tolist()}")
    return failures


def check_weights(captured) -> list[str]:
    """Captured kernel weight matrices are nonnegative and row-stochastic."""
    if not captured:
        return ["weights: no kernel_weights call was captured"]
    failures = []
    for i, (_, _, weight_set) in enumerate(captured):
        for dim, w in weight_set.weights.items():
            if not np.all(np.isfinite(w)) or np.min(w) < 0.0:
                failures.append(f"weights call {i} dim {dim}: negative or non-finite entry")
            if not np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
                failures.append(f"weights call {i} dim {dim}: rows do not sum to 1")
    return failures


def check_loaded_panel(frame, y, xs, expected_y, expected_xs, expected_labels) -> list[str]:
    """The CSV load reproduces the generated tensors bit for bit, labels in generation order."""
    failures = []
    if [list(labels) for labels in frame.dim_labels] != [list(labels) for labels in expected_labels]:
        failures.append("csv load: labels differ from generation order")
    if not np.array_equal(y, expected_y):
        failures.append("csv load: outcome tensor differs from the generated one")
    if len(xs) != len(expected_xs) or not all(np.array_equal(a, b) for a, b in zip(xs, expected_xs)):
        failures.append("csv load: regressor tensors differ from the generated ones")
    return failures


def check_standard_errors(label: str, se) -> list[str]:
    se = np.asarray(se, dtype=np.float64)
    if se.size == 0 or not np.all(np.isfinite(se)) or np.any(se <= 0.0):
        return [f"{label}: standard errors {se.tolist()} not finite and positive"]
    return []


def check_near_truth(label: str, beta, se, truth, max_se: float = 5.0) -> list[str]:
    """Each coefficient lies within ``max_se`` reported standard errors of the truth."""
    z = (np.asarray(beta) - np.asarray(truth)) / np.asarray(se)
    if not np.all(np.abs(z) <= max_se):
        return [f"{label}: coefficients {list(beta)} are {z.round(2).tolist()} standard errors from {list(truth)}"]
    return []


def check_band_brackets_zero(label: str, errors) -> list[str]:
    """The empirical 2.5%-97.5% band of the Monte-Carlo errors contains 0."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size < 2:
        return [f"{label}: need at least two rounds to form an error band"]
    lo, hi = np.quantile(errors, [0.025, 0.975])
    if not lo <= 0.0 <= hi:
        return [f"{label}: error band [{lo:+.5f}, {hi:+.5f}] excludes 0"]
    return []


def rmse(errors) -> float:
    errors = np.asarray(errors, dtype=np.float64)
    return float(np.sqrt(np.mean(errors**2)))


def check_rmse_below(label: str, errors, others: dict) -> list[str]:
    """``label``'s RMSE is below every other estimator's (the paper's ordering)."""
    mine = rmse(errors)
    return [
        f"{label}: RMSE {mine:.5f} not below {name}'s {rmse(errs):.5f}"
        for name, errs in others.items()
        if not mine < rmse(errs)
    ]


def check_bias_below(label: str, errors, reference: str, reference_errors, ratio: float = 0.25) -> list[str]:
    """``|bias(label)|`` is below ``ratio`` times ``|bias(reference)|``."""
    mine, theirs = abs(float(np.mean(errors))), abs(float(np.mean(reference_errors)))
    if not mine < ratio * theirs:
        return [f"{label}: |bias| {mine:.5f} not below {ratio} x {reference}'s {theirs:.5f}"]
    return []
