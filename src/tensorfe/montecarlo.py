"""Monte-Carlo harness: run estimator batteries over simulated panels.

Each round draws one panel from a :class:`~tensorfe.dgp.DgpConfig` using the
per-round seed ``SeedSequence([master_seed, round_index])`` — reproducible
regardless of worker count, and a longer run's first ``R`` rounds coincide
with an ``R``-round run.  Within a round, estimators share cached
intermediates (factor fits, proxies, kernel weights) through a small
workspace, mirroring how the estimators are meant to be pipelined: the
kernel-within estimate is the preliminary slope for the orthogonalized
corrected estimator, and the proxies for both kernel estimators come from one
factor-based preliminary fit.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dgp import DgpConfig, draw
from .errors import ESTIMATION_ERRORS
from .factor import FactorFit, defactored_regressors, fit_factor_model, residual_proxies
from .inference import (
    EstimateReport,
    build_report,
    corrected_estimate,
    corrected_estimate_split,
    crossfit_split,
    pooled_ols,
    var_hac,
    var_heteroskedastic,
    var_homoskedastic,
)
from .kernel_fe import (
    KERNEL_FAMILIES,
    KernelFeFit,
    kernel_fe_estimate,
    kernel_weights,
    iterative_kernel_fe,
    smoothed_effects,
    standard_within,
    within_projections,
)
from .tensor_ops import as_tensor, net_of, per_dim, regressor_list

ESTIMATOR_KINDS = ("ols", "within", "factor", "ker", "ik", "ic")
EFFECTS_MODES = ("hosvd", "kernel")
VCOV_MODELS = ("homoskedastic", "heteroskedastic", "hac")


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator configuration inside a Monte-Carlo battery.

    ``kind`` picks the estimator; the remaining fields only matter where they
    apply (``flatten_dim`` for factor fits, ``bandwidth``/``kernel`` for the
    kernel estimators, ``ranks``/``effects``/``split`` for the corrected
    estimator).  ``effects`` selects how the corrected estimator removes the
    interactive component from the outcome: a multilinear truncation of the
    preliminary residual (``"hosvd"``) or the preliminary kernel fit's own
    smoothed-effects estimate (``"kernel"``).  The cross-fitted corrected
    estimator (``split=True``) truncates the residual, so it takes
    ``"hosvd"`` only.  ``kernel`` names one of ``KERNEL_FAMILIES``.  Every
    choice is checked when the spec is built, so a battery never starts with
    one that would fail in every round.
    ``proxy_ranks`` overrides the number of proxy columns per dimension
    (default: ``n_factors`` everywhere, as for ``ranks``).  ``ranks``,
    ``proxy_ranks``, ``bandwidth`` and ``lags`` each take one value for every
    dimension or one per dimension (:func:`~tensorfe.tensor_ops.per_dim`); a
    single lag is capped at ``N_d - 1`` in each dimension.  ``name`` labels
    rows in summaries and must be unique within a battery.
    """

    name: str
    kind: str
    flatten_dim: int = 1
    n_factors: int = 2
    prelim_dim: int = 1
    proxy_ranks: int | tuple[int, ...] | None = None
    kernel: str = "gaussian"
    bandwidth: float | tuple[float, ...] = 0.1
    ranks: int | tuple[int, ...] | None = None
    effects: str = "hosvd"
    split: bool = False
    split_dim: int | None = None
    vcov: str = "hac"
    lags: int | tuple[int, ...] = 1
    level: float = 0.95

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; choose from {ESTIMATOR_KINDS}")
        if self.effects not in EFFECTS_MODES:
            raise ValueError(f"unknown effects mode {self.effects!r}; choose from {EFFECTS_MODES}")
        if self.vcov not in VCOV_MODELS:
            raise ValueError(f"unknown variance model {self.vcov!r}; choose from {VCOV_MODELS}")
        if self.kernel not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.kernel!r}; choose from {KERNEL_FAMILIES}")
        if self.kind == "ic" and self.split and self.effects == "kernel":
            raise ValueError("the cross-fitted corrected estimator (split=True) takes effects='hosvd' only")


@dataclass
class RoundRecord:
    """One estimator's outcome on one simulated panel."""

    round_index: int
    estimator: str
    estimate: tuple[float, ...]
    se: tuple[float, ...]
    ci_lower: tuple[float, ...]
    ci_upper: tuple[float, ...]
    converged: bool = True
    failed: bool = False
    message: str = ""
    seconds: float = 0.0


@dataclass
class McRow:
    """Aggregate performance of one estimator across rounds.

    ``bias_q025`` / ``bias_q975`` are the empirical 2.5% / 97.5% quantiles of
    the estimation error — the band plotted in bias-versus-size figures.
    """

    estimator: str
    rounds: int
    ok: int
    failed: int
    nonconverged: int
    bias: float
    sd: float
    rmse: float
    coverage: float
    mean_se: float
    level: float
    mean_seconds: float
    bias_q025: float = float("nan")
    bias_q975: float = float("nan")


@dataclass
class McSummary:
    """Everything a Monte-Carlo run produced."""

    config: DgpConfig
    master_seed: int
    rounds: int
    rows: list[McRow]
    records: list[RoundRecord] = field(default_factory=list)

    def row(self, estimator: str) -> McRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(f"no summary row for estimator {estimator!r}")

    def format_table(self) -> str:
        header = f"{'estimator':<22} {'ok':>6} {'fail':>4} {'bias':>9} {'sd':>8} {'rmse':>8} {'cover':>6} {'mean_se':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.estimator:<22} {r.ok:>6d} {r.failed:>4d} {r.bias:>+9.4f} {r.sd:>8.4f} "
                f"{r.rmse:>8.4f} {r.coverage:>6.3f} {r.mean_se:>8.4f}"
            )
        return "\n".join(lines)


def _resolve(spec: EstimatorSpec, shape: tuple[int, ...]) -> EstimatorSpec:
    """``spec`` with ranks, proxy ranks, bandwidths and lags given once per dimension of ``shape``."""
    order = len(shape)
    lags = per_dim(spec.lags, order, "lags")
    if np.size(spec.lags) == 1:  # one lag for every dimension, capped at each one's size
        lags = tuple(min(int(l), n - 1) for l, n in zip(lags, shape))
    return replace(
        spec,
        ranks=per_dim(spec.n_factors if spec.ranks is None else spec.ranks, order, "ranks"),
        proxy_ranks=per_dim(spec.n_factors if spec.proxy_ranks is None else spec.proxy_ranks, order, "proxy ranks"),
        bandwidth=per_dim(spec.bandwidth, order, "bandwidths"),
        lags=lags,
    )


def _compute_vcov(spec: EstimatorSpec, eta, resid) -> np.ndarray:
    if spec.vcov == "homoskedastic":
        return var_homoskedastic(eta, resid)
    if spec.vcov == "heteroskedastic":
        return var_heteroskedastic(eta, resid)
    return var_hac(eta, resid, spec.lags)


class _PanelWorkspace:
    """Lazily computed, shared intermediates for one panel."""

    def __init__(self, outcome: np.ndarray, regressors: list[np.ndarray], round_index: int = 0):
        self.outcome = outcome
        self.regressors = regressors
        self.round_index = round_index
        self._factor_fits: dict[tuple[int, int], FactorFit] = {}
        self._proxies: dict[tuple, dict[int, np.ndarray]] = {}
        self._kernel_fits: dict[tuple, KernelFeFit] = {}

    def factor_fit(self, flatten_dim: int, n_factors: int) -> FactorFit:
        key = (flatten_dim, n_factors)
        if key not in self._factor_fits:
            self._factor_fits[key] = fit_factor_model(
                self.outcome, self.regressors, flatten_dim, n_factors
            )
        return self._factor_fits[key]

    def proxies(self, proxy_ranks, n_factors: int, prelim_dim: int) -> dict[int, np.ndarray]:
        key = (proxy_ranks, n_factors, prelim_dim)
        if key not in self._proxies:
            prelim = self.factor_fit(prelim_dim, n_factors)
            resid = net_of(self.outcome, self.regressors, prelim.beta)
            self._proxies[key] = residual_proxies(resid, proxy_ranks)
        return self._proxies[key]

    def kernel_fit(self, spec: EstimatorSpec) -> KernelFeFit:
        """The kernel-within fit of a :func:`_resolve`-d spec."""
        key = (spec.kernel, spec.bandwidth, spec.proxy_ranks, spec.n_factors, spec.prelim_dim)
        if key not in self._kernel_fits:
            proxies = self.proxies(spec.proxy_ranks, spec.n_factors, spec.prelim_dim)
            weights = kernel_weights(proxies, spec.kernel, spec.bandwidth)
            projections = within_projections(weights)
            self._kernel_fits[key] = kernel_fe_estimate(
                self.outcome, self.regressors, projections, weight_set=weights
            )
        return self._kernel_fits[key]


def _point_estimate(spec: EstimatorSpec, ws: _PanelWorkspace):
    """Run one :func:`_resolve`-d estimator spec on the workspace's panel.

    Returns ``(beta, eta, resid, converged, diagnostics)`` where ``eta`` are
    the tensors whose cross-moments scale the sandwich variance and ``resid``
    the matching residual tensor.  For the kernel-based kinds ``converged``
    reports the preliminary factor fits: the panel's own, or every fold's
    when the corrected estimator is cross-fitted.
    """
    y, xs = ws.outcome, ws.regressors
    if spec.kind == "ols":
        beta = pooled_ols(y, xs)
        return beta, xs, net_of(y, xs, beta), True, {}
    if spec.kind == "within":
        y_t = standard_within(y)
        x_t = [standard_within(xk) for xk in xs]
        beta = pooled_ols(y_t, x_t)
        return beta, x_t, net_of(y_t, x_t, beta), True, {}
    if spec.kind == "factor":
        fit = ws.factor_fit(spec.flatten_dim, spec.n_factors)
        diag = {"iterations": fit.iterations, "objective": fit.objective}
        return fit.beta, defactored_regressors(fit, xs), fit.residual, fit.converged, diag
    fold_converged: list[bool] = []
    if spec.kind == "ker":
        fit = ws.kernel_fit(spec)
        diag = {"degenerate_rows": {d: len(v) for d, v in fit.degenerate_rows.items()}}
        eta, resid = fit.x_within, fit.residual
    elif spec.kind == "ik":
        proxies = ws.proxies(spec.proxy_ranks, spec.n_factors, spec.prelim_dim)
        fit = iterative_kernel_fe(y, xs, proxies, spec.kernel, spec.bandwidth)
        diag = {"degenerate_rows": {f"{d}.{m}": len(v) for (d, m), v in fit.degenerate_rows.items()}}
        eta, resid = fit.x_within, fit.residual
    else:  # corrected estimator
        if spec.split:
            split_dim = spec.split_dim if spec.split_dim is not None else y.ndim
            plan = crossfit_split(y.shape, split_dim, seed=ws.round_index)

            def prelim(y_fold: np.ndarray, x_fold: list[np.ndarray]) -> np.ndarray:
                fold = _PanelWorkspace(y_fold, x_fold)
                beta = fold.kernel_fit(spec).beta
                fold_converged.append(fold.factor_fit(spec.prelim_dim, spec.n_factors).converged)
                return beta

            fit = corrected_estimate_split(y, xs, spec.ranks, plan, prelim=prelim)
            diag = {"split_dim": split_dim, "fold_sizes": [len(f) for f in plan.folds]}
        else:
            prelim_fit = ws.kernel_fit(spec)
            effects = None
            if spec.effects == "kernel":
                effects = smoothed_effects(net_of(y, xs, prelim_fit.beta), prelim_fit.projections)
            fit = corrected_estimate(y, xs, prelim_fit.beta, spec.ranks, effects=effects)
            diag = {
                "beta_tilde": [float(b) for b in fit.beta_tilde],
                "ranks": list(spec.ranks),
                "effects": spec.effects,
            }
        eta, resid = fit.eta, fit.residual
    if not fold_converged:  # not cross-fitted: the panel's own preliminary fit
        fold_converged.append(ws.factor_fit(spec.prelim_dim, spec.n_factors).converged)
    return fit.beta, eta, resid, all(fold_converged), diag


def _report(spec: EstimatorSpec, ws: _PanelWorkspace) -> EstimateReport:
    """Point estimate, variance and report of one spec; ``diagnostics["converged"]`` is always set."""
    spec = _resolve(spec, ws.outcome.shape)
    beta, eta, resid, converged, diag = _point_estimate(spec, ws)
    vcov = _compute_vcov(spec, eta, resid)
    diagnostics = dict(diag, converged=bool(converged))
    return build_report(
        spec.name, beta, vcov, resid.size, level=spec.level, variance_model=spec.vcov, diagnostics=diagnostics
    )


def estimate_panel(y, x, spec: EstimatorSpec) -> EstimateReport:
    """Run one estimator spec on an arbitrary panel and build a report.

    This is the CLI's entry into the estimator battery; domain errors
    propagate to the caller instead of being folded into a record.
    """
    y_arr = as_tensor(y, name="outcome", min_order=2)
    return _report(spec, _PanelWorkspace(y_arr, regressor_list(x, y_arr.shape)))


def _evaluate(spec: EstimatorSpec, ws: _PanelWorkspace) -> RoundRecord:
    start = time.perf_counter()
    try:
        report = _report(spec, ws)
    except ESTIMATION_ERRORS as exc:
        nans = (float("nan"),) * len(ws.regressors)
        values = (nans,) * 4
        converged, failed, message = False, True, f"{type(exc).__name__}: {exc}"
    else:
        values = [tuple(float(v) for v in a) for a in (report.beta, report.se, report.ci_lower, report.ci_upper)]
        converged, failed, message = report.diagnostics["converged"], False, ""
    return RoundRecord(
        ws.round_index,
        spec.name,
        *values,
        converged=converged,
        failed=failed,
        message=message,
        seconds=time.perf_counter() - start,
    )


def run_round(config: DgpConfig, master_seed: int, round_index: int, specs) -> list[RoundRecord]:
    """Simulate one panel and run every estimator spec on it."""
    panel = draw(config, np.random.SeedSequence([int(master_seed), int(round_index)]))
    ws = _PanelWorkspace(panel.outcome, panel.regressors, round_index)
    return [_evaluate(spec, ws) for spec in specs]


def _run_round_args(args) -> list[RoundRecord]:
    return run_round(*args)


def summarize(records, beta_true, specs=None) -> list[McRow]:
    """Aggregate round records per estimator.

    ``bias``, ``sd``, ``rmse``, ``coverage``, and ``mean_se`` use the first
    coefficient (the simulated designs have a single regressor) and skip
    failed rounds; failures are counted separately.  ``sd`` is the n-1 sample
    standard deviation (0 for a single round) and ``rmse`` is defined as
    ``sqrt(bias**2 + sd**2)``, so the decomposition is an identity rather
    than an approximation.  Rows follow ``specs``, then any other estimator
    in the order its first record appears.
    """
    target = float(np.atleast_1d(beta_true)[0])
    groups: dict[str, list[RoundRecord]] = {spec.name: [] for spec in specs or ()}
    for rec in records:
        groups.setdefault(rec.estimator, []).append(rec)

    levels = {spec.name: spec.level for spec in specs or ()}
    rows = []
    for name, recs in groups.items():
        ok = [r for r in recs if not r.failed]
        est = np.array([r.estimate[0] for r in ok])
        ses = np.array([r.se[0] for r in ok])
        cover = np.array([r.ci_lower[0] <= target <= r.ci_upper[0] for r in ok]) if ok else np.array([])
        q_lo, q_hi = (np.quantile(est - target, [0.025, 0.975]) if ok else (float("nan"), float("nan")))
        bias = float(est.mean() - target) if ok else float("nan")
        sd = float(est.std(ddof=1)) if len(ok) > 1 else (0.0 if ok else float("nan"))
        rows.append(
            McRow(
                estimator=name,
                rounds=len(recs),
                ok=len(ok),
                failed=len(recs) - len(ok),
                nonconverged=sum(1 for r in recs if not r.converged and not r.failed),
                bias=bias,
                sd=sd,
                rmse=float(np.hypot(bias, sd)) if ok else float("nan"),
                coverage=float(cover.mean()) if ok else float("nan"),
                mean_se=float(ses.mean()) if ok else float("nan"),
                level=levels.get(name, 0.95),
                mean_seconds=float(np.mean([r.seconds for r in recs])) if recs else 0.0,
                bias_q025=float(q_lo),
                bias_q975=float(q_hi),
            )
        )
    return rows


def run_monte_carlo(
    config: DgpConfig,
    specs,
    rounds: int,
    *,
    master_seed: int = 0,
    threads: int = 1,
    progress_every: int | None = None,
    progress_stream=None,
) -> McSummary:
    """Run a battery of estimators over many simulated panels.

    Results are deterministic in ``(config, specs, rounds, master_seed)`` and
    independent of ``threads``.  With ``progress_every`` set, interim summary
    tables go to ``progress_stream`` (default: stderr) as rounds complete.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one estimator spec")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"estimator names must be unique, got {names}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    stream = progress_stream if progress_stream is not None else sys.stderr

    records: list[RoundRecord] = []
    args = [(config, master_seed, idx, specs) for idx in range(rounds)]
    if threads > 1:
        import concurrent.futures  # imported here: only a threaded run pays for them
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        chunk = max(1, rounds // (threads * 8))
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
            results = pool.map(_run_round_args, args, chunksize=chunk)
            records = _collect(results, rounds, config, master_seed, specs, progress_every, stream)
    else:
        records = _collect(map(_run_round_args, args), rounds, config, master_seed, specs, progress_every, stream)

    rows = summarize(records, config.beta_true, specs)
    return McSummary(config=config, master_seed=master_seed, rounds=rounds, rows=rows, records=records)


def _collect(results, rounds, config, master_seed, specs, progress_every, stream) -> list[RoundRecord]:
    records: list[RoundRecord] = []
    for done, round_records in enumerate(results, start=1):
        records.extend(round_records)
        if progress_every and done % progress_every == 0 and done < rounds:
            for row in summarize(records, config.beta_true, specs):
                print(
                    f"[{done}/{rounds}] {row.estimator}: bias={row.bias:+.4f} sd={row.sd:.4f} "
                    f"coverage={row.coverage:.3f} failed={row.failed}",
                    file=stream,
                )
            if hasattr(stream, "flush"):
                stream.flush()
    return records
