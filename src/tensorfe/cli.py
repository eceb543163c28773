"""Command-line interface: simulate, estimate, diagnose.

``simulate`` runs a Monte-Carlo battery over one of the built-in designs;
``estimate`` fits a chosen estimator to a long-format panel CSV; ``diagnose``
prints per-dimension singular-value spectra and numerical multilinear ranks
(useful for picking factor counts and truncation ranks).  A JSON file passed
via ``--config`` supplies defaults for any flag (command-line values win).
The per-dimension flags ``--ranks``, ``--proxy-rank`` and ``--lags`` take one
value for every dimension or a comma list with one value per dimension.
"""

from __future__ import annotations

import os

# Keep forked Monte-Carlo workers from oversubscribing the machine; users can
# still override through their environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import dataclasses
import json
import sys

from .dgp import DESIGNS, DgpConfig
from .errors import ESTIMATION_ERRORS, PanelFormatError
from .kernel_fe import KERNEL_FAMILIES
from .montecarlo import (
    EFFECTS_MODES,
    VCOV_MODELS,
    EstimatorSpec,
    estimate_panel,
    run_monte_carlo,
)
from .inference import pooled_ols
from .panel_io import load_panel_csv
from .tensor_ops import multilinear_rank, net_of

_DOMAIN_ERRORS = ESTIMATION_ERRORS + (PanelFormatError, ValueError, OSError)

# Method token -> (estimator kind, spec name, spec fields the token fixes).
# The name is formatted with the factor's dimension ``dim`` or the bandwidth ``h``.
_METHODS = {
    "ols": ("ols", "ols", {}),
    "within": ("within", "within", {}),
    "factor": ("factor", "factor(dim={dim})", {}),
    "ker": ("ker", "ker(h={h:g})", {}),
    "ik": ("ik", "ik(h={h:g})", {}),
    "ic": ("ic", "ic(h={h:g})", {}),
    "ic-split": ("ic", "ic-split(h={h:g})", {"split": True}),
}
METHOD_CHOICES = tuple(_METHODS)


def _split(value, cast=str) -> tuple:
    """A comma list (or a list from a JSON config) as a tuple of ``cast`` values, empty items dropped."""
    items = value if isinstance(value, (list, tuple)) else [tok.strip() for tok in str(value).split(",")]
    return tuple(cast(v) for v in items if v != "")


def _method_to_spec(token: str, *, args, bandwidth: float, flatten_dim: int = 1) -> EstimatorSpec:
    """Translate one CLI method token into an estimator spec."""
    if token not in _METHODS:
        raise ValueError(f"unknown estimator {token!r}; choose from {METHOD_CHOICES}")
    kind, name, fixed = _METHODS[token]
    if kind == "factor":
        fixed = {"flatten_dim": flatten_dim}
    if fixed.get("split"):
        fixed = dict(fixed, split_dim=args.split_dim)
    return EstimatorSpec(
        name=name.format(dim=flatten_dim, h=bandwidth),
        kind=kind,
        n_factors=args.factors,
        prelim_dim=args.prelim_dim,
        proxy_ranks=_split(args.proxy_rank, int) if args.proxy_rank else None,
        kernel=args.kernel,
        bandwidth=bandwidth,
        ranks=_split(args.ranks, int) if args.ranks else None,
        effects=args.effects,
        vcov=args.vcov,
        lags=_split(args.lags, int),
        level=args.level,
        **fixed,
    )


def _expand_estimators(tokens, order: int, bandwidths, args) -> list[EstimatorSpec]:
    """Specs for ``--estimators``: ``factor`` fits every dimension, ``factor:<d>`` one, kernel methods every bandwidth."""
    specs: list[EstimatorSpec] = []
    for token in tokens:
        method, colon, dim = token.partition(":")
        if method not in _METHODS or (colon and method != "factor"):
            raise ValueError(f"unknown estimator {token!r}; choose from {METHOD_CHOICES} or factor:<dim>")
        if method == "factor":
            dims = [int(dim)] if colon else range(1, order + 1)
            specs += [_method_to_spec(method, args=args, bandwidth=bandwidths[0], flatten_dim=d) for d in dims]
        else:
            hs = bandwidths[:1] if method in ("ols", "within") else bandwidths
            specs += [_method_to_spec(method, args=args, bandwidth=h) for h in hs]
    return specs


def _cmd_simulate(args) -> int:
    dims = _split(args.dims, int)
    config = DgpConfig(
        design=args.design,
        dims=dims,
        rho=args.rho,
        n_components=args.components,
        permute_cross_sections=not args.no_permute,
    )
    bandwidths = _split(args.bandwidths, float)
    if not bandwidths:
        raise ValueError("--bandwidths needs at least one value")
    specs = _expand_estimators(_split(args.estimators), len(dims), bandwidths, args)
    summary = run_monte_carlo(
        config,
        specs,
        rounds=args.rounds,
        master_seed=args.seed,
        threads=args.threads,
        progress_every=args.progress_every or None,
    )
    print(
        f"design={config.design} dims={'x'.join(str(n) for n in config.dims)} "
        f"rounds={summary.rounds} seed={summary.master_seed}"
    )
    print(summary.format_table())
    if args.out:
        _write_rows_csv(args.out, summary.rows, config)
        print(f"summary written to {args.out}")
    if args.records_out:
        _write_records_csv(args.records_out, summary.records)
        print(f"per-round records written to {args.records_out}")
    return 0


def _write_rows_csv(path, rows, config) -> None:
    """One tidy row per estimator, ready for plotting across panel sizes."""
    fields = [f.name for f in dataclasses.fields(rows[0])] if rows else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "dims"] + fields)
        for row in rows:
            prefix = [config.design, "x".join(str(n) for n in config.dims)]
            writer.writerow(prefix + [getattr(row, f) for f in fields])


def _write_records_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "estimator", "estimate", "se", "ci_lower", "ci_upper", "converged", "failed", "message"]
        )
        for r in records:
            writer.writerow(
                [
                    r.round_index,
                    r.estimator,
                    r.estimate[0],
                    r.se[0],
                    r.ci_lower[0],
                    r.ci_upper[0],
                    int(r.converged),
                    int(r.failed),
                    r.message,
                ]
            )


def _load_panel(args):
    return load_panel_csv(args.input, _split(args.index_cols), args.y, _split(args.x))


def _cmd_estimate(args) -> int:
    frame, y, xs = _load_panel(args)
    spec = _method_to_spec(args.method, args=args, bandwidth=args.bandwidth, flatten_dim=args.flatten_dim)
    report = estimate_panel(y, xs, spec)
    print(f"method: {report.method}   variance: {report.variance_model}   cells: {report.n_cells}")
    print(f"{'coefficient':<14} {'estimate':>10} {'std.err':>10} {'ci_lower':>10} {'ci_upper':>10}")
    for name, b, s, lo, hi in zip(frame.x_names, report.beta, report.se, report.ci_lower, report.ci_upper):
        print(f"{name:<14} {b:>10.6f} {s:>10.6f} {lo:>10.6f} {hi:>10.6f}")
    interesting = {k: v for k, v in report.diagnostics.items() if k != "beta_tilde"}
    if interesting:
        print(f"diagnostics: {interesting}")
    if args.out:
        payload = report.to_dict()
        payload["coefficients"] = list(frame.x_names)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report written to {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    """Scree of the pooled-OLS residual: what is left for a low-rank component.

    The residual's per-dimension spectra are the natural guide for picking
    factor counts and truncation ranks; the raw variables' multilinear ranks
    are printed alongside for context.
    """
    frame, y, xs = _load_panel(args)
    beta = pooled_ols(y, xs)
    info = multilinear_rank(net_of(y, xs, beta), rel_tol=args.rel_tol)
    payload = {
        "shape": list(y.shape),
        "rel_tol": args.rel_tol,
        "ols_beta": beta.tolist(),
        "ols_residual": {
            "ranks": list(info.ranks),
            "spectra": [s[: args.top].tolist() for s in info.spectra],
        },
        "variables": {},
    }
    print(f"pooled OLS: {', '.join(f'{n}={b:.6f}' for n, b in zip(frame.x_names, beta))}")
    print(f"OLS residual: multilinear rank {info.ranks}")
    for d, s in enumerate(info.spectra, start=1):
        shown = ", ".join(f"{v:.4g}" for v in s[: args.top])
        more = " ..." if s.size > args.top else ""
        print(f"  dim {d} singular values: {shown}{more}")
    for name, tensor in [(frame.y_name, y)] + list(zip(frame.x_names, xs)):
        var_info = multilinear_rank(tensor, rel_tol=args.rel_tol)
        payload["variables"][name] = {"ranks": list(var_info.ranks)}
        print(f"{name}: multilinear rank {var_info.ranks}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"diagnostics written to {args.out}")
    return 0


def _add_panel_args(sub) -> None:
    sub.add_argument("--input", required=True, help="long-format panel CSV")
    sub.add_argument("--index-cols", required=True, help="comma-separated index column names, in dimension order")
    sub.add_argument("--y", required=True, help="outcome column name")
    sub.add_argument("--x", required=True, help="comma-separated regressor column names")


def _add_estimator_args(sub) -> None:
    sub.add_argument("--factors", type=int, default=2, help="factor count / proxy columns per dimension")
    sub.add_argument("--prelim-dim", type=int, default=1, help="flattening dimension of the preliminary factor fit")
    sub.add_argument(
        "--proxy-rank", default=None, help="comma-separated proxy columns per dimension (default: --factors everywhere)"
    )
    sub.add_argument("--kernel", choices=KERNEL_FAMILIES, default="gaussian")
    sub.add_argument("--ranks", default=None, help="comma-separated per-dimension truncation ranks (corrected estimator)")
    sub.add_argument(
        "--effects",
        choices=EFFECTS_MODES,
        default="hosvd",
        help="corrected estimator's effects estimate: residual truncation or the kernel fit's smoothed effects",
    )
    sub.add_argument("--split-dim", type=int, default=None, help="dimension to halve when cross-fitting")
    sub.add_argument("--vcov", choices=VCOV_MODELS, default="hac", help="variance model for the intervals")
    sub.add_argument("--lags", default="1", help="HAC lags, comma-separated per dimension")
    sub.add_argument("--level", type=float, default=0.95, help="confidence level")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Assemble the argument parser.

    ``defaults`` (flag name -> value, dashes or underscores) overrides the
    built-in default of every matching flag; it is applied to each subcommand
    because subparsers keep their own namespaces.
    """
    parser = argparse.ArgumentParser(
        prog="tensorfe",
        description="Interactive fixed-effects estimation for multidimensional panels.",
    )
    parser.add_argument("--config", help="JSON file with default values for any flag")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="Monte-Carlo study on a built-in design")
    sim.add_argument("--design", choices=DESIGNS, default="growing")
    sim.add_argument("--dims", default="30,30,30", help="comma-separated panel sizes")
    sim.add_argument("--rho", type=float, default=1.0, help="lagged-structure weight (growing design)")
    sim.add_argument("--components", type=int, default=None, help="override the design's component count")
    sim.add_argument("--no-permute", action="store_true", help="skip the error's cross-section relabeling")
    sim.add_argument("--rounds", type=int, default=1000)
    sim.add_argument(
        "--estimators",
        default="ols,within,factor,ker,ic",
        help=f"comma list from {METHOD_CHOICES} (factor expands to every dimension; factor:<d> picks one)",
    )
    sim.add_argument("--bandwidths", default="0.1", help="comma-separated bandwidths for the kernel estimators")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--progress-every", type=int, default=0, help="print interim summaries every N rounds")
    sim.add_argument("--out", default=None, help="write the summary table as CSV")
    sim.add_argument("--records-out", default=None, help="write per-round records as CSV")
    _add_estimator_args(sim)
    sim.set_defaults(func=_cmd_simulate)

    est = commands.add_parser("estimate", help="fit one estimator to a panel CSV")
    _add_panel_args(est)
    est.add_argument("--method", choices=METHOD_CHOICES, default="ic")
    est.add_argument("--flatten-dim", type=int, default=1, help="flattening dimension (factor method)")
    est.add_argument("--bandwidth", type=float, default=0.1)
    est.add_argument("--out", default=None, help="write the report as JSON")
    _add_estimator_args(est)
    est.set_defaults(func=_cmd_estimate)

    diag = commands.add_parser("diagnose", help="per-dimension spectra and multilinear ranks")
    _add_panel_args(diag)
    diag.add_argument("--rel-tol", type=float, default=1e-8, help="relative cutoff for the numerical rank")
    diag.add_argument("--top", type=int, default=10, help="singular values to print per dimension")
    diag.add_argument("--out", default=None, help="write diagnostics as JSON")
    diag.set_defaults(func=_cmd_diagnose)

    if defaults:
        mapped = {str(k).replace("-", "_"): v for k, v in defaults.items()}
        for sub in (parser, sim, est, diag):
            sub.set_defaults(**mapped)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config")
    known, _ = peek.parse_known_args(argv)
    defaults = None
    if known.config:
        try:
            with open(known.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {known.config}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(defaults, dict):
            print(f"error: config {known.config} must hold a JSON object", file=sys.stderr)
            return 1
    args = build_parser(defaults).parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
