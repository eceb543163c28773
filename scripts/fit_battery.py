#!/usr/bin/env python3
"""Fit gate for the factor fit: fit_factor_model against a plain-ALS reference.

Fits every flatten dimension at ranks 1 and 2 on a fixed set of panels (growing
40^3, 20x15x25 and 30^3; fixed 30^3 and 12^4; growing 80x30x100 with a second,
promotion-like regressor; growing 400x10x10, whose dimension-1 flattening is
tall, so its row Gram matrix has exact zero eigenvalues) and compares each fit
with plain alternating least squares written here with numpy alone: a full
``np.linalg.svd`` of the flattened residual, then pooled OLS net of its
top-``r`` part, from pooled OLS until a step moves the slopes by at most
``1e-13`` relative.

The gate fails (exit status 1) when a slope vector is more than ``1e-7``
(max-abs) from the reference or a fit or its reference does not converge.  With
``--baseline`` (the ``--save`` output of another checkout) it also fails
when the worst or median slope error grows, an objective exceeds the
baseline's by more than ``1e-10`` relative, or a ``converged`` flag differs.

Example:
    PYTHONPATH=src python3 scripts/fit_battery.py --save fits.json
    PYTHONPATH=src python3 scripts/fit_battery.py --baseline fits.json
"""

import argparse
import json
import sys
import time

import numpy as np

from tensorfe.dgp import DgpConfig, draw
from tensorfe.factor import fit_factor_model

BETA_ATOL = 1e-7
OBJECTIVE_RTOL = 1e-10
PANELS = [
    ("growing-40^3", "growing", (40, 40, 40), 1),
    ("growing-20x15x25", "growing", (20, 15, 25), 1),
    ("growing-30^3", "growing", (30, 30, 30), 1),
    ("fixed-30^3", "fixed", (30, 30, 30), 1),
    ("fixed-12^4", "fixed", (12, 12, 12, 12), 1),
    ("growing-80x30x100-K2", "growing", (80, 30, 100), 2),
    ("growing-400x10x10", "growing", (400, 10, 10), 1),  # dimension 1: N_n = 400 > M = 100
]
RANKS = (1, 2)


def panel(design, dims, n_reg, seed):
    """The outcome and regressors of one draw; a second regressor is a 25% promotion dummy with slope -0.5."""
    d = draw(DgpConfig(design, dims), seed)
    y, xs = d.outcome, list(d.regressors)
    if n_reg == 2:
        promo = (np.random.default_rng([seed, 2]).random(dims) < 0.25).astype(np.float64)
        y = y - 0.5 * promo
        xs.append(promo)
    return y, xs


def reference_als(y, xs, dim, rank, tol=1e-13, max_iter=100_000):
    """Plain ALS with a full SVD per step; returns (beta, objective, converged)."""

    def unfold(t):
        return np.moveaxis(t, dim - 1, 0).reshape(t.shape[dim - 1], -1)

    a = unfold(y)
    bs = [unfold(x) for x in xs]
    design = np.stack([b.ravel() for b in bs], axis=1)
    ols = np.linalg.pinv(design)

    def resid(beta):
        return a - np.tensordot(beta, bs, axes=1)

    beta = ols @ a.ravel()
    converged = False
    for _ in range(max_iter):
        u, s, vt = np.linalg.svd(resid(beta), full_matrices=False)
        step = ols @ (a - (u[:, :rank] * s[:rank]) @ vt[:rank]).ravel()
        converged = np.linalg.norm(step - beta) <= tol * max(np.linalg.norm(beta), 1.0)
        beta = step
        if converged:
            break
    s = np.linalg.svd(resid(beta), compute_uv=False)
    return beta, float(np.sum(s[rank:] ** 2)), converged


def run(seeds):
    records = []
    for name, design, dims, n_reg in PANELS:
        for seed in seeds:
            y, xs = panel(design, dims, n_reg, seed)
            for dim in range(1, len(dims) + 1):
                for rank in RANKS:
                    t0 = time.perf_counter()
                    fit = fit_factor_model(y, xs, dim, rank)
                    seconds = time.perf_counter() - t0
                    ref_beta, ref_obj, ref_conv = reference_als(y, xs, dim, rank)
                    records.append(
                        dict(
                            key=f"{name}/seed{seed}/dim{dim}/r{rank}",
                            panel=name,
                            beta=fit.beta.tolist(),
                            error=float(np.max(np.abs(fit.beta - ref_beta))),
                            objective=fit.objective,
                            objective_ratio=fit.objective / ref_obj,
                            iterations=fit.iterations,
                            converged=bool(fit.converged),
                            reference_converged=bool(ref_conv),
                            seconds=seconds,
                        )
                    )
    return records


def summary_line(label, recs):
    err = np.array([r["error"] for r in recs])
    its = np.array([r["iterations"] for r in recs])
    ratio = max(r["objective_ratio"] for r in recs)
    conv = sum(r["converged"] for r in recs)
    secs = sum(r["seconds"] for r in recs)
    return (
        f"{label:<22} {len(recs):>5} {err.max():>10.2e} {np.median(err):>10.2e} {ratio - 1.0:>+11.2e} "
        f"{its.sum():>6} {int(np.median(its)):>4} {its.max():>5} {conv:>5}/{len(recs):<4} {secs:>7.2f}"
    )


def gate(records, baseline):
    failures = []
    for r in records:
        if r["error"] > BETA_ATOL:
            failures.append(f"{r['key']}: beta error {r['error']:.2e} > {BETA_ATOL:g}")
        if not r["converged"]:
            failures.append(f"{r['key']}: not converged")
        if not r["reference_converged"]:
            failures.append(f"{r['key']}: the reference ALS did not converge")
    if baseline is None:
        return failures
    base = {r["key"]: r for r in baseline}
    if set(base) != {r["key"] for r in records}:
        return failures + ["baseline covers a different set of fits"]
    for stat, fn in (("worst", np.max), ("median", np.median)):
        now = fn([r["error"] for r in records])
        then = fn([r["error"] for r in baseline])
        if now > then:
            failures.append(f"{stat} beta error {now:.2e} > baseline {then:.2e}")
    for r in records:
        b = base[r["key"]]
        if r["objective"] > b["objective"] * (1.0 + OBJECTIVE_RTOL):
            failures.append(f"{r['key']}: objective {r['objective']!r} > baseline {b['objective']!r}")
        if r["converged"] != b["converged"]:
            failures.append(f"{r['key']}: converged {r['converged']} against baseline {b['converged']}")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated draw seeds (default: 0,1,2)")
    ap.add_argument("--save", help="write every fit's record to this JSON file")
    ap.add_argument("--baseline", help="JSON file from --save on another checkout to compare against")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    records = run(seeds)
    print(f"{'panel':<22} {'fits':>5} {'worst err':>10} {'median err':>10} {'obj ratio-1':>11} "
          f"{'iters':>6} {'med':>4} {'max':>5} {'converged':>10} {'fit s':>7}")
    for name, *_ in PANELS:
        print(summary_line(name, [r for r in records if r["panel"] == name]))
    print(summary_line("all", records))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(records, fh, indent=1)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        print(summary_line("baseline", baseline))
    failures = gate(records, baseline)
    for line in failures:
        print("FAIL", line)
    print("fit gate:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
