#!/usr/bin/env python3
"""Coverage study on either simulation design.

Runs the design's estimator battery over independent draws and reports bias,
interval coverage, and the empirical 95% band of the slope error for each
panel size.

``--design growing`` (the default) reproduces the headline comparison: the
plain kernel fit under-covers, the orthogonalized correction restores
coverage as the panel grows, and the one-dimension factor fits stay biased
with near-zero coverage.

``--design fixed`` loads the unobserved effects on every unit of dimension 1,
so pooled OLS, the classic within transform, and factor fits along
dimensions 2 and 3 are all badly biased, while the factor fit along
dimension 1 and the corrected estimator remove the bias.  Its battery fixes
its own bandwidths and the design has no lag weight, so it ignores ``--rho``,
``--kernel-bandwidth`` and ``--corrected-bandwidth``.

Example:
    python3 scripts/coverage_study.py --sizes 30,40 --rounds 1000 --seed 2026
    python3 scripts/coverage_study.py --design fixed --sizes 40 --rounds 500 --seed 2026
"""

import argparse
import sys
import time

from tensorfe.dgp import DESIGNS, DgpConfig
from tensorfe.montecarlo import EstimatorSpec, run_monte_carlo


def study_specs(design, size, corrected_bandwidth, kernel_bandwidth):
    factors = [EstimatorSpec(name=f"factor{d}", kind="factor", flatten_dim=d) for d in (1, 2, 3)]
    if design == "fixed":
        corrected = dict(kind="ic", ranks=(2, size, size))
        return [
            EstimatorSpec(name="ols", kind="ols"),
            EstimatorSpec(name="within", kind="within"),
            *factors,
            EstimatorSpec(name="ic_h05", bandwidth=0.05, **corrected),
            EstimatorSpec(name="ic_h10", bandwidth=0.10, **corrected),
        ]
    return [
        EstimatorSpec(name="ker", kind="ker", bandwidth=kernel_bandwidth),
        EstimatorSpec(name="ic", kind="ic", bandwidth=corrected_bandwidth, ranks=(4, 4, 4), effects="kernel"),
        *factors,
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--design", choices=DESIGNS, default="growing")
    ap.add_argument("--sizes", default="30,40", help="comma list of per-dimension panel sizes")
    ap.add_argument("--rounds", type=int, default=1000)
    ap.add_argument("--rho", type=float, default=1.0, help="growing design only")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--kernel-bandwidth", type=float, default=0.2, help="growing design only")
    ap.add_argument("--corrected-bandwidth", type=float, default=1.2, help="growing design only")
    ap.add_argument("--progress-every", type=int, default=100)
    args = ap.parse_args(argv)

    for size in (int(s) for s in args.sizes.split(",")):
        specs = study_specs(args.design, size, args.corrected_bandwidth, args.kernel_bandwidth)
        cfg = DgpConfig(design=args.design, dims=(size, size, size), rho=args.rho)
        start = time.time()
        summary = run_monte_carlo(
            cfg,
            specs,
            rounds=args.rounds,
            master_seed=args.seed,
            threads=args.threads,
            progress_every=args.progress_every or None,
            progress_stream=sys.stderr,
        )
        print(f"\n== {args.design} {size}^3, {args.rounds} rounds, {time.time() - start:.0f}s ==")
        print(summary.format_table())
        print("empirical 95% band of the slope error:")
        for spec in specs:
            row = summary.row(spec.name)
            lo, hi = row.bias_q025, row.bias_q975
            marker = "covers 0" if lo <= 0.0 <= hi else "excludes 0" if row.ok else "every round failed"
            print(f"  {spec.name:10s} [{lo:+.4f}, {hi:+.4f}]  {marker}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
