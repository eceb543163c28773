#!/usr/bin/env python3
"""Benchmark tensorfe end to end (untraced) and per module (traced).

Run from the repository root:

    python3 perfbench/run.py --workload mc-growing-40 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run sets up (fresh-interpreter set-up probe, inputs), runs one untimed
round that warms caches and captures calls for the checks, then runs whole
rounds until ``--seconds`` have passed, checks every output against
computations made apart from the program, writes ``perfbench/results/`` and
prints a JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from timing wrappers around
tensorfe's public functions.  ``--workload all`` runs every workload both
ways in child processes and prints one report.
"""

import os

# One BLAS thread: the machine has two shared cores, and a multi-threaded BLAS
# would measure the scheduler and the other tenants rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
DATA_DIR = BENCH_DIR / "data"
SETUP_REPEATS = 7
# rounds_per_s is the median throughput of this many equal time windows, so a
# few seconds of interference from other tenants move one window, not the result.
THROUGHPUT_WINDOWS = 5
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("dgp.draw.self_ms", "ms"),
    ("factor.fit_factor_model.self_ms", "ms"),
    ("factor.fit_factor_model.iterations", "count"),
    ("factor.fit_factor_model.calls", "count"),
    ("factor.defactored_regressors.self_ms", "ms"),
    ("factor.defactored_regressors.peak_alloc_mb", "MB"),
    ("factor.residual_proxies.self_ms", "ms"),
    ("tensor_ops.hosvd_truncate.self_ms", "ms"),
    ("inference.corrected_estimate.self_ms", "ms"),
    ("inference.corrected_estimate_split.self_ms", "ms"),
    ("inference.var_hac.self_ms", "ms"),
    ("inference.var_hac.calls", "count"),
    ("inference.pooled_ols.self_ms", "ms"),
    ("kernel_fe.kernel_weights.self_ms", "ms"),
    ("kernel_fe.within_projections.self_ms", "ms"),
    ("kernel_fe.kernel_fe_estimate.self_ms", "ms"),
    ("kernel_fe.smoothed_effects.self_ms", "ms"),
    ("kernel_fe.iterative_kernel_fe.self_ms", "ms"),
    ("panel_io.load_panel_csv.self_ms", "ms"),
    ("panel_io.load_panel_csv.peak_alloc_mb", "MB"),
    ("montecarlo.self_ms", "ms"),
)

# A fresh interpreter imports tensorfe and finishes a small estimate.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from tensorfe import dgp
from tensorfe.montecarlo import EstimatorSpec, estimate_panel
panel = dgp.draw(dgp.DgpConfig(design="growing", dims=(12, 12, 12)), seed=0)
spec = EstimatorSpec(name="ic", kind="ic", bandwidth=1.2, ranks=(4, 4, 4), effects="kernel")
report = estimate_panel(panel.outcome, panel.regressors, spec)
sys.exit(0 if np.all(np.isfinite(report.beta)) else 1)
"""


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of ``SETUP_REPEATS`` fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def windowed_throughput(round_times: list[float], window_of: list[int]) -> float:
    """Median over time windows of rounds completed per second of round time."""
    rates = []
    for w in sorted(set(window_of)):
        times = [t for t, k in zip(round_times, window_of) if k == w]
        rates.append(len(times) / sum(times))
    return statistics.median(rates)


def per_layer_metrics(timing, audit, rounds: int) -> dict[str, float]:
    """Per-round self times and counts from ``timing``; allocation peaks from ``audit``."""
    self_s = timing.self_seconds()
    out = {}
    for name, _ in PER_LAYER:
        if name == "montecarlo.self_ms":
            value = sum(v for k, v in self_s.items() if k.startswith("montecarlo.")) * 1e3 / rounds
        elif name.endswith(".self_ms"):
            value = self_s.get(name[: -len(".self_ms")], 0.0) * 1e3 / rounds
        elif name.endswith(".calls"):
            value = timing.counts[name[: -len(".calls")]] / rounds
        elif name.endswith(".iterations"):
            value = timing.counts[name] / rounds
        else:  # .peak_alloc_mb
            value = audit.peak_alloc_bytes.get(name[: -len(".peak_alloc_mb")], 0) / 2**20
        out[name] = value
    return out


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """One measured run; returns the run's details and the exit status (1 if a check failed)."""
    import spans

    setup_s, setup_times = measure_setup()
    workload.prepare(seed, DATA_DIR)
    try:
        # Round 0: untimed warm-up that also captures calls for the checks and,
        # in a traced run, the allocation peaks.
        audit = spans.Recorder(capture=True, alloc=trace)
        with spans.installed(audit):
            outputs = {0: workload.run_round(0)}
        failures = workload.after_round(0, outputs[0])

        timing = spans.Recorder()
        round_times, window_of, op_times = [], [], {}
        attempted = failed = 0
        with spans.installed(timing) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            index = 0
            while index == 0 or time.perf_counter() - start < seconds:
                index += 1
                t0 = time.perf_counter()
                window_of.append(min(int(THROUGHPUT_WINDOWS * (t0 - start) / seconds), THROUGHPUT_WINDOWS - 1))
                out = workload.run_round(index)
                round_times.append(time.perf_counter() - t0)
                failures += workload.after_round(index, out)
                outputs[index] = out
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for index, out in outputs.items():
            if index == 0:
                continue
            a, f = workload.operations(out)
            attempted += a
            failed += f
            for op, sec in workload.operation_seconds(out).items():
                op_times.setdefault(op, []).append(sec)

        failures += workload.check(outputs)
        failures += checks_on_captures(audit)
    finally:
        workload.cleanup()

    rounds = len(round_times)
    if trace:
        metrics = per_layer_metrics(timing, audit, rounds)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": setup_s,
            "rounds_per_s": windowed_throughput(round_times, window_of),
            "round_s_p50": statistics.median(round_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "timed_s": sum(round_times),
        "round_s": round_times,
        "round_s_p50": statistics.median(round_times),
        "setup_s_samples": setup_times,
        "operation_s_p50": {op: statistics.median(v) for op, v in op_times.items()},
        "check_failures": failures,
        "environment": environment(),
        "result": result,
    }
    if trace:
        details["spans"] = timing.spans
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    suffix = ".trace" if trace else ""
    (RESULTS_DIR / f"{workload.name}{suffix}.json").write_text(json.dumps(details, indent=1))
    return details, (0 if not failures else 1)


def checks_on_captures(audit) -> list[str]:
    import checks

    return checks.check_hac(audit.captured["inference.var_hac"]) + checks.check_weights(
        audit.captured["kernel_fe.kernel_weights"]
    )


def print_details(details: dict) -> None:
    result = details["result"]
    print(f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  rounds {details['rounds']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for op, sec in details["operation_s_p50"].items():
        print(f"  {op:<46} {sec:>14.6g} s")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for failure in details["check_failures"]:
        print(f"  CHECK FAILED: {failure}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process."""
    import workloads

    report, status = {}, 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if lines:
                report.setdefault(name, {})["traced" if trace else "untraced"] = json.loads(lines[-1])
    for name in workloads.NAMES:
        with contextlib.suppress(OSError, KeyError, ValueError):
            plain = json.loads((RESULTS_DIR / f"{name}.json").read_text())["round_s_p50"]
            traced = json.loads((RESULTS_DIR / f"{name}.trace.json").read_text())["round_s_p50"]
            report[name]["tracing_overhead"] = traced / plain - 1.0
            print(f"{name}: tracing overhead on round_s_p50 {100 * (traced / plain - 1.0):+.1f}%")
    print(json.dumps(report))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark tensorfe end to end and per module.")
    ap.add_argument("--workload", required=True, help="mc-growing-40, mc-fixed-4d, csv-estimate or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tensorfe" / "__init__.py").is_file():
        print(f"error: no tensorfe sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tensorfe

    if Path(tensorfe.__file__).resolve().parent != SRC / "tensorfe":
        print(f"error: imported tensorfe from {tensorfe.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES} or all")
    details, status = run_workload(workloads.by_name(args.workload), args.seed, args.seconds, bool(args.trace))
    print_details(details)
    print(json.dumps(details["result"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
