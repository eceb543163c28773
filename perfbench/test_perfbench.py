"""Fast tests of the benchmark itself.

Run with ``python3 -m pytest -q perfbench`` from the repository root.  They
run every workload's code path at a small size with every check, and feed
each check a deliberately wrong value to confirm that it fails.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tensorfe import montecarlo  # noqa: E402


def small_workloads():
    return [workloads.mc_growing(size=14), workloads.mc_fixed_4d(size=6), workloads.CsvWorkload(shape=(9, 7, 12))]


def run_rounds(workload, tmp_path, rounds=3):
    """Prepare and run ``rounds`` rounds under a capturing recorder.

    Returns the outputs, the recorder and the failures of ``after_round``.
    """
    workload.prepare(7, tmp_path)
    recorder = spans.Recorder(capture=True, alloc=True)
    try:
        with spans.installed(recorder):
            outputs = {i: workload.run_round(i) for i in range(rounds)}
    finally:
        workload.cleanup()
    failures = [f for i, out in outputs.items() for f in workload.after_round(i, out)]
    return outputs, recorder, failures


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    out = {}
    for workload in small_workloads():
        outputs, recorder, failures = run_rounds(workload, tmp_path_factory.mktemp(workload.name))
        out[workload.name] = (workload, outputs, recorder, failures)
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_small_workloads_pass_every_check(small_runs):
    # The method properties need the benchmark's panel sizes and round counts;
    # at this size only the per-round checks apply.  The property checks are
    # fed right and wrong values further down.
    for name, (workload, outputs, recorder, failures) in small_runs.items():
        assert failures == [], name
        assert workload.check_rounds(outputs) == [], name
        assert run.checks_on_captures(recorder) == [], name
        assert all(workload.operations(out)[1] == 0 for out in outputs.values()), name


def test_traced_counts_repeat_per_round(small_runs):
    _, _, growing, _ = small_runs["mc-growing-14"]
    assert growing.counts["factor.fit_factor_model"] == 3 * 3  # three rounds, one cached fit shared by ker/ic/factor1
    _, _, csv, _ = small_runs["csv-estimate"]
    assert csv.counts["factor.fit_factor_model"] == 6 * 3
    assert csv.counts["panel_io.load_panel_csv"] == 3
    assert csv.peak_alloc_bytes["panel_io.load_panel_csv"] > 0
    assert all(out.y is None for out in small_runs["csv-estimate"][1].values())  # dropped once checked


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.spans = [["outer", -1, 0.0, 10.0], ["inner", 0, 1.0, 4.0], ["inner", 0, 5.0, 6.0], ["leaf", 1, 2.0, 3.0]]
    assert rec.self_seconds() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_installed_restores_the_original_functions():
    before = montecarlo.fit_factor_model
    with spans.installed(spans.Recorder()):
        assert montecarlo.fit_factor_model is not before
    assert montecarlo.fit_factor_model is before


# -- each check rejects a deliberately wrong value -----------------------------


def first_record(outputs, estimator):
    return next(r for r in outputs[0].records if r.estimator == estimator)


def redraw(workload, index=0):
    panel = workloads.dgp.draw(workload.config, np.random.SeedSequence([workload.master_seed(index), 0]))
    return panel.outcome, panel.regressors


def test_pooled_check_rejects_a_wrong_slope(small_runs):
    workload, outputs, _, _ = small_runs["mc-fixed-4d"]
    y, xs = redraw(workload)
    for kind in ("ols", "within"):
        rec = first_record(outputs, kind)
        assert checks.check_pooled(kind, rec.estimate, y, xs, demean=kind == "within") == []
        wrong = (rec.estimate[0] * (1 + 1e-6),)
        assert checks.check_pooled(kind, wrong, y, xs, demean=kind == "within")
    assert checks.check_pooled("within", first_record(outputs, "ols").estimate, y, xs, demean=True)


def test_factor_check_rejects_a_wrong_slope(small_runs):
    workload, outputs, _, _ = small_runs["mc-growing-14"]
    y, xs = redraw(workload)
    rec = first_record(outputs, "factor2")
    assert checks.check_factor_profile("factor2", rec.estimate, y, xs, 2, 2) == []
    assert checks.check_factor_profile("factor2", (rec.estimate[0] + 0.02,), y, xs, 2, 2)


def test_hac_check_rejects_a_wrong_variance(small_runs):
    for name in ("mc-fixed-4d", "csv-estimate"):
        _, _, recorder, _ = small_runs[name]
        args, kwargs, result = recorder.captured["inference.var_hac"][-1]
        assert checks.check_hac([(args, kwargs, result)]) == []
        assert checks.check_hac([(args, kwargs, result * 1.001)])
    assert checks.check_hac([])


def test_weights_check_rejects_bad_rows(small_runs):
    _, _, recorder, _ = small_runs["mc-growing-14"]
    args, kwargs, weight_set = recorder.captured["kernel_fe.kernel_weights"][0]
    assert checks.check_weights([(args, kwargs, weight_set)]) == []
    for damage in ("negative", "row_sum"):
        w = {d: m.copy() for d, m in weight_set.weights.items()}
        if damage == "negative":
            w[1][0, 1] = -w[1][0, 1] - 1e-3
            w[1][0, 0] -= 2 * w[1][0, 1]  # keep the row sum at 1
        else:
            w[1][0] *= 1.0 + 1e-9
        assert checks.check_weights([(args, kwargs, replace(weight_set, weights=w))]), damage


def test_csv_check_rejects_a_changed_cell_or_label(tmp_path):
    workload = workloads.CsvWorkload(shape=(5, 4, 6))
    workload.prepare(3, tmp_path)
    try:
        out = workload.run_round(0)
    finally:
        workload.cleanup()
    assert checks.check_loaded_panel(out.frame, out.y, out.xs, workload.y, workload.xs, workload.labels) == []
    y = out.y.copy()
    y[1, 2, 3] = np.nextafter(y[1, 2, 3], np.inf)
    assert checks.check_loaded_panel(out.frame, y, out.xs, workload.y, workload.xs, workload.labels)
    xs = [out.xs[0], out.xs[1].copy()]
    xs[1][0, 0, 0] += 1.0
    assert checks.check_loaded_panel(out.frame, out.y, xs, workload.y, workload.xs, workload.labels)
    labels = [list(reversed(workload.labels[0]))] + workload.labels[1:]
    assert checks.check_loaded_panel(out.frame, out.y, out.xs, workload.y, workload.xs, labels)


def test_estimate_checks_reject_wrong_reports(small_runs):
    _, outputs, _, _ = small_runs["csv-estimate"]
    report = outputs[0].reports["ic"]
    assert checks.check_standard_errors("ic", report.se) == []
    for se in ([0.0, 1.0], [np.nan, 1.0], [-1.0, 1.0], []):
        assert checks.check_standard_errors("ic", se)
    truth = report.beta + 2 * report.se
    assert checks.check_near_truth("ic", report.beta, report.se, truth) == []
    assert checks.check_near_truth("ic", report.beta - 4 * report.se, report.se, truth)


def test_monte_carlo_property_checks_reject_wrong_orderings():
    rng = np.random.default_rng(0)
    centered = rng.standard_normal(100) * 0.01
    biased = centered + 0.05
    assert checks.check_band_brackets_zero("ic", centered) == []
    assert checks.check_band_brackets_zero("ic", biased)
    assert checks.check_rmse_below("ic", centered, {"factor1": biased}) == []
    assert checks.check_rmse_below("ic", biased, {"factor1": centered})
    assert checks.check_bias_below("ic", centered, "ols", biased + 0.3) == []
    assert checks.check_bias_below("ic", biased, "ols", centered)


# -- whole runs -----------------------------------------------------------------


@pytest.fixture
def quick_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(run, "DATA_DIR", tmp_path / "data")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def small_fixed_4d():
    workload = workloads.mc_fixed_4d(size=6)
    workload.properties = lambda errors: []  # see test_small_workloads_pass_every_check
    return workload


def test_run_reports_every_metric_both_ways(quick_run):
    for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        details, status = run.run_workload(small_fixed_4d(), 3, 0.2, trace)
        assert status == 0 and details["result"]["correct"]
        assert set(details["result"]["metrics"]) == {name for name, _ in expected}
        assert details["result"]["attempted"] % 8 == 0 and details["result"]["failed"] == 0
    assert (quick_run / "results" / "mc-fixed-4d.trace.json").is_file()


def test_a_wrong_program_output_fails_the_run(quick_run, monkeypatch):
    original = montecarlo.pooled_ols
    monkeypatch.setattr(montecarlo, "pooled_ols", lambda y, x: original(y, x) * 1.001)
    details, status = run.run_workload(small_fixed_4d(), 3, 0.2, False)
    assert status == 1 and not details["result"]["correct"]
    assert any("ols" in f for f in details["check_failures"])


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "data", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc-fixed-4d", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
