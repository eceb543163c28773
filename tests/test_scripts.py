"""The scripts run end to end on tiny panels."""

import importlib.util
import os
from pathlib import Path

import numpy as np

from tensorfe import montecarlo
from tensorfe.factor import fit_factor_model
from tensorfe.errors import EstimationError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_study_prints_each_estimators_band(capsys):
    study = load_script("coverage_study")
    assert study.main(["--sizes", "8", "--rounds", "2", "--progress-every", "0"]) == 0
    bands = capsys.readouterr().out.split("slope error:\n")[1].splitlines()
    assert [line.split()[0] for line in bands] == [s.name for s in study.study_specs("growing", 8, 1.2, 0.2)]


def test_coverage_study_goes_on_past_an_estimator_that_always_fails(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise EstimationError("synthetic")

    monkeypatch.setattr(montecarlo, "kernel_fe_estimate", failing)
    study = load_script("coverage_study")
    assert study.main(["--sizes", "6,8", "--rounds", "2", "--progress-every", "0"]) == 0
    out = capsys.readouterr().out
    assert "8^3" in out
    assert out.count("[+nan, +nan]  every round failed") == 4  # ker and ic at both sizes


def test_coverage_study_runs_the_fixed_battery_with_its_bands(capsys):
    study = load_script("coverage_study")
    assert study.main(["--design", "fixed", "--sizes", "8", "--rounds", "2", "--progress-every", "0"]) == 0
    out = capsys.readouterr().out
    assert "== fixed 8^3" in out
    bands = out.split("slope error:\n")[1].splitlines()
    assert [line.split()[0] for line in bands] == [s.name for s in study.study_specs("fixed", 8, 1.2, 0.2)]


def test_kernel_timing_cases_all_run(monkeypatch):
    monkeypatch.setattr(os, "environ", dict(os.environ))  # the script pins BLAS threads on import
    timing = load_script("kernel_timing")
    names = []
    for name, call in timing.cases():
        call()
        names.append(name)
    assert "dgp.draw/growing-40^3" in names and "dgp.draw/fixed-12^4" in names
    assert "panel_io.load_panel_csv/80x30x100/K2" in names
    assert "inference.corrected_estimate_split/80x30x100/K2/dim3" in names


def test_fit_battery_reference_agrees_with_the_factor_fit():
    battery = load_script("fit_battery")
    y, xs = battery.panel("growing", (8, 7, 6), 2, 0)
    for dim in (1, 2, 3):
        ref_beta, _, converged = battery.reference_als(y, xs, dim, 1)
        assert converged
        assert np.max(np.abs(fit_factor_model(y, xs, dim, 1).beta - ref_beta)) <= battery.BETA_ATOL
