"""The simulation study scripts run end to end on tiny panels."""

import importlib.util
from pathlib import Path

from tensorfe import montecarlo
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
    assert [line.split()[0] for line in bands] == [s.name for s in study.study_specs(1.2, 0.2)]


def test_coverage_study_goes_on_past_an_estimator_that_always_fails(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise EstimationError("synthetic")

    monkeypatch.setattr(montecarlo, "kernel_fe_estimate", failing)
    study = load_script("coverage_study")
    assert study.main(["--sizes", "6,8", "--rounds", "2", "--progress-every", "0"]) == 0
    out = capsys.readouterr().out
    assert "8^3" in out
    assert out.count("[+nan, +nan]  every round failed") == 4  # ker and ic at both sizes


def test_fixed_bias_study_prints_every_estimator(capsys):
    study = load_script("fixed_bias_study")
    assert study.main(["--size", "8", "--rounds", "2", "--progress-every", "0"]) == 0
    out = capsys.readouterr().out
    for spec in study.study_specs(8):
        assert spec.name in out
