"""End-to-end command line checks (no subprocesses; main() is called directly)."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorfe.cli import main
from tensorfe.dgp import DgpConfig, draw
from tensorfe.inference import pooled_ols
from tensorfe.panel_io import write_panel_csv

INDEX = ["store", "product", "week"]


@pytest.fixture
def panel_csv(tmp_path):
    panel = draw(DgpConfig(dims=(8, 8, 8)), np.random.SeedSequence([21]))
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel.outcome, panel.regressors, dim_names=INDEX, x_names=["x1"])
    return path, panel


def estimate_args(path, *extra):
    return [
        "estimate",
        "--input", str(path),
        "--index-cols", ",".join(INDEX),
        "--y", "y",
        "--x", "x1",
        *extra,
    ]


def test_simulate_prints_table_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    code = main(
        [
            "simulate",
            "--dims", "6,6,6",
            "--rounds", "3",
            "--estimators", "ols,factor:1",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert "ols" in shown and "factor(dim=1)" in shown
    assert "bias" in shown

    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["estimator"] for r in rows} == {"ols", "factor(dim=1)"}
    for row in rows:
        assert row["design"] == "growing"
        assert row["dims"] == "6x6x6"
        float(row["bias"])
        float(row["bias_q025"])
        float(row["bias_q975"])


def test_simulate_is_reproducible_across_invocations(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["simulate", "--dims", "6,6,6", "--rounds", "2", "--estimators", "ols",
              "--seed", "3", "--out", str(path)])
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("mean_seconds")  # wall-clock timing is not reproducible
        outs.append(rows)
    assert outs[0] == outs[1]


def test_estimate_writes_full_json_report(panel_csv, tmp_path, capsys):
    path, panel = panel_csv
    out = tmp_path / "report.json"
    code = main(estimate_args(path, "--method", "ols", "--out", str(out)))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "ols"
    for key in ("beta", "se", "ci_low", "ci_high", "level", "diagnostics", "n_cells"):
        assert key in payload
    assert_allclose(payload["beta"], pooled_ols(panel.outcome, panel.regressors), atol=1e-12)
    assert payload["ci_low"][0] < payload["beta"][0] < payload["ci_high"][0]
    shown = capsys.readouterr().out
    assert "method: ols" in shown
    assert "x1" in shown  # per-coefficient row uses the CSV column name


def test_estimate_corrected_with_options(panel_csv, tmp_path):
    path, _ = panel_csv
    out = tmp_path / "report.json"
    code = main(
        estimate_args(
            path,
            "--method", "ic",
            "--ranks", "2,2,2",
            "--proxy-rank", "2",
            "--effects", "kernel",
            "--bandwidth", "1.2",
            "--vcov", "homoskedastic",
            "--out", str(out),
        )
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"].startswith("ic")
    assert payload["variance_model"] == "homoskedastic"
    assert np.isfinite(payload["beta"][0])


def test_estimate_split_method(panel_csv, tmp_path):
    path, _ = panel_csv
    out = tmp_path / "report.json"
    code = main(
        estimate_args(
            path,
            "--method", "ic-split",
            "--ranks", "2,2,2",
            "--bandwidth", "1.2",
            "--out", str(out),
        )
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"].startswith("ic-split")


def test_split_method_rejects_kernel_effects(panel_csv, capsys):
    path, _ = panel_csv
    code = main(estimate_args(path, "--method", "ic-split", "--effects", "kernel", "--bandwidth", "1.2"))
    assert code == 1
    assert "effects='hosvd' only" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [["--lags", "2,"], {"lags": [2]}, {"lags": 2}])
def test_one_lag_spelling_is_every_dimensions_lag(panel_csv, tmp_path, spelling):
    """One lag is one lag for every dimension, whether given as ``2``, ``2,`` or ``[2]``."""
    path, _ = panel_csv

    def report(extra, config=None):
        out = tmp_path / "report.json"
        argv = estimate_args(path, "--method", "ker", "--bandwidth", "1.2", "--out", str(out), *extra)
        if config is not None:
            cfg = tmp_path / "defaults.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg), *argv]
        assert main(argv) == 0
        return json.loads(out.read_text())

    expected = report(["--lags", "2"])
    assert expected["se"] != report(["--lags", "1"])["se"]
    got = report(spelling) if isinstance(spelling, list) else report([], config=spelling)
    assert got == expected


def test_keropt_with_full_rank_weights_names_the_projection(tmp_path, capsys):
    panel = draw(DgpConfig(dims=(12, 10, 8)), np.random.SeedSequence([21]))
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel.outcome, panel.regressors, dim_names=INDEX, x_names=["x1"])
    code = main(estimate_args(path, "--method", "keropt", "--bandwidth", "1.0"))
    assert code == 1
    err = capsys.readouterr().err
    assert "optimal projection" in err
    assert "dimension 1's kernel weights have full rank" in err


def test_diagnose_reports_residual_spectra(panel_csv, tmp_path, capsys):
    path, panel = panel_csv
    out = tmp_path / "diag.json"
    code = main(
        [
            "diagnose",
            "--input", str(path),
            "--index-cols", ",".join(INDEX),
            "--y", "y",
            "--x", "x1",
            "--out", str(out),
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert "pooled OLS" in shown
    assert "multilinear rank" in shown
    payload = json.loads(out.read_text())
    assert payload["shape"] == [8, 8, 8]
    assert len(payload["ols_residual"]["spectra"]) == 3
    assert_allclose(payload["ols_beta"], pooled_ols(panel.outcome, panel.regressors), atol=1e-12)


def test_config_file_supplies_defaults(panel_csv, tmp_path, capsys):
    path, _ = panel_csv
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"method": "ker", "bandwidth": 0.8}))
    code = main(["--config", str(cfg), *estimate_args(path)])
    assert code == 0
    assert "ker(h=0.8)" in capsys.readouterr().out


def test_explicit_flags_beat_config_defaults(panel_csv, tmp_path, capsys):
    path, _ = panel_csv
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"method": "ker", "bandwidth": 0.8}))
    code = main(["--config", str(cfg), *estimate_args(path, "--method", "ols")])
    assert code == 0
    assert "method: ols" in capsys.readouterr().out


def test_malformed_config_fails_cleanly(panel_csv, tmp_path, capsys):
    path, _ = panel_csv
    cfg = tmp_path / "defaults.json"
    cfg.write_text("{not json")
    code = main(["--config", str(cfg), *estimate_args(path)])
    assert code == 1
    assert capsys.readouterr().err


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    code = main(estimate_args(tmp_path / "nope.csv"))
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("config", [None, {"bandwidths": []}])
def test_simulate_rejects_empty_bandwidths(tmp_path, capsys, config):
    """An empty bandwidth list fails for every estimator, not only for those that read a bandwidth."""
    argv = ["simulate", "--dims", "6,6,6", "--rounds", "1", "--estimators", "ols,within"]
    if config is None:
        argv += ["--bandwidths", ","]
    else:
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    code = main(argv)
    assert code == 1
    assert "--bandwidths" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_records_out_contains_every_round(tmp_path):
    records = tmp_path / "records.csv"
    main(["simulate", "--dims", "6,6,6", "--rounds", "3", "--estimators", "ols",
          "--seed", "2", "--records-out", str(records)])
    with records.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {r["round"] for r in rows} == {"0", "1", "2"}
    assert all(r["failed"] == "0" for r in rows)
