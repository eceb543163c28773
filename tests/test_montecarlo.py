"""Monte Carlo driver: determinism, summaries, failure accounting."""

import dataclasses
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tensorfe import montecarlo
from tensorfe.dgp import DgpConfig, draw
from tensorfe.errors import EstimationError, RankError
from tensorfe.factor import fit_factor_model, residual_proxies
from tensorfe.inference import pooled_ols
from tensorfe.kernel_fe import kernel_fe_estimate, kernel_weights, within_projections
from tensorfe.montecarlo import (
    EstimatorSpec,
    RoundRecord,
    estimate_panel,
    run_monte_carlo,
    run_round,
    summarize,
)

CFG_SMALL = DgpConfig(dims=(8, 8, 8))


def record(estimator, estimate, *, idx=0, se=0.1, failed=False, converged=True):
    return RoundRecord(
        round_index=idx,
        estimator=estimator,
        estimate=(estimate,),
        se=(se,),
        ci_lower=(estimate - 1.96 * se,),
        ci_upper=(estimate + 1.96 * se,),
        converged=converged,
        failed=failed,
        message="" if not failed else "EstimationError: synthetic",
        seconds=0.0,
    )


# -- summaries ----------------------------------------------------------------


def test_summary_closed_form_for_symmetric_pair():
    c = 0.25
    rows = summarize([record("a", 1.0 + c), record("a", 1.0 - c, idx=1)], 1.0)
    (row,) = rows
    assert row.bias == pytest.approx(0.0, abs=1e-15)
    assert row.sd == pytest.approx(c * np.sqrt(2.0), abs=1e-12)
    assert row.rmse == pytest.approx(c * np.sqrt(2.0), abs=1e-12)
    assert row.ok == 2


def test_single_round_has_zero_spread():
    (row,) = summarize([record("a", 1.3)], 1.0)
    assert row.sd == 0.0
    assert row.rmse == pytest.approx(abs(row.bias))
    assert row.bias == pytest.approx(0.3)


@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=40), st.floats(-1.0, 1.0))
@settings(max_examples=50)
def test_rmse_decomposition_identity(estimates, beta_true):
    rows = summarize([record("a", e, idx=i) for i, e in enumerate(estimates)], beta_true)
    (row,) = rows
    assert row.rmse**2 == pytest.approx(row.bias**2 + row.sd**2, abs=1e-10)


def test_summary_counts_coverage_from_intervals():
    rows = summarize(
        [record("a", 1.0, se=0.1), record("a", 2.0, idx=1, se=0.1)],
        1.0,
    )
    assert rows[0].coverage == pytest.approx(0.5)


def test_summary_quantile_band():
    estimates = 1.0 + np.linspace(-0.1, 0.1, 101)
    rows = summarize([record("a", e, idx=i) for i, e in enumerate(estimates)], 1.0)
    (row,) = rows
    assert row.bias_q025 == pytest.approx(np.quantile(estimates - 1.0, 0.025), abs=1e-12)
    assert row.bias_q975 == pytest.approx(np.quantile(estimates - 1.0, 0.975), abs=1e-12)


def test_failed_rounds_are_excluded_from_moments():
    rows = summarize(
        [
            record("a", 1.1),
            record("a", float("nan"), idx=1, failed=True),
            record("a", 0.9, idx=2, converged=False),
        ],
        1.0,
    )
    (row,) = rows
    assert row.failed == 1
    assert row.nonconverged == 1
    assert row.ok == 2
    assert row.bias == pytest.approx(0.0, abs=1e-12)


def summary_by_the_array_formulas(records, beta_true, specs):
    """Every ``McRow`` field by array statistics over the ok records, whatever their number."""
    target = float(beta_true)
    rows = []
    for spec in specs:
        recs = [r for r in records if r.estimator == spec.name]
        ok = [r for r in recs if not r.failed]
        est = np.array([r.estimate[0] for r in ok])
        ses = np.array([r.se[0] for r in ok])
        cover = np.array([r.ci_lower[0] <= target <= r.ci_upper[0] for r in ok]) if ok else np.array([])
        q_lo, q_hi = np.quantile(est - target, [0.025, 0.975]) if ok else (float("nan"), float("nan"))
        bias = float(est.mean() - target) if ok else float("nan")
        sd = float(est.std(ddof=1)) if len(ok) > 1 else (0.0 if ok else float("nan"))
        rows.append((
            spec.name, len(recs), len(ok), len(recs) - len(ok),
            sum(1 for r in recs if not r.converged and not r.failed),
            bias, sd, float(np.hypot(bias, sd)) if ok else float("nan"),
            float(cover.mean()) if ok else float("nan"), float(ses.mean()) if ok else float("nan"),
            spec.level, float(np.mean([r.seconds for r in recs])) if recs else 0.0, float(q_lo), float(q_hi),
        ))
    return rows


@pytest.mark.parametrize("n_rounds", [1, 2, 40])
def test_summary_fields_equal_the_array_formulas(n_rounds):
    """Every ``summarize`` field equals the array formulas for one, two and many rounds.

    Estimator ``a`` has every round ok, ``b`` fails its first round and ``c``
    has no records at all.
    """
    rng = np.random.default_rng(n_rounds)
    records = []
    for i in range(n_rounds):
        for name in ("a", "b"):
            est, se = 1.0 + 0.3 * rng.standard_normal(), 0.05 + 0.2 * rng.random()
            rec = record(name, est, idx=i, se=se, converged=bool(rng.random() < 0.8))
            rec.seconds = float(rng.random())
            if name == "b" and i == 0:
                rec = record(name, float("nan"), idx=i, failed=True, converged=False)
            records.append(rec)
    specs = [EstimatorSpec(name, "ols", level=0.9) for name in ("a", "b", "c")]
    rows = summarize(records, 1.0, specs)
    expected = summary_by_the_array_formulas(records, 1.0, specs)
    for row, want in zip(rows, expected, strict=True):
        np.testing.assert_equal(dataclasses.astuple(row), want)


# -- the driver ---------------------------------------------------------------


SPECS_SMALL = [
    EstimatorSpec("ols", "ols"),
    EstimatorSpec("factor1", "factor", n_factors=2),
]


def test_rounds_are_seeded_independently():
    full = run_monte_carlo(CFG_SMALL, SPECS_SMALL, 6, master_seed=4)
    short = run_monte_carlo(CFG_SMALL, SPECS_SMALL, 3, master_seed=4)
    head = [r for r in full.records if r.round_index < 3]
    assert len(head) == len(short.records)
    for a, b in zip(sorted(head, key=lambda r: (r.round_index, r.estimator)),
                    sorted(short.records, key=lambda r: (r.round_index, r.estimator))):
        assert a.estimator == b.estimator
        assert a.estimate == b.estimate


def test_thread_count_does_not_change_results():
    serial = run_monte_carlo(CFG_SMALL, SPECS_SMALL, 4, master_seed=5, threads=1)
    parallel = run_monte_carlo(CFG_SMALL, SPECS_SMALL, 4, master_seed=5, threads=2)
    ser = {(r.round_index, r.estimator): r.estimate for r in serial.records}
    par = {(r.round_index, r.estimator): r.estimate for r in parallel.records}
    assert ser == par


def test_importing_the_package_leaves_the_worker_pool_modules_unloaded():
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    probe = "import sys, tensorfe; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_failures_are_recorded_not_raised():
    config = DgpConfig(dims=(6, 6, 6))
    specs = [EstimatorSpec("ok", "ols"), EstimatorSpec("bad", "ic", ranks=(6, 6, 6))]
    summary = run_monte_carlo(config, specs, 3, master_seed=6)
    bad = summary.row("bad")
    assert bad.failed == 3
    assert np.isnan(bad.bias)
    assert summary.row("ok").ok == 3
    failed_records = [r for r in summary.records if r.failed]
    assert [r.estimator for r in failed_records] == ["bad"] * 3
    # Every field of a failed record: NaN per coefficient, not converged, and the error as "TypeName: text".
    for rec in failed_records:
        panel = draw(config, np.random.SeedSequence([6, rec.round_index]))
        with pytest.raises(EstimationError) as raised:
            estimate_panel(panel.outcome, panel.regressors, specs[1])
        for values in (rec.estimate, rec.se, rec.ci_lower, rec.ci_upper):
            assert isinstance(values, tuple) and len(values) == len(panel.regressors)
            assert all(np.isnan(v) for v in values)
        assert rec.converged is False and rec.failed is True
        assert rec.message == f"{type(raised.value).__name__}: {raised.value}"
        assert rec.seconds > 0.0


def test_progress_stream_receives_interim_summaries():
    stream = io.StringIO()
    run_monte_carlo(CFG_SMALL, SPECS_SMALL, 4, master_seed=7, progress_every=2, progress_stream=stream)
    text = stream.getvalue()
    assert "[2/4]" in text
    assert "ols" in text and "factor1" in text
    assert "bias" in text


def test_driver_validates_inputs():
    with pytest.raises(ValueError):
        run_monte_carlo(CFG_SMALL, SPECS_SMALL, 0)
    with pytest.raises(ValueError):
        run_monte_carlo(CFG_SMALL, [EstimatorSpec("dup", "ols"), EstimatorSpec("dup", "within")], 2)


def test_format_table_lists_every_estimator():
    summary = run_monte_carlo(CFG_SMALL, SPECS_SMALL, 2, master_seed=8)
    table = summary.format_table()
    for spec in SPECS_SMALL:
        assert spec.name in table
    assert "bias" in table and "cover" in table and "rmse" in table


def test_format_table_counts_successful_and_failed_rounds_apart():
    records = [record("ols", 1.0 + 0.01 * i, idx=i, failed=i == 3) for i in range(4)]
    summary = montecarlo.McSummary(CFG_SMALL, 0, 4, summarize(records, 1.0), records)
    header, _, row = summary.format_table().splitlines()
    assert header.split()[:3] == ["estimator", "ok", "fail"]
    assert row.split()[:3] == ["ols", "3", "1"]


# -- per-panel estimation -----------------------------------------------------


def test_estimate_panel_ols_equals_pooled_ols():
    panel = draw(CFG_SMALL, np.random.SeedSequence([3]))
    report = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("ols", "ols"))
    assert_allclose(report.beta, pooled_ols(panel.outcome, panel.regressors), atol=1e-14)
    assert report.method == "ols"


def test_estimate_panel_kernel_matches_manual_pipeline():
    panel = draw(DgpConfig(dims=(10, 10, 10)), np.random.SeedSequence([4]))
    y, xs = panel.outcome, panel.regressors
    spec = EstimatorSpec("ker", "ker", bandwidth=0.8)
    report = estimate_panel(y, xs, spec)

    prelim = fit_factor_model(y, xs, spec.prelim_dim, spec.n_factors)
    resid = y - sum(b * xk for b, xk in zip(prelim.beta, xs))
    proxies = residual_proxies(resid, spec.n_factors)
    projections = within_projections(
        kernel_weights(proxies, spec.kernel, spec.bandwidth), spec.projection
    )
    manual = kernel_fe_estimate(y, xs, projections)
    assert_array_equal(report.beta, manual.beta)


def test_estimate_panel_honors_variance_model():
    panel = draw(CFG_SMALL, np.random.SeedSequence([5]))
    homo = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("o", "ols", vcov="homoskedastic"))
    hac = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("o", "ols", vcov="hac", lags=1))
    assert homo.variance_model == "homoskedastic"
    assert hac.variance_model == "hac"
    assert homo.se[0] != hac.se[0]
    assert_array_equal(homo.beta, hac.beta)


def test_optimal_projection_with_full_rank_weights_raises():
    panel = draw(DgpConfig(dims=(30, 30, 30)), np.random.SeedSequence([0]))
    spec = EstimatorSpec("keropt", "ker", projection="optimal", bandwidth=1.0)
    with pytest.raises(EstimationError):
        estimate_panel(panel.outcome, panel.regressors, spec)


def counting_factor_fits(monkeypatch, full_shape, fold_max_iter=None):
    """Count ``fit_factor_model`` calls; optionally cap iterations on sub-panel (fold) fits."""
    calls = []
    original = montecarlo.fit_factor_model

    def counted(y, x, *args, **kwargs):
        calls.append(np.shape(y))
        if fold_max_iter is not None and np.shape(y) != full_shape:
            kwargs["max_iter"] = fold_max_iter
        return original(y, x, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "fit_factor_model", counted)
    return calls


def test_split_estimate_fits_factors_only_inside_the_folds(monkeypatch):
    panel = draw(DgpConfig(dims=(10, 10, 12)), np.random.SeedSequence([8]))
    calls = counting_factor_fits(monkeypatch, panel.outcome.shape)
    report = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("ics", "ic", bandwidth=1.0, split=True))
    assert calls == [(10, 10, 6), (10, 10, 6)]
    assert report.diagnostics["converged"] is True


def test_split_estimate_reports_fold_convergence(monkeypatch):
    panel = draw(DgpConfig(dims=(10, 10, 12)), np.random.SeedSequence([8]))
    counting_factor_fits(monkeypatch, panel.outcome.shape, fold_max_iter=1)
    report = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("ics", "ic", bandwidth=1.0, split=True))
    assert report.diagnostics["converged"] is False


# Per-dimension settings, a value every spelling repeats, and the kinds that read each one.
PER_DIM_SETTINGS = {
    "ranks": (3, ("ic",)),
    "proxy_ranks": (2, ("ker", "ik", "ic")),
    "bandwidth": (1.2, ("ker", "ik", "ic")),
    "lags": (2, ("ols", "within", "factor", "ker", "ik", "ic")),
}
PER_DIM_CASES = [(setting, kind) for setting, (_, kinds) in PER_DIM_SETTINGS.items() for kind in kinds]


@pytest.mark.parametrize("setting, kind", PER_DIM_CASES)
def test_per_dim_spellings_give_identical_reports(setting, kind):
    """A scalar, a one-element tuple, a full tuple and a list of one setting are the same spec."""
    panel = draw(DgpConfig(dims=(9, 9, 9)), np.random.SeedSequence([6]))
    value = PER_DIM_SETTINGS[setting][0]
    reports = [
        estimate_panel(panel.outcome, panel.regressors, EstimatorSpec(kind, kind, **{setting: spelling})).to_dict()
        for spelling in (value, (value,), (value,) * 3, [value] * 3, [value])
    ]
    for report in reports[1:]:
        assert report == reports[0]
    for bad in ((value, value), dict.fromkeys((1, 2, 3), value)):
        with pytest.raises(RankError, match=setting.replace("_", " ")):
            estimate_panel(panel.outcome, panel.regressors, EstimatorSpec(kind, kind, **{setting: bad}))


def test_default_proxy_ranks_are_the_factor_count():
    panel = draw(DgpConfig(dims=(9, 9, 9)), np.random.SeedSequence([6]))
    a = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("ik", "ik", proxy_ranks=None, n_factors=2))
    b = estimate_panel(panel.outcome, panel.regressors, EstimatorSpec("ik", "ik", proxy_ranks=(2,), n_factors=2))
    assert_array_equal(a.beta, b.beta)


def test_spellings_of_one_kernel_setting_share_one_fit(monkeypatch):
    """``ker`` and ``ic``'s preliminary fit read the same kernel setting, however it is spelled."""
    calls = {"kernel_fe_estimate": 0, "residual_proxies": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(montecarlo, name, counting(name, getattr(montecarlo, name)))
    specs = [
        EstimatorSpec("ker", "ker", bandwidth=1.0),
        EstimatorSpec("ic", "ic", bandwidth=(1.0,) * 4, proxy_ranks=(2,) * 4),
    ]
    records = run_round(DgpConfig(design="fixed", dims=(6, 6, 6, 6)), 7, 0, specs)
    assert not any(r.failed for r in records)
    assert calls == {"kernel_fe_estimate": 1, "residual_proxies": 1}


def test_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec("x", "magic")
    with pytest.raises(ValueError):
        EstimatorSpec("x", "ic", effects="oracle")
    with pytest.raises(ValueError):
        EstimatorSpec("x", "ols", vcov="bootstrap")
    # Checked when the spec is built, so no battery starts with a setting that fails in its kernel fit.
    with pytest.raises(ValueError, match="unknown kernel family"):
        EstimatorSpec("x", "ker", kernel="cauchy")
    with pytest.raises(ValueError, match="unknown projection variant"):
        EstimatorSpec("x", "ker", projection="best")
    # Cross-fitting truncates the residual; it would silently ignore the kernel effects.
    with pytest.raises(ValueError, match="split"):
        EstimatorSpec("x", "ic", split=True, effects="kernel")


# One spec per estimator kind and effects mode; ``factor`` flattens every dimension.
RELABEL_SPECS = (
    [EstimatorSpec("ols", "ols"), EstimatorSpec("within", "within")]
    + [EstimatorSpec(f"factor{d}", "factor", flatten_dim=d) for d in (1, 2, 3)]
    + [
        EstimatorSpec("ker", "ker", bandwidth=1.2),
        EstimatorSpec("ik", "ik", bandwidth=1.2),
        EstimatorSpec("ic", "ic", bandwidth=1.2, ranks=3),
        EstimatorSpec("ic-kernel", "ic", bandwidth=1.2, ranks=3, effects="kernel"),
        EstimatorSpec("ic-split", "ic", bandwidth=1.2, ranks=3, split=True),
    ]
)


def metamorphic_panel(rng):
    """A growing 14x12x10 draw with K = 2: its regressor and one loading on the effects, drawn from ``rng``."""
    panel = draw(DgpConfig(design="growing", dims=(14, 12, 10)), np.random.SeedSequence([4]))
    return panel.outcome, [panel.regressors[0], rng.standard_normal(panel.shape) + 0.5 * panel.effects]


@pytest.mark.parametrize("spec", RELABEL_SPECS, ids=lambda s: s.name)
def test_relabelling_units_leaves_the_slopes_unchanged(spec):
    """Permuting the units of one dimension, in y and every regressor alike, is not information.

    ``ic-split`` keeps its split dimension in order, because its fold draw
    depends on index order.  A factor fit stops at a tolerance, so its kinds
    may move by far less than that tolerance.
    """
    rng = np.random.default_rng(40)
    y, xs = metamorphic_panel(rng)
    base = estimate_panel(y, xs, spec).beta
    tol = 1e-12 if spec.kind in ("ols", "within") else 1e-7 * max(np.max(np.abs(base)), 1.0)
    for axis, n in enumerate(y.shape):
        if spec.split and axis == y.ndim - 1:
            continue
        perm = rng.permutation(n)
        moved = estimate_panel(np.take(y, perm, axis), [np.take(x, perm, axis) for x in xs], spec).beta
        assert_allclose(moved, base, rtol=0.0, atol=tol, err_msg=f"dimension {axis + 1}")


@pytest.mark.parametrize("spec", RELABEL_SPECS, ids=lambda s: s.name)
def test_scaling_the_outcome_scales_slopes_and_standard_errors(spec):
    """``y -> 3.7 y`` multiplies every slope and standard error by 3.7.

    A factor fit stops at a tolerance, so the kinds that run one may move by
    far less than that tolerance.
    """
    y, xs = metamorphic_panel(np.random.default_rng(40))
    base = estimate_panel(y, xs, spec)
    scaled = estimate_panel(3.7 * y, xs, spec)
    rtol = 1e-12 if spec.kind in ("ols", "within") else 1e-7
    assert_allclose(scaled.beta, 3.7 * base.beta, rtol=rtol)
    assert_allclose(scaled.se, 3.7 * base.se, rtol=rtol)
