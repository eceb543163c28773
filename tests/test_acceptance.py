"""Acceptance battery: one test (and one printed PASS/FAIL line) per criterion.

The Monte Carlo criteria re-run the full study protocols at a fixed master
seed, so they are slow (229 s single-core in total on a shared 2-vCPU
machine, nearly all of it in the fixtures of criteria 3-5); run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines appear, or pass
``--skip-slow`` to check only the algebraic/exact/property criteria.
"""

import io

import numpy as np
import pytest

from tensorfe.cli import build_parser
from tensorfe.dgp import DgpConfig, draw
from tensorfe.factor import fit_factor_model
from tensorfe.inference import Orthogonalization, corrected_estimate, var_hac
from tensorfe.kernel_fe import (
    kernel_fe_estimate,
    kernel_weights,
    standard_within,
    weighted_within,
    within_projections,
)
from tensorfe.montecarlo import EstimatorSpec, run_monte_carlo, summarize
from tensorfe.tensor_ops import (
    cp_compose,
    flatten,
    hosvd_truncate,
    mode_product,
    multilinear_rank,
    truncated_svd,
    unflatten,
)

MASTER_SEED = 2026
N_ALGEBRA = 100

GROWING_SPECS = [
    EstimatorSpec(name="ker", kind="ker", bandwidth=0.2),
    EstimatorSpec(name="ic", kind="ic", bandwidth=1.2, ranks=(4, 4, 4), effects="kernel"),
    EstimatorSpec(name="factor1", kind="factor", flatten_dim=1),
    EstimatorSpec(name="factor2", kind="factor", flatten_dim=2),
    EstimatorSpec(name="factor3", kind="factor", flatten_dim=3),
]

FIXED_SPECS = [
    EstimatorSpec(name="ols", kind="ols"),
    EstimatorSpec(name="within", kind="within"),
    EstimatorSpec(name="factor1", kind="factor", flatten_dim=1),
    EstimatorSpec(name="factor2", kind="factor", flatten_dim=2),
    EstimatorSpec(name="factor3", kind="factor", flatten_dim=3),
    EstimatorSpec(name="ic_h05", kind="ic", bandwidth=0.05, ranks=(2, 40, 40)),
    EstimatorSpec(name="ic_h10", kind="ic", bandwidth=0.1, ranks=(2, 40, 40)),
]


def report(criterion, label, checks):
    """Print the criterion line, then fail loudly if anything missed."""
    ok = all(bool(v) for _, v in checks)
    print(f"[acceptance {criterion}] {label}: {'PASS' if ok else 'FAIL'}")
    bad = [name for name, v in checks if not v]
    assert not bad, f"criterion {criterion} failed: {bad}"


@pytest.fixture(scope="session")
def growing30():
    cfg = DgpConfig(design="growing", dims=(30, 30, 30), rho=1.0)
    return run_monte_carlo(cfg, GROWING_SPECS, rounds=1000, master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def growing40():
    cfg = DgpConfig(design="growing", dims=(40, 40, 40), rho=1.0)
    return run_monte_carlo(cfg, GROWING_SPECS, rounds=1000, master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def growing50():
    cfg = DgpConfig(design="growing", dims=(50, 50, 50), rho=1.0)
    return run_monte_carlo(cfg, GROWING_SPECS[1:], rounds=500, master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def fixed40():
    cfg = DgpConfig(design="fixed", dims=(40, 40, 40))
    return run_monte_carlo(cfg, FIXED_SPECS, rounds=500, master_seed=MASTER_SEED)


def bias_band(summary, name, max_round=None):
    errs = [
        r.estimate[0] - 1.0
        for r in summary.records
        if r.estimator == name and not r.failed and (max_round is None or r.round_index < max_round)
    ]
    lo, hi = np.quantile(np.asarray(errs), [0.025, 0.975])
    return float(lo), float(hi)


# -- criterion 1: algebraic identities -----------------------------------------


def test_criterion_1_algebraic_suite():
    rng = np.random.default_rng(MASTER_SEED)
    checks = []

    ok = True
    for _ in range(N_ALGEBRA):
        shape = tuple(rng.integers(2, 7, size=int(rng.integers(2, 5))))
        t = rng.standard_normal(shape)
        dim = int(rng.integers(1, len(shape) + 1))
        ok &= np.array_equal(unflatten(flatten(t, dim), dim, shape), t)
    checks.append(("flatten/unflatten round trip", ok))

    ok = True
    for _ in range(N_ALGEBRA):
        shape = tuple(rng.integers(2, 6, size=3))
        t = rng.standard_normal(shape)
        dim = int(rng.integers(1, 4))
        mat = rng.standard_normal((int(rng.integers(2, 6)), shape[dim - 1]))
        lhs = flatten(mode_product(t, mat, dim), dim)
        ok &= np.allclose(lhs, mat @ flatten(t, dim), atol=1e-10)
    checks.append(("mode-product flattening identity", ok))

    ok = True
    for _ in range(N_ALGEBRA):
        shape = tuple(rng.integers(2, 6, size=3))
        t = rng.standard_normal(shape)
        d1, d2 = rng.permutation(3)[:2] + 1
        a = rng.standard_normal((shape[d1 - 1], shape[d1 - 1]))
        b = rng.standard_normal((shape[d2 - 1], shape[d2 - 1]))
        one = mode_product(mode_product(t, a, int(d1)), b, int(d2))
        two = mode_product(mode_product(t, b, int(d2)), a, int(d1))
        ok &= np.allclose(one, two, atol=1e-10)
    checks.append(("mode products commute", ok))

    ok = True
    for _ in range(N_ALGEBRA):
        m = rng.standard_normal((int(rng.integers(3, 9)), int(rng.integers(3, 9))))
        k = int(rng.integers(1, min(m.shape)))
        fit = truncated_svd(m, k)
        tail = np.linalg.svd(m, compute_uv=False)[k:]
        resid = np.linalg.norm(m - fit.compose()) ** 2
        target = float(np.sum(tail**2))
        ok &= abs(fit.residual_norm_sq - target) <= 1e-8 * max(target, 1.0)
        ok &= abs(resid - target) <= 1e-8 * max(target, 1.0)
    checks.append(("truncation residual matches tail energy", ok))

    ok = True
    for _ in range(N_ALGEBRA):
        shape = tuple(rng.integers(4, 8, size=3))
        n_comp = int(rng.integers(1, 4))
        t = cp_compose([rng.standard_normal((n, n_comp)) for n in shape])
        ranks = multilinear_rank(t).ranks
        err = np.linalg.norm(hosvd_truncate(t, ranks) - t)
        ok &= err <= 1e-8 * np.linalg.norm(t)
    checks.append(("multilinear truncation exact at the true ranks", ok))

    report(1, "algebraic suite (100 random instances each)", checks)


# -- criterion 2: exact recovery in noiseless settings -------------------------


def test_criterion_2_exact_recovery():
    rng = np.random.default_rng(MASTER_SEED + 1)
    checks = []

    shape = (14, 12, 10)
    mats = [rng.standard_normal((n, 2)) for n in shape]
    effects = cp_compose(mats)
    x = 0.5 * effects + rng.standard_normal(shape)
    y = x + effects  # slope 1, no noise
    fit_exact = fit_factor_model(y, [x], 1, 2)
    fit_over = fit_factor_model(y, [x], 1, 3)
    checks.append(("factor fit exact at the true rank", abs(fit_exact.beta[0] - 1.0) < 1e-6))
    checks.append(("factor fit exact at an over-estimated rank", abs(fit_over.beta[0] - 1.0) < 1e-6))

    groups = [rng.integers(0, 3, size=n) for n in (15, 14, 13)]
    cells = rng.standard_normal((3, 3, 3))
    g_effects = cells[np.ix_(groups[0], groups[1], groups[2])]
    gx = g_effects + rng.standard_normal((15, 14, 13))
    gy = gx + g_effects
    proxies = {d: g.reshape(-1, 1).astype(float) for d, g in enumerate(groups, start=1)}
    projections = within_projections(kernel_weights(proxies, "indicator", 0.5))
    kfit = kernel_fe_estimate(gy, [gx], projections)
    checks.append(("group-kernel fit exact under exact grouping", abs(kfit.beta[0] - 1.0) < 1e-8))

    bases = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for n in shape]
    gamma = cp_compose([u @ rng.standard_normal((2, 2)) for u in bases])
    eta = rng.standard_normal(shape)
    for d, u in enumerate(bases, start=1):
        eta = mode_product(eta, np.eye(u.shape[0]) - u @ u.T, d)
    span_effects = cp_compose([u @ rng.standard_normal((2, 2)) for u in bases])
    ox = gamma + eta
    oy = ox + span_effects
    orth = Orthogonalization(
        gamma_x=[gamma],
        effects=span_effects,
        gamma_y=0.2 * gamma + span_effects,
        eta=[eta],
        beta_tilde=np.array([0.2]),
        ranks=(2, 2, 2),
    )
    cfit = corrected_estimate(oy, [ox], orth=orth)
    checks.append(("corrected fit exact with oracle nuisances", abs(cfit.beta[0] - 1.0) < 1e-10))

    report(2, "noiseless exact recovery", checks)


# -- criteria 3-5: Monte Carlo batteries ---------------------------------------


@pytest.mark.slow
def test_criterion_3_fixed_design_bias_ordering(fixed40):
    rows = {row.estimator: row for row in fixed40.rows}
    checks = [
        ("factor(dim=1) nearly unbiased", abs(rows["factor1"].bias) < 0.02),
        ("corrected estimate nearly unbiased at h=0.05", abs(rows["ic_h05"].bias) < 0.02),
        ("corrected estimate nearly unbiased at h=0.1", abs(rows["ic_h10"].bias) < 0.02),
        ("pooled OLS visibly biased", rows["ols"].bias > 0.10),
        ("additive within fit visibly biased", rows["within"].bias > 0.10),
        ("factor(dim=2) visibly biased", rows["factor2"].bias > 0.10),
        ("factor(dim=3) visibly biased", rows["factor3"].bias > 0.10),
    ]
    report(3, "fixed design, 500 rounds: bias ordering", checks)


@pytest.mark.slow
def test_criterion_4_growing_design_coverage(growing30, growing40):
    r30 = {row.estimator: row for row in growing30.rows}
    r40 = {row.estimator: row for row in growing40.rows}
    checks = [
        ("corrected coverage at 30^3 in 0.85 +/- 0.05", 0.80 <= r30["ic"].coverage <= 0.90),
        ("uncorrected coverage at 30^3 in 0.48 +/- 0.07", 0.41 <= r30["ker"].coverage <= 0.55),
        ("corrected coverage at 40^3 in 0.92 +/- 0.05", 0.87 <= r40["ic"].coverage <= 0.97),
        ("correction helps at 30^3", r30["ic"].coverage > r30["ker"].coverage),
        ("correction helps at 40^3", r40["ic"].coverage > r40["ker"].coverage),
    ]
    for rows, dim in ((r30, 30), (r40, 40)):
        for name in ("factor1", "factor2", "factor3"):
            checks.append((f"{name} coverage collapses at {dim}^3", rows[name].coverage <= 0.15))
    report(4, "growing design, 1000 rounds: interval coverage", checks)


@pytest.mark.slow
def test_criterion_5_bias_band_sign_pattern(growing30, growing40, growing50):
    checks = []
    for summary, dim, max_round in ((growing30, 30, 500), (growing40, 40, 500), (growing50, 50, None)):
        lo, hi = bias_band(summary, "ic", max_round)
        checks.append((f"corrected band brackets zero at {dim}^3", lo <= 0.0 <= hi))
        for name in ("factor1", "factor2", "factor3"):
            lo, hi = bias_band(summary, name, max_round)
            checks.append((f"{name} band excludes zero at {dim}^3", lo > 0.0 or hi < 0.0))
    report(5, "empirical 95% bias bands, 500 rounds per size", checks)


# -- criterion 6: invariants ----------------------------------------------------


def test_criterion_6_property_suite():
    rng = np.random.default_rng(MASTER_SEED + 2)
    checks = []

    ok_rows = ok_rot = ok_psd = True
    for _ in range(100):
        cols = rng.standard_normal((10, 2))
        h = float(rng.uniform(0.3, 2.0))
        w = kernel_weights({1: cols}, "gaussian", h).weights[1]
        ok_rows &= np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        w_rot = kernel_weights({1: cols @ q}, "gaussian", h).weights[1]
        ok_rot &= np.allclose(w_rot, w, atol=1e-12)
        etas = [rng.standard_normal((6, 6, 6)) for _ in range(2)]
        resid = rng.standard_normal((6, 6, 6))
        vcov = var_hac(etas, resid, (1, 1, 1))
        ok_psd &= np.min(np.linalg.eigvalsh(vcov)) >= -1e-12
    checks.append(("weight rows sum to one", ok_rows))
    checks.append(("weights invariant to orthogonal proxy rotation", ok_rot))
    checks.append(("robust vcov positive semidefinite on every draw", ok_psd))

    t = rng.standard_normal((7, 6, 5))
    uniform = {d: np.zeros((n, 1)) for d, n in enumerate(t.shape, 1)}
    projections = within_projections(kernel_weights(uniform, "gaussian", 1.0))
    checks.append(
        ("uniform weights reduce to the standard within transform",
         np.allclose(weighted_within(t, projections), standard_within(t), atol=1e-12))
    )

    ok_proj = True
    for _ in range(20):
        cols = rng.standard_normal((8, 1))
        w = kernel_weights({1: cols}, "gaussian", 0.8)
        m = within_projections(w, "optimal")[1]
        ok_proj &= np.allclose(m @ m, m, atol=1e-8) and np.allclose(m, m.T, atol=1e-8)
    checks.append(("column-space projectors idempotent and symmetric", ok_proj))

    cfg = DgpConfig(dims=(8, 8, 8))
    specs = [EstimatorSpec("ols", "ols"), EstimatorSpec("factor1", "factor")]
    serial = run_monte_carlo(cfg, specs, 4, master_seed=MASTER_SEED, threads=1)
    parallel = run_monte_carlo(cfg, specs, 4, master_seed=MASTER_SEED, threads=2)
    same = {(r.round_index, r.estimator): r.estimate for r in serial.records} == {
        (r.round_index, r.estimator): r.estimate for r in parallel.records
    }
    checks.append(("estimates identical across thread counts", same))

    report(6, "property suite", checks)


# -- criterion 7: paper-scale parameters ----------------------------------------


def test_criterion_7_full_scale_parameters_accepted():
    checks = []

    cfg = DgpConfig(design="growing", dims=(80, 80, 80), rho=1.0)
    panel = draw(cfg, np.random.SeedSequence([MASTER_SEED, 0]))
    checks.append(("80^3 draw has the right shape", panel.shape == (80, 80, 80)))

    stream = io.StringIO()
    summary = run_monte_carlo(
        cfg, [EstimatorSpec("ols", "ols")], rounds=2, master_seed=MASTER_SEED,
        progress_every=1, progress_stream=stream,
    )
    text = stream.getvalue()
    checks.append(("interim summaries streamed", "[1/2]" in text and "ols" in text))
    checks.append(("all rounds completed", summary.row("ols").ok == 2))

    args = build_parser().parse_args(
        ["simulate", "--dims", "80,80,80", "--rounds", "10000", "--estimators", "ols,within,factor,ker,ic"]
    )
    checks.append(("CLI accepts the full-scale study parameters",
                   args.rounds == 10000 and args.dims == "80,80,80"))

    report(7, "full-scale parameters accepted", checks)
