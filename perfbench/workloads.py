"""The benchmark's workloads: how each builds its inputs, runs one round and is checked.

Every workload runs whole rounds of the same operations.  A Monte-Carlo round
is one ``run_monte_carlo`` call with ``rounds=1`` and ``threads=1``, so each
round draws a fresh panel from its own master seed; an operation is one
estimator on that panel.  A CSV round loads the panel file once and runs four
``estimate_panel`` fits on it; each of the five calls is one operation.

The harness in ``run.py`` calls ``prepare`` once, then ``run_round`` (the
timed part) and ``after_round`` for every round, then ``operations``,
``operation_seconds`` and ``check`` on the collected outputs, and finally
``cleanup``.

Inputs depend only on the run's ``--seed``: round ``i`` of a Monte-Carlo run
with seed ``n`` uses master seed ``n * 1_000_000 + i``, and the CSV panel is
drawn from ``SeedSequence([n, 1])`` (growing design) and
``SeedSequence([n, 2])`` (promotion indicator and labels).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tensorfe import dgp, montecarlo, panel_io
from tensorfe.errors import EstimationError, PanelFormatError, RankError, TensorShapeError
from tensorfe.montecarlo import EstimatorSpec

import checks

DOMAIN_ERRORS = (EstimationError, PanelFormatError, RankError, TensorShapeError, np.linalg.LinAlgError)
SEED_STRIDE = 1_000_000


class MonteCarloWorkload:
    """``run_monte_carlo`` on a built-in design, one round per call."""

    def __init__(self, name: str, config: dgp.DgpConfig, specs: list[EstimatorSpec], properties):
        self.name = name
        self.config = config
        self.specs = specs
        self.properties = properties  # callable(errors by estimator) -> failure messages
        self.seed = 0

    def prepare(self, seed: int, data_dir: Path) -> None:
        self.seed = seed

    def cleanup(self) -> None:
        pass

    def master_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def run_round(self, index: int):
        return montecarlo.run_monte_carlo(
            self.config, self.specs, rounds=1, master_seed=self.master_seed(index), threads=1
        )

    def after_round(self, index: int, summary) -> list[str]:
        return []

    def operations(self, summary) -> tuple[int, int]:
        return len(summary.records), sum(1 for r in summary.records if r.failed)

    def operation_seconds(self, summary) -> dict[str, float]:
        return {}

    def check(self, rounds: dict[int, object]) -> list[str]:
        return self.check_rounds(rounds) + self.check_properties(rounds)

    def check_rounds(self, rounds: dict[int, object]) -> list[str]:
        """Per-record checks against the re-drawn panels."""
        failures: list[str] = []
        by_name = {spec.name: spec for spec in self.specs}
        for index, summary in rounds.items():
            panel = dgp.draw(self.config, np.random.SeedSequence([self.master_seed(index), 0]))
            y, xs = panel.outcome, panel.regressors
            for rec in summary.records:
                if rec.failed:
                    continue
                label = f"round {index} {rec.estimator}"
                spec = by_name[rec.estimator]
                failures += checks.check_standard_errors(label, rec.se)
                if spec.kind in ("ols", "within"):
                    failures += checks.check_pooled(label, rec.estimate, y, xs, demean=spec.kind == "within")
                elif spec.kind == "factor" and rec.converged:
                    failures += checks.check_factor_profile(label, rec.estimate, y, xs, spec.flatten_dim, spec.n_factors)
        return failures

    def check_properties(self, rounds: dict[int, object]) -> list[str]:
        """Method properties over all rounds; they hold at the benchmark's sizes, not at toy sizes."""
        truth = float(self.config.beta_true)
        errors: dict[str, list[float]] = {spec.name: [] for spec in self.specs}
        for summary in rounds.values():
            for rec in summary.records:
                if not rec.failed:
                    errors[rec.estimator].append(rec.estimate[0] - truth)
        return self.properties(errors)


def _growing_properties(errors) -> list[str]:
    factors = {name: errs for name, errs in errors.items() if name.startswith("factor")}
    return checks.check_band_brackets_zero("ic", errors["ic"]) + checks.check_rmse_below("ic", errors["ic"], factors)


def _fixed_properties(errors) -> list[str]:
    return checks.check_bias_below("ic", errors["ic"], "ols", errors["ols"])


def mc_growing(size: int = 40) -> MonteCarloWorkload:
    """The paper's headline battery on the growing design."""
    specs = [
        EstimatorSpec(name="ker", kind="ker", bandwidth=0.2),
        EstimatorSpec(name="ic", kind="ic", bandwidth=1.2, ranks=(4, 4, 4), effects="kernel"),
    ] + [EstimatorSpec(name=f"factor{d}", kind="factor", flatten_dim=d) for d in (1, 2, 3)]
    config = dgp.DgpConfig(design="growing", dims=(size,) * 3)
    return MonteCarloWorkload(f"mc-growing-{size}", config, specs, _growing_properties)


def mc_fixed_4d(size: int = 12) -> MonteCarloWorkload:
    """Order-4 fixed design; ``ker`` and ``ic`` share one indicator-kernel fit."""
    kernel = dict(kernel="indicator", bandwidth=1.0)
    specs = (
        [EstimatorSpec(name="ols", kind="ols"), EstimatorSpec(name="within", kind="within")]
        + [EstimatorSpec(name=f"factor{d}", kind="factor", flatten_dim=d) for d in (1, 2, 3, 4)]
        + [
            EstimatorSpec(name="ic", kind="ic", ranks=(2, size, size, size), **kernel),
            EstimatorSpec(name="ker", kind="ker", **kernel),
        ]
    )
    config = dgp.DgpConfig(design="fixed", dims=(size,) * 4)
    return MonteCarloWorkload("mc-fixed-4d", config, specs, _fixed_properties)


@dataclass
class CsvRound:
    frame: object
    y: np.ndarray
    xs: list
    reports: dict
    seconds: dict
    failed: int = 0


class CsvWorkload:
    """``load_panel_csv`` then four ``estimate_panel`` fits on a store x product x week panel."""

    name = "csv-estimate"
    index_cols = ("store", "product", "week")
    x_cols = ("price", "promo")
    truth = (1.0, -0.5)

    def __init__(self, shape=(80, 30, 100)):
        self.shape = tuple(shape)
        self.specs = [
            EstimatorSpec(name="ic", kind="ic", bandwidth=1.2, ranks=(4, 4, 4), effects="kernel", lags=2),
            EstimatorSpec(name="ic-split", kind="ic", bandwidth=1.2, ranks=(4, 4, 4), split=True),
            EstimatorSpec(name="factor", kind="factor", flatten_dim=1),
            EstimatorSpec(name="ik", kind="ik", bandwidth=0.5),
        ]
        self.path: Path | None = None

    def prepare(self, seed: int, data_dir: Path) -> None:
        """Draw the panel and write it as a long-format CSV sorted by store, product, week."""
        panel = dgp.draw(dgp.DgpConfig(design="growing", dims=self.shape), np.random.SeedSequence([seed, 1]))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        promo = (rng.random(self.shape) < 0.25).astype(np.float64)
        price = panel.regressors[0]
        self.y = panel.outcome + self.truth[1] * promo  # the draw already carries slope 1.0 on price
        self.xs = [price, promo]
        stores = np.sort(rng.choice(9000, self.shape[0], replace=False) + 1000)
        products = np.sort(rng.choice(900000, self.shape[1], replace=False) + 100000)
        self.labels = [[str(s) for s in stores], [str(p) for p in products], [str(w + 1) for w in range(self.shape[2])]]

        data_dir.mkdir(parents=True, exist_ok=True)
        self.path = data_dir / f"panel-{os.getpid()}.csv"
        columns = [t.ravel().tolist() for t in [self.y] + self.xs]
        lines = [",".join(self.index_cols + ("sales",) + self.x_cols) + "\n"]
        cell = 0
        for store in self.labels[0]:
            for product in self.labels[1]:
                prefix = f"{store},{product},"
                for week in self.labels[2]:
                    lines.append(prefix + week + "," + ",".join(repr(col[cell]) for col in columns) + "\n")
                    cell += 1
        self.path.write_text("".join(lines))

    def cleanup(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)

    def run_round(self, index: int) -> CsvRound:
        out = CsvRound(frame=None, y=None, xs=[], reports={}, seconds={})
        start = time.perf_counter()
        try:
            out.frame, out.y, out.xs = panel_io.load_panel_csv(self.path, self.index_cols, "sales", self.x_cols)
        except DOMAIN_ERRORS:
            out.failed = 1 + len(self.specs)
            return out
        out.seconds["csv_load_s"] = time.perf_counter() - start
        for spec in self.specs:
            start = time.perf_counter()
            try:
                out.reports[spec.name] = montecarlo.estimate_panel(out.y, out.xs, spec)
            except DOMAIN_ERRORS:
                out.failed += 1
                continue
            out.seconds[f"estimate_s.{spec.name}"] = time.perf_counter() - start
        return out

    def after_round(self, index: int, out: CsvRound) -> list[str]:
        """Check the load at once and drop the loaded tensors.

        Retained rounds would otherwise add about 6 MB each to the process's
        peak memory, and the number of rounds depends on the program's speed.
        """
        if out.frame is None:
            return []
        failures = checks.check_loaded_panel(out.frame, out.y, out.xs, self.y, self.xs, self.labels)
        out.frame = out.y = out.xs = None
        return [f"round {index} {failure}" for failure in failures]

    def operations(self, out: CsvRound) -> tuple[int, int]:
        return 1 + len(self.specs), out.failed

    def operation_seconds(self, out: CsvRound) -> dict[str, float]:
        return out.seconds

    def check(self, rounds: dict[int, CsvRound]) -> list[str]:
        return self.check_rounds(rounds) + self.check_properties(rounds)

    def check_rounds(self, rounds: dict[int, CsvRound]) -> list[str]:
        """SEs are valid and the factor slope minimises its profile objective (the load is checked in ``after_round``)."""
        failures: list[str] = []
        factor_spec = next(s for s in self.specs if s.kind == "factor")
        for index, out in rounds.items():
            for name, report in out.reports.items():
                failures += checks.check_standard_errors(f"round {index} {name}", report.se)
            factor = out.reports.get(factor_spec.name)
            if factor is not None and factor.diagnostics.get("converged", False):
                failures += checks.check_factor_profile(
                    f"round {index} {factor_spec.name}", factor.beta, self.y, self.xs,
                    factor_spec.flatten_dim, factor_spec.n_factors,
                )
        return failures

    def check_properties(self, rounds: dict[int, CsvRound]) -> list[str]:
        """The kernel-weighted and corrected fits land within a few SEs of the true slopes."""
        failures: list[str] = []
        for index, out in rounds.items():
            for name in ("ic", "ic-split", "ik"):
                if name in out.reports:
                    report = out.reports[name]
                    failures += checks.check_near_truth(f"round {index} {name}", report.beta, report.se, self.truth)
        return failures


WORKLOADS = {"mc-growing-40": mc_growing, "mc-fixed-4d": mc_fixed_4d, "csv-estimate": CsvWorkload}
NAMES = tuple(WORKLOADS)


def by_name(name: str):
    """The workload called ``name``, at its benchmark size."""
    return WORKLOADS[name]()
