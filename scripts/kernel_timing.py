#!/usr/bin/env python3
"""Time the multilinear kernels on one BLAS thread and print the timings as JSON.

Covers ``tensor_ops.mode_product`` on every mode of a 40^3, a 12^4 and an
80x30x100 tensor (square ``N_d x N_d`` factor), ``tensor_ops.cp_compose`` on
the loadings of both simulation designs (growing 40^3 with 2 components,
fixed 12^4 with 12), ``dgp.draw`` for both designs at those sizes, and
``panel_io.load_panel_csv`` on an 80x30x100 panel with two regressors (the
shape of the ``csv-estimate`` benchmark workload), written once by
``write_panel_csv`` to a temporary directory that is removed afterwards, and
``inference.corrected_estimate_split`` on that panel (ranks 4, split dimension
3 as in the workload's ``ic-split``, pooled-OLS preliminary slopes, so the
fold loop is timed without the kernel fits).  Each
figure is the minimum over ``REPEAT`` runs of the mean time of one call,
with the call count per run picked by ``timeit``'s autorange (at least
0.2 s per run), so a change to one kernel can be compared apart from the
round-to-round noise of a whole Monte-Carlo round.

Example:
    PYTHONPATH=src python3 scripts/kernel_timing.py > timings.json
"""

import os

# One BLAS thread, set before numpy loads: kernel timings on shared cores are
# otherwise timings of the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import json
import tempfile
import timeit
from pathlib import Path

import numpy as np

from tensorfe.dgp import DgpConfig, draw
from tensorfe.inference import corrected_estimate_split, crossfit_split
from tensorfe.panel_io import load_panel_csv, write_panel_csv
from tensorfe.tensor_ops import cp_compose, mode_product

MODE_PRODUCT_SHAPES = [(40, 40, 40), (12, 12, 12, 12), (80, 30, 100)]
CP_LOADINGS = [("growing-40^3", (40, 40, 40), 2), ("fixed-12^4", (12, 12, 12, 12), 12)]
DRAWS = [("growing-40^3", "growing", (40, 40, 40)), ("fixed-12^4", "fixed", (12, 12, 12, 12))]
LOAD_SHAPE, LOAD_REGRESSORS = (80, 30, 100), 2
SPLIT_RANKS, SPLIT_DIM = (4, 4, 4), 3
REPEAT = 7


def best_us(call, repeat: int) -> float:
    """Minimum over ``repeat`` runs of the mean microseconds per call."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def cases():
    """Yield ``(name, zero-argument call)`` for every timed kernel."""
    rng = np.random.default_rng(0)
    for shape in MODE_PRODUCT_SHAPES:
        t = rng.standard_normal(shape)
        label = "x".join(map(str, shape))
        for dim, n in enumerate(shape, start=1):
            mat = rng.standard_normal((n, n))
            yield f"mode_product/{label}/mode{dim}", lambda t=t, mat=mat, dim=dim: mode_product(t, mat, dim)
    for label, dims, n_comp in CP_LOADINGS:
        mats = [rng.standard_normal((n, n_comp)) for n in dims]
        yield f"cp_compose/{label}/L{n_comp}", lambda mats=mats: cp_compose(mats)
    for label, design, dims in DRAWS:
        config = DgpConfig(design, dims)
        yield f"dgp.draw/{label}", lambda config=config: draw(config, np.random.SeedSequence([7, 0]))
    label = "x".join(map(str, LOAD_SHAPE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        y, *xs = rng.standard_normal((1 + LOAD_REGRESSORS, *LOAD_SHAPE))
        write_panel_csv(path, y, xs)  # default column names: dim1, dim2, ..., y, x1, x2, ...
        index_cols = [f"dim{n}" for n in range(1, len(LOAD_SHAPE) + 1)]
        x_cols = [f"x{k}" for k in range(1, LOAD_REGRESSORS + 1)]
        yield f"panel_io.load_panel_csv/{label}/K{LOAD_REGRESSORS}", lambda: load_panel_csv(path, index_cols, "y", x_cols)
    plan = crossfit_split(LOAD_SHAPE, SPLIT_DIM, seed=0)
    yield (
        f"inference.corrected_estimate_split/{label}/K{LOAD_REGRESSORS}/dim{SPLIT_DIM}",
        lambda: corrected_estimate_split(y, xs, SPLIT_RANKS, plan),
    )


def main() -> int:
    timings = {name: round(best_us(call, REPEAT), 1) for name, call in cases()}
    print(json.dumps({"numpy": np.__version__, "blas_threads": 1, "repeat": REPEAT, "unit": "us", "timings": timings}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
