"""What the benchmark relies on: the names its span wrappers patch, and the results it checks.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of its
``PATCH_SITES`` for every benchmark run, traced or not, so a name dropped from
a module breaks every run.  The file is loaded by path: ``perfbench`` is not
an installed package.  The benchmark's weight check reads the ``weights``
dict of each captured ``kernel_weights`` result, and its tests rebuild that
result with ``dataclasses.replace``.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from tensorfe import montecarlo

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_patch_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCH_SITES


def test_every_patch_site_resolves():
    sites = load_patch_sites()
    assert sites
    unbound = [
        f"{module}.{attr} ({span})"
        for module, attr, span in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not unbound, f"benchmark patch sites no longer bound: {unbound}"


def test_kernel_weights_result_keeps_the_shape_the_benchmark_checks():
    proxies = montecarlo.residual_proxies(np.random.default_rng(3).standard_normal((7, 6, 5)), 2)
    weight_set = montecarlo.kernel_weights(proxies, "gaussian", (1.0, 1.2, 1.4))
    assert dataclasses.is_dataclass(weight_set)
    assert isinstance(weight_set.weights, dict) and sorted(weight_set.weights) == [1, 2, 3]
    for dim, n in zip((1, 2, 3), (7, 6, 5)):
        w = weight_set.weights[dim]
        assert w.shape == (n, n) and np.min(w) >= 0.0
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    rebuilt = dataclasses.replace(weight_set, weights={1: weight_set.weights[1]})
    assert list(rebuilt.weights) == [1]
