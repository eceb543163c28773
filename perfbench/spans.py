"""Span recorder and the wrappers that install it around tensorfe's public functions.

Nothing inside ``tensorfe`` is instrumented.  Instead, the wrappers replace
public functions at the names the *calling* modules bind, e.g.
``tensorfe.montecarlo.fit_factor_model`` (bound by ``from .factor import
fit_factor_model``), so every call the pipeline makes goes through one
wrapper.  Each call becomes a span ``[name, parent, start, end]`` kept in
memory; self time is a span's duration minus its direct children's.

A recorder can also keep the arguments and results of its ``var_hac`` and
``kernel_weights`` calls for the correctness checks (``capture``), and measure
the peak Python-heap allocation of ``defactored_regressors`` and
``load_panel_csv`` calls with ``tracemalloc`` (``alloc``).  ``tracemalloc`` is
on only inside those calls, and only in a recorder that asks for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

# (module whose global the caller looks up, attribute, span name = layer.function)
PATCH_SITES = (
    ("tensorfe.montecarlo", "run_monte_carlo", "montecarlo.run_monte_carlo"),
    ("tensorfe.montecarlo", "run_round", "montecarlo.run_round"),
    ("tensorfe.montecarlo", "estimate_panel", "montecarlo.estimate_panel"),
    ("tensorfe.montecarlo", "draw", "dgp.draw"),
    ("tensorfe.montecarlo", "fit_factor_model", "factor.fit_factor_model"),
    ("tensorfe.montecarlo", "defactored_regressors", "factor.defactored_regressors"),
    ("tensorfe.montecarlo", "residual_proxies", "factor.residual_proxies"),
    ("tensorfe.inference", "hosvd_truncate", "tensor_ops.hosvd_truncate"),
    ("tensorfe.montecarlo", "corrected_estimate", "inference.corrected_estimate"),
    ("tensorfe.montecarlo", "corrected_estimate_split", "inference.corrected_estimate_split"),
    ("tensorfe.montecarlo", "var_hac", "inference.var_hac"),
    ("tensorfe.montecarlo", "pooled_ols", "inference.pooled_ols"),
    ("tensorfe.montecarlo", "kernel_weights", "kernel_fe.kernel_weights"),
    ("tensorfe.montecarlo", "within_projections", "kernel_fe.within_projections"),
    ("tensorfe.montecarlo", "kernel_fe_estimate", "kernel_fe.kernel_fe_estimate"),
    ("tensorfe.montecarlo", "smoothed_effects", "kernel_fe.smoothed_effects"),
    ("tensorfe.montecarlo", "iterative_kernel_fe", "kernel_fe.iterative_kernel_fe"),
    ("tensorfe.panel_io", "load_panel_csv", "panel_io.load_panel_csv"),
)
ALLOC_SPANS = ("factor.defactored_regressors", "panel_io.load_panel_csv")
CAPTURE_SPANS = ("inference.var_hac", "kernel_fe.kernel_weights")


class Recorder:
    """In-memory spans, call counts, allocation peaks and captured calls."""

    def __init__(self, *, alloc: bool = False, capture: bool = False):
        self.alloc = alloc
        self.capture = capture
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.peak_alloc_bytes: dict[str, int] = {}
        self.captured: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        probe = self.alloc and name in ALLOC_SPANS and not tracemalloc.is_tracing()
        if probe:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2], span[3] = start, time.perf_counter()
            if probe:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_alloc_bytes[name] = max(peak, self.peak_alloc_bytes.get(name, 0))
            self._stack.pop()
        self.counts[name] += 1
        if name == "factor.fit_factor_model":
            self.counts["factor.fit_factor_model.iterations"] += int(result.iterations)
        if self.capture and name in CAPTURE_SPANS:
            self.captured[name].append((args, kwargs, result))
        return result

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Route every patch site through ``recorder`` until the block exits."""
    saved = []
    try:
        for module_name, attr, span_name in PATCH_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(recorder, span_name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
