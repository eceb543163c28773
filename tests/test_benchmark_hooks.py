"""The benchmark's span wrappers patch names that the pipeline modules must keep binding.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of its
``PATCH_SITES`` for every benchmark run, traced or not, so a name dropped from
a module breaks every run.  The file is loaded by path: ``perfbench`` is not
an installed package.
"""

import importlib
import importlib.util
from pathlib import Path

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
