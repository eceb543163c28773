import os

# Pin BLAS threading before numpy gets imported anywhere: several tests
# assert bit-identical results across process/thread configurations.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_addoption(parser):
    parser.addoption(
        "--skip-slow",
        action="store_true",
        default=False,
        help="skip the long-running Monte Carlo acceptance batteries",
    )


def pytest_collection_modifyitems(config, items):
    # Run the Monte-Carlo batteries last (a stable sort keeps every other
    # order), so a run cut short by a time limit still reaches the unit tests.
    items.sort(key=lambda item: "slow" in item.keywords)
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow given")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running Monte Carlo battery")
