import time
from pathlib import Path

import pytest

from ppgsim.allocation import POLICIES
from ppgsim.cli import parse_config_file
from ppgsim.engine import SimConfig, compare, sweep_lambda

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO_ROOT / "configs" / "table1.cfg"

LAMBDA_VALUES = (0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.fixture(scope="session")
def reference_config() -> SimConfig:
    return parse_config_file(REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def reference_runs(reference_config):
    """One full-day run per policy on identical traces and seed, plus wall time."""
    start = time.perf_counter()
    results = compare(reference_config, POLICIES)
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def reference_sweep(reference_config):
    start = time.perf_counter()
    sweep = sweep_lambda(reference_config, LAMBDA_VALUES)
    return sweep, time.perf_counter() - start
