import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from athermal_markov import experiments

RUNTIMES: dict[str, float] = {}


def _timed(name, fn, *args):
    t0 = time.monotonic()
    result = fn(*args)
    RUNTIMES[name] = time.monotonic() - t0
    return result


@pytest.fixture(scope="session")
def fig2_result():
    return _timed("fig2", experiments.run_study, "fig2")


@pytest.fixture(scope="session")
def fig3_result():
    return _timed("fig3", experiments.run_study, "fig3")


@pytest.fixture(scope="session")
def distance_result():
    return _timed("distance", experiments.run_study, "distance")


@pytest.fixture(scope="session")
def properties_result():
    return _timed("properties", experiments.run_property_suite)


def pytest_terminal_summary(terminalreporter):
    if RUNTIMES:
        terminalreporter.write_sep("-", "study runtimes")
        for name, seconds in RUNTIMES.items():
            terminalreporter.write_line(f"{name}: {seconds:.2f} s")
