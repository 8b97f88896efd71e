import tracemalloc

import pytest

from cftweave import load_fixture

import genmodels

CORPUS_SIZE = 500


@pytest.fixture(scope="session")
def fig2():
    return load_fixture("example_fig2")


@pytest.fixture(scope="session")
def vehicle():
    return load_fixture("vehicle")


@pytest.fixture(scope="session")
def corpus():
    """The generated model corpus shared by the property-based criteria."""
    return [genmodels.random_model(seed) for seed in range(CORPUS_SIZE)]


def traced_peak(fn):
    """(fn's result, the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
