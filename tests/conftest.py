"""Shared fixtures for the test-suite."""

import threading

import numpy as np
import pytest

from repro.core import leaked_shared_segments
from repro.train.trainer import _ENGINE_VERDICTS


def pytest_collection_modifyitems(config, items):
    """Keep ``perf``-marked timing guards out of tier-1: they run only
    when selected (``pytest -m perf``, the CI perf-guard job)."""
    if "perf" in config.getoption("markexpr"):
        return
    skip = pytest.mark.skip(reason="perf guard; select with -m perf")
    for item in items:
        if item.get_closest_marker("perf") is not None:
            item.add_marker(skip)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for each test."""
    return np.random.default_rng(1234)


@pytest.fixture
def started_threads(monkeypatch):
    """``started_threads(prefix="")``: names of the threads started so
    far in this test whose name begins with ``prefix`` — ``"rank-"`` for
    the simulated cluster's rank threads, nothing for every thread."""
    names = []
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return lambda prefix="": [n for n in names if n.startswith(prefix)]


@pytest.fixture
def no_segment_leaks():
    """The test leaves ``/dev/shm`` exactly as it found it: every shared
    segment a run created is unlinked by the time it ends."""
    before = leaked_shared_segments()
    yield
    assert leaked_shared_segments() == before


@pytest.fixture(autouse=True)
def _fresh_engine_verdicts():
    """Every test starts with no engine verdict: an executor validates
    what no earlier test in the process validated for it."""
    _ENGINE_VERDICTS.clear()
