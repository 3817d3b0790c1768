"""Shared fixtures for the test-suite."""

import threading

import numpy as np
import pytest


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
def rank_threads(monkeypatch):
    """Names of the simulated cluster's ``rank-*`` threads started so far
    in this test (a live list)."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        if thread.name.startswith("rank-"):
            started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started
