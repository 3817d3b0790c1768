"""Failure-injection tests for the simulated cluster.

The transport must fail *loudly and promptly* — a crashed rank, a
deadlock, or a mis-addressed message surfaces as a CommError with the
offending rank identified, never a silent hang of the test-suite.
"""

import numpy as np
import pytest

from repro.comm import Cluster, CommError, allreduce_ring, cluster_allreduce


class TestRankCrashes:
    def test_crash_before_any_communication(self):
        cluster = Cluster(4, timeout=2.0)

        def fn(comm):
            if comm.rank == 2:
                raise RuntimeError("rank 2 dies at startup")
            return comm.rank

        with pytest.raises(CommError, match="rank 2"):
            cluster.run(fn)

    def test_crash_mid_collective_does_not_hang(self):
        """Peers blocked on the dead rank time out instead of hanging."""
        cluster = Cluster(4, timeout=1.5)

        def fn(comm, v):
            if comm.rank == 1:
                raise RuntimeError("dies mid-allreduce")
            return allreduce_ring(comm, v)

        vecs = [np.ones(8, dtype=np.float32)] * 4
        with pytest.raises(CommError):
            cluster.run(fn, rank_args=[(v,) for v in vecs])

    def test_crash_during_rvh(self):
        cluster = Cluster(4, timeout=1.5)

        def fn(comm, v):
            if comm.rank == 3:
                raise ValueError("bad rank")
            return cluster_allreduce(comm, v, "adasum", "rvh")

        vecs = [np.ones(8, dtype=np.float32)] * 4
        with pytest.raises(CommError):
            cluster.run(fn, rank_args=[(v,) for v in vecs])

    def test_original_exception_chained(self):
        cluster = Cluster(2, timeout=1.5)

        def fn(comm):
            if comm.rank == 0:
                raise KeyError("the original cause")

        with pytest.raises(CommError) as info:
            cluster.run(fn)
        assert isinstance(info.value.__cause__, KeyError)


class TestProtocolErrors:
    def test_deadlock_times_out(self):
        """Two ranks both receiving first -> timeout, not a hang."""
        cluster = Cluster(2, timeout=1.0)

        def fn(comm):
            comm.recv(1 - comm.rank)  # nobody ever sends

        with pytest.raises(CommError):
            cluster.run(fn)

    def test_mismatched_collective_participation(self):
        """One rank skipping a collective is caught by the timeout."""
        cluster = Cluster(4, timeout=1.0)

        def fn(comm, v):
            if comm.rank == 0:
                return v  # refuses to participate
            return allreduce_ring(comm, v)

        vecs = [np.ones(4, dtype=np.float32)] * 4
        with pytest.raises(CommError):
            cluster.run(fn, rank_args=[(v,) for v in vecs])

    def test_cluster_reusable_after_failure(self):
        """A failed run must not poison the next one."""
        cluster = Cluster(2, timeout=1.0)

        def bad(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")

        with pytest.raises(CommError):
            cluster.run(bad)
        results = cluster.run(lambda c: c.rank + 10)
        assert results == [10, 11]
