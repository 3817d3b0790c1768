"""``Cluster.run(fn, order=...)``: the single-threaded ordered replay.

An acyclic collective declares a topological order of its sends and runs
on the calling thread.  What must hold: a wrong order fails at once with
a structured error (never a wait for the deadline, never wrong data), a
failure is reported exactly as the threaded run reports it, and no rank
thread is started — while cyclic collectives still get their threads.
"""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    CommError,
    CommOrderError,
    FaultPlan,
    RankKilledError,
    allreduce_ring,
    cluster_allreduce,
)
from repro.core.strategies import StrategyReducer
from repro.elastic import cluster_reduce


def _chain(comm):
    """Rank r receives from r + 1 and forwards the running sum to r - 1."""
    acc = np.full(4, float(comm.rank), dtype=np.float32)
    if comm.rank < comm.size - 1:
        acc = acc + comm.recv(comm.rank + 1)
    if comm.rank > 0:
        comm.send(acc, comm.rank - 1)
    return acc


def _descending(n):
    return range(n - 1, -1, -1)


class TestOrderedRun:
    def test_matches_threaded_run(self):
        ordered, threaded = Cluster(5, trace=True), Cluster(5, trace=True)
        got = ordered.run(_chain, order=_descending(5))
        want = threaded.run(_chain)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert ordered.total_bytes() == threaded.total_bytes()
        for r in range(5):
            assert ordered.tracer.per_rank(r) == threaded.tracer.per_rank(r)

    def test_rank_args_are_passed(self):
        got = Cluster(3).run(
            lambda comm, k: comm.rank * k, rank_args=[(2,), (3,), (4,)],
            order=[1, 0, 2],
        )
        assert got == [0, 3, 8]

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 3]])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            Cluster(3).run(_chain, order=order)

    def test_cluster_is_reusable_across_modes(self):
        cluster = Cluster(4)
        first = cluster.run(_chain, order=_descending(4))
        threaded = cluster.run(_chain)
        again = cluster.run(_chain, order=_descending(4))
        for a, b, c in zip(first, threaded, again):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


class TestWrongOrderFailsFast:
    def test_non_topological_order_names_rank_and_source(self):
        # Ascending order runs rank 0 first; it receives from rank 1,
        # which has not run.  The 60 s deadline must play no part.
        cluster = Cluster(4, timeout=60.0)
        start = time.monotonic()
        with pytest.raises(CommError) as info:
            cluster.run(_chain, order=range(4))
        assert time.monotonic() - start < 1.0
        first = info.value.rank_errors[0]
        assert isinstance(first, CommOrderError)
        assert (first.rank, first.op, first.peer) == (0, "recv", 1)
        assert "rank 0" in str(first) and "src=1" in str(first)
        # Ranks 1 and 2 only echo rank 0's failure; rank 3 never waits.
        assert set(info.value.rank_errors) == {0}

    def test_no_partial_results(self):
        with pytest.raises(CommError):
            Cluster(3).run(_chain, order=[1, 2, 0])


class TestOrderedFailureReports:
    def test_kill_names_only_the_victim(self):
        cluster = Cluster(4, faults=FaultPlan().kill_rank(2, after_ops=1))
        with pytest.raises(CommError) as info:
            cluster.run(_chain, order=_descending(4))
        assert set(info.value.rank_errors) == {2}
        assert info.value.killed_ranks == [2]
        assert isinstance(info.value.__cause__, RankKilledError)
        # The downstream ranks' empty mailboxes are described as echoes.
        assert "rank 1: aborted while blocked on recv(src=2)" in str(info.value)

    def test_two_kills_are_both_reported(self):
        plan = FaultPlan().kill_rank(3).kill_rank(0)
        for _ in range(5):
            with pytest.raises(CommError) as info:
                Cluster(4, faults=plan).run(_chain, order=_descending(4))
            assert info.value.killed_ranks == [0, 3]

    def test_exhausted_retries_report_the_sender(self):
        plan = FaultPlan(max_retries=1).drop_messages(2, 1, count=2)
        with pytest.raises(CommError) as info:
            Cluster(3, faults=plan).run(_chain, order=_descending(3))
        assert set(info.value.rank_errors) == {2}
        assert "gave up after 2 attempt(s)" in str(info.value.rank_errors[2])

    def test_handled_failure_is_freed_with_its_last_reference(self):
        # The failure's tracebacks pin the collective's frames (and the
        # arena rows in them); nothing may keep them alive in a cycle
        # until some later cyclic GC.
        cluster = Cluster(4, faults=FaultPlan().kill_rank(2))
        gc.disable()
        try:
            try:
                cluster.run(_chain, order=_descending(4))
            except CommError as exc:
                failure = weakref.ref(exc)
                victim = weakref.ref(exc.rank_errors[2])
            assert failure() is None and victim() is None
        finally:
            gc.enable()

    def test_application_error_is_reported(self):
        def fn(comm):
            if comm.rank == 1:
                raise KeyError("boom")
            return _chain(comm)

        with pytest.raises(CommError) as info:
            Cluster(3).run(fn, order=_descending(3))
        assert set(info.value.rank_errors) == {1}
        assert isinstance(info.value.rank_errors[1], KeyError)


class TestThreadCensus:
    def test_ordered_run_starts_no_rank_thread(self, started_threads):
        data = np.arange(8 * 6, dtype=np.float32).reshape(8, 6)
        reducer = StrategyReducer("adasum", topology="tree")
        Cluster(8).run(_chain, order=_descending(8))
        cluster_reduce(Cluster(8), data, [0, 4, 6], reducer)
        cluster_reduce(Cluster(8), data, [0, 4, 6], StrategyReducer("sum"), [1, 4, 6])
        assert started_threads("rank-") == []

    def test_ring_keeps_its_threads(self, started_threads):
        vecs = [np.full(8, float(r), dtype=np.float32) for r in range(4)]
        results = Cluster(4).run(allreduce_ring, rank_args=[(v,) for v in vecs])
        assert sorted(started_threads("rank-")) == [f"rank-{r}" for r in range(4)]
        np.testing.assert_allclose(results[0], np.full(8, 6.0))

    def test_adasum_rvh_keeps_its_threads(self, started_threads, rng):
        grads = [rng.standard_normal(16).astype(np.float32) for _ in range(4)]
        Cluster(4).run(
            cluster_allreduce, rank_args=[(g, "adasum", "rvh") for g in grads]
        )
        assert sorted(started_threads("rank-")) == [f"rank-{r}" for r in range(4)]


@pytest.mark.perf
def test_ordered_cluster_reduce_beats_threads_at_8_ranks():
    """Ordered ``cluster_reduce`` >= 1.5x the threaded run, same cluster.

    Both sides' critical path is single-threaded Python (rank threads
    serialise on the GIL and on each other's sends), so the ratio holds
    on one core and needs no skip rule.
    """
    cluster = Cluster(8, timeout=30.0)
    rng = np.random.default_rng(0)
    data = rng.standard_normal((8, 676)).astype(np.float32)
    bounds = [0, 192, 216, 648, 676]
    reducer = StrategyReducer("adasum", topology="tree")
    ordered_run = cluster.run

    def p10(run):
        cluster.run = run
        try:
            times = []
            for _ in range(300):
                start = time.perf_counter()
                cluster_reduce(cluster, data, bounds, reducer)
                times.append(time.perf_counter() - start)
        finally:
            del cluster.run
        return sorted(times)[len(times) // 10]

    threaded = p10(lambda fn, rank_args=None, order=None: ordered_run(fn, rank_args))
    ordered = p10(ordered_run)
    assert threaded >= 1.5 * ordered, (
        f"ordered {ordered * 1e3:.3f} ms vs threaded {threaded * 1e3:.3f} ms "
        f"({threaded / ordered:.2f}x)"
    )
