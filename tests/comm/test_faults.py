"""Fault-injection tests: every collective fails loudly or survives.

Parametrized over the repo's collectives (ring, recursive doubling,
AdasumRVH, ring Adasum, two-level hierarchical Adasum), each is
exercised under injected rank death, message delay (stragglers), and
message drops.  The contract: the collective either completes with the
correct reduction output or raises a diagnostic ``CommError`` within
the deadline — no silent ``None``s, no partial results.
"""

import time

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    CommError,
    FaultPlan,
    NetworkModel,
    allreduce_recursive_doubling,
    allreduce_ring,
    hierarchical_adasum_allreduce,
)
from repro.core.operator import adasum_tree
from repro.core.strategies import get_strategy

pytestmark = pytest.mark.faults

COLLECTIVES = {
    "ring": allreduce_ring,
    "recursive_doubling": allreduce_recursive_doubling,
    "adasum_rvh": get_strategy("adasum", "rvh").combine_comm,
    "adasum_ring": get_strategy("adasum", "ring").combine_comm,
    "hierarchical_adasum": lambda comm, v: hierarchical_adasum_allreduce(comm, v, 2),
}


def _vectors(size, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(size)]


def _run(cluster, name, vecs):
    fn = COLLECTIVES[name]
    return cluster.run(fn, rank_args=[(v,) for v in vecs])


class TestRankDeath:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    @pytest.mark.parametrize("victim", [0, 3])
    def test_killed_rank_raises_diagnostic_within_deadline(self, name, victim):
        plan = FaultPlan().kill_rank(victim, after_ops=1)
        cluster = Cluster(4, timeout=5.0, faults=plan)
        start = time.monotonic()
        with pytest.raises(CommError) as info:
            _run(cluster, name, _vectors(4))
        assert time.monotonic() - start < 5.0
        msg = str(info.value)
        assert f"rank {victim} killed" in msg
        assert "None" not in msg  # diagnostics, not partial results

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_immediate_death_at_first_op(self, name):
        plan = FaultPlan().kill_rank(2, after_ops=0)
        cluster = Cluster(4, timeout=5.0, faults=plan)
        with pytest.raises(CommError, match="rank 2 killed"):
            _run(cluster, name, _vectors(4))


class TestStragglers:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_delay_changes_clock_not_result(self, name):
        """A 10x straggler slows the simulated collective but the
        reduction output is bit-identical."""
        net = NetworkModel.infiniband()
        vecs = _vectors(4, seed=3)

        baseline = Cluster(4, network=net)
        expected = _run(baseline, name, vecs)

        plan = FaultPlan().delay_rank(1, 10.0)
        slowed = Cluster(4, network=net, faults=plan)
        got = _run(slowed, name, vecs)

        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)
        assert slowed.max_clock() > baseline.max_clock()

    def test_adasum_rvh_8rank_straggler_demo(self):
        """Acceptance demo: AdasumRVH at 8 ranks with one 10x straggler
        completes with the correct reduction and a trace showing the
        delay."""
        net = NetworkModel.infiniband()
        vecs = _vectors(8, n=128, seed=11)
        plan = FaultPlan().delay_rank(3, 10.0)
        cluster = Cluster(8, network=net, faults=plan, trace=True)
        results = cluster.run(COLLECTIVES["adasum_rvh"], rank_args=[(v,) for v in vecs])

        reference = adasum_tree([v.astype(np.float64) for v in vecs])
        for r in results:
            np.testing.assert_allclose(r, reference, rtol=1e-5, atol=1e-6)

        # The trace shows the straggler: rank 3's sends take ~10x the
        # duration of the same-size sends of a healthy rank.
        sends3 = [e for e in cluster.tracer.per_rank(3) if e.op == "send"]
        sends0 = [e for e in cluster.tracer.per_rank(0) if e.op == "send"]
        assert sends3 and sends0
        d3 = sum(e.duration for e in sends3)
        d0 = sum(e.duration for e in sends0)
        assert d3 == pytest.approx(10.0 * d0, rel=1e-6)

    def test_adasum_rvh_8rank_killed_rank_demo(self):
        """Acceptance demo: with one killed rank the same collective
        raises a diagnostic CommError within the deadline."""
        vecs = _vectors(8, n=128, seed=11)
        plan = FaultPlan().kill_rank(5, after_ops=2)
        cluster = Cluster(8, timeout=5.0, faults=plan)
        start = time.monotonic()
        with pytest.raises(CommError, match="rank 5 killed"):
            cluster.run(COLLECTIVES["adasum_rvh"], rank_args=[(v,) for v in vecs])
        assert time.monotonic() - start < 5.0


class TestDrops:
    def test_drop_without_retries_is_diagnosed(self):
        """A lost message with no retry budget surfaces as a timeout
        naming the stalled receiver, within the deadline."""
        plan = FaultPlan().drop_messages(0, 1, count=1)
        cluster = Cluster(2, timeout=0.5, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.ones(4, dtype=np.float32), 1)
                return None
            return comm.recv(0)

        with pytest.raises(CommError) as info:
            cluster.run(fn)
        msg = str(info.value)
        assert "rank 1" in msg and "recv" in msg

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_drops_with_retries_complete_correctly(self, name):
        """With a retry budget, dropped messages are retransmitted and
        every collective still produces the exact reduction output."""
        vecs = _vectors(4, seed=5)
        expected = _run(Cluster(4), name, vecs)

        plan = FaultPlan(max_retries=3, backoff=1e-6)
        plan.drop_messages(0, 1, count=2).drop_messages(2, 3, count=1)
        cluster = Cluster(4, timeout=5.0, faults=plan)
        got = _run(cluster, name, vecs)
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_retransmissions_are_costed_and_traced(self):
        """Each lost attempt pays wire bytes + backoff on the simulated
        clock and appears as a 'drop' event in the trace."""
        net = NetworkModel(alpha=1.0, beta=0.0)
        plan = FaultPlan(max_retries=2, backoff=0.5).drop_messages(0, 1, count=2)
        cluster = Cluster(2, network=net, faults=plan, trace=True)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4, dtype=np.float32), 1)
                return comm.clock
            comm.recv(0)
            return comm.clock

        results = cluster.run(fn)
        # 3 attempts at alpha=1 plus backoff 0.5*1 + 0.5*2 = 4.5 total.
        assert results[0] == pytest.approx(4.5)
        drops = [e for e in cluster.tracer.per_rank(0) if e.op == "drop"]
        sends = [e for e in cluster.tracer.per_rank(0) if e.op == "send"]
        assert len(drops) == 2 and len(sends) == 1
        assert cluster.comms[0].messages_sent == 3
        assert cluster.tracer.total_bytes() == cluster.total_bytes()

    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(max_retries=1).drop_messages(0, 1, count=5)
        cluster = Cluster(2, timeout=2.0, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), 1)

        with pytest.raises(CommError, match="dropped"):
            cluster.run(fn)


class TestPlanReuse:
    def test_plan_resets_between_runs(self):
        """Drop budgets and kill counters restore at each run, so the
        same plan produces identical failures deterministically."""
        plan = FaultPlan().kill_rank(1, after_ops=0)
        cluster = Cluster(2, timeout=2.0, faults=plan)

        def fn(comm):
            if comm.rank == 0:
                return comm.rank
            comm.send(np.zeros(1), 0)

        for _ in range(2):
            with pytest.raises(CommError, match="rank 1 killed"):
                cluster.run(fn)
