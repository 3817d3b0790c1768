"""Comm-tracing tests: observation without perturbation.

The tracer must (a) reconstruct the cost counters exactly from its
events, (b) leave clocks/bytes/results bit-identical to an untraced
run, and (c) export a well-formed Chrome trace.
"""

import json

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    CommTracer,
    NetworkModel,
    allreduce_ring,
    hierarchical_adasum_allreduce,
)
from repro.core.strategies import get_strategy

adasum_rvh = get_strategy("adasum", "rvh").combine_comm


def _vectors(size, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(size)]


COLLECTIVES = {
    "ring": allreduce_ring,
    "adasum_rvh": adasum_rvh,
    "hierarchical_adasum": lambda comm, v: hierarchical_adasum_allreduce(comm, v, 2),
}


class TestFidelity:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_trace_totals_match_cost_counters_exactly(self, name):
        net = NetworkModel.infiniband()
        cluster = Cluster(4, network=net, trace=True)
        cluster.run(COLLECTIVES[name], rank_args=[(v,) for v in _vectors(4)])
        assert cluster.tracer.total_bytes() == cluster.total_bytes()
        assert cluster.tracer.max_clock() == cluster.max_clock()

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_tracing_does_not_perturb_the_run(self, name):
        net = NetworkModel.infiniband()
        vecs = _vectors(4, seed=2)
        traced = Cluster(4, network=net, trace=True)
        out_traced = traced.run(COLLECTIVES[name], rank_args=[(v,) for v in vecs])
        plain = Cluster(4, network=net)
        out_plain = plain.run(COLLECTIVES[name], rank_args=[(v,) for v in vecs])
        assert traced.max_clock() == plain.max_clock()
        assert traced.total_bytes() == plain.total_bytes()
        for a, b in zip(out_traced, out_plain):
            np.testing.assert_array_equal(a, b)

    def test_advance_events_keep_clock_invariant(self):
        cluster = Cluster(4, trace=True)

        def fn(comm):
            comm.advance(float(comm.rank) + 1.0)
            comm.compute(100)
            return comm.clock

        cluster.run(fn)
        assert cluster.tracer.max_clock() == cluster.max_clock()
        advances = [e for e in cluster.tracer.events if e.op == "advance"]
        assert sorted(e.t1 for e in advances) == [1.0, 2.0, 3.0, 4.0]


class TestEvents:
    def test_send_recv_pairing_and_labels(self):
        net = NetworkModel(alpha=1.0, beta=0.5)
        cluster = Cluster(2, network=net, trace=True)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(8, dtype=np.float64), 1)  # 64 bytes
                comm.compute(64, label="my-phase")
            else:
                comm.recv(0)

        cluster.run(fn)
        tr = cluster.tracer
        sends = [e for e in tr.per_rank(0) if e.op == "send"]
        recvs = [e for e in tr.per_rank(1) if e.op == "recv"]
        assert len(sends) == len(recvs) == 1
        assert sends[0].peer == 1 and recvs[0].peer == 0
        assert sends[0].nbytes == recvs[0].nbytes == 64
        assert sends[0].t1 == pytest.approx(1.0 + 0.5 * 64)
        labels = [e.label for e in tr.per_rank(0) if e.op == "compute"]
        assert labels == ["my-phase"]

    def test_adasum_rvh_phases_are_labeled(self):
        cluster = Cluster(4, trace=True)
        cluster.run(adasum_rvh, rank_args=[(v,) for v in _vectors(4)])
        labels = {e.label for e in cluster.tracer.events if e.op == "compute"}
        assert "dot-products" in labels
        assert "adasum-combine" in labels

    def test_summary_statistics(self):
        cluster = Cluster(4, trace=True)
        cluster.run(allreduce_ring, rank_args=[(v,) for v in _vectors(4)])
        s = cluster.tracer.summary()
        assert set(s["ranks"]) == {0, 1, 2, 3}
        # Ring: every rank sends and receives 2(p-1) = 6 chunks.
        assert all(r["sends"] == 6 and r["recvs"] == 6 for r in s["ranks"].values())
        assert s["total_bytes"] == cluster.total_bytes()
        assert s["max_clock"] == cluster.max_clock()

    def test_trace_flag_attaches_the_tracer(self):
        assert Cluster(2).tracer is None
        cluster = Cluster(2, trace=True)
        tracer = cluster.tracer

        def fn(comm):
            comm.sendrecv(np.zeros(4, dtype=np.float32), 1 - comm.rank)

        cluster.run(fn)
        assert tracer.total_bytes() == cluster.total_bytes()
        tracer.reset()
        assert tracer.events == []


class TestChromeExport:
    def test_export_structure_and_roundtrip(self, tmp_path):
        net = NetworkModel.infiniband()
        cluster = Cluster(4, network=net, trace=True)
        cluster.run(adasum_rvh, rank_args=[(v,) for v in _vectors(4)])
        path = tmp_path / "trace.json"
        cluster.tracer.save_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] >= 0.0
            assert 0 <= e["tid"] < 4
        # Timestamps are simulated microseconds.
        max_ts = max(e["ts"] + e["dur"] for e in events)
        assert max_ts == pytest.approx(cluster.max_clock() * 1e6)

    def test_standalone_tracer_records(self):
        tracer = CommTracer()
        tracer.record(0, "send", 0.0, 1.0, 128, peer=1)
        tracer.record(1, "recv", 0.0, 1.0, 128, peer=0)
        assert tracer.total_bytes() == 128
        assert tracer.max_clock() == 1.0
        assert len(tracer.to_chrome_trace()["traceEvents"]) == 2
