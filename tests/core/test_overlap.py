"""Overlap scheduler vs phased ``step_arena``: bit-identity and pieces.

The acceptance contract of the bucketed-overlap pipeline is that at
fp32 wire dtype it is *bit-identical* to the phased path — same
reduction kernels over the same tensor-aligned slices, same optimizer
arithmetic, same parameter bytes afterwards.  These tests assert that
across reduce ops, bucket caps, world sizes (including non-power-of-two
gather mode), both Figure-3 modes, and the fp16 wire format, plus
hypothesis sweeps and unit tests for the
:class:`~repro.core.overlap.FlatOptimizerMirror` and fp16 round-trip
error bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.comm.codec import Fp16Codec
from repro.core import DistributedOptimizer, ReduceOpType
from repro.core.arena import GradientArena
from repro.core.overlap import FlatOptimizerMirror, OverlapScheduler, build_fused_engine
from repro.core.precision import DynamicScaler
from repro.models import MLP
from repro.optim import SGD, Adam

LAYERS = (6, 10, 8, 4)


def _fill_and_mark(arena, grads):
    """Compute callback writing pre-made grads, marking reverse order."""
    def compute(mark_ready):
        arena.data[:] = grads
        for name in reversed(arena.layout.names):
            mark_ready(name)
        return [0.0] * arena.num_ranks
    return compute


def _run_pair(op, num_ranks, opt_factory, steps=3, bucket_cap_mb=0.0005,
              wire_codecs=(), adasum_pre_optimizer=False, seed=0):
    """Drive phased and overlapped pipelines on identical inputs.

    Returns the two models for comparison.  Gradients per step are the
    same random array on both sides; only the scheduling differs.
    """
    rng = np.random.default_rng(seed)
    models, drive = [], []
    for _ in range(2):
        model = MLP(LAYERS, rng=np.random.default_rng(seed))
        dopt = DistributedOptimizer(
            model, opt_factory, num_ranks, op=op,
            adasum_pre_optimizer=adasum_pre_optimizer,
            topology="tree_any", wire_codecs=wire_codecs,
        )
        arena = GradientArena.from_model(model, num_ranks)
        models.append(model)
        drive.append((dopt, arena))
    (phased_opt, phased_arena), (ovl_opt, ovl_arena) = drive
    sched = OverlapScheduler(ovl_opt, ovl_arena, bucket_cap_mb=bucket_cap_mb)
    assert sched.overlapped
    try:
        for _ in range(steps):
            grads = rng.standard_normal(phased_arena.data.shape).astype(np.float32)
            phased_arena.data[:] = grads
            phased_opt.step_arena(phased_arena)
            sched.step(_fill_and_mark(ovl_arena, grads))
    finally:
        sched.close()
    return models


def _assert_bit_identical(m1, m2):
    for (name, p), (_, q) in zip(m1.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(
            p.data.view(np.uint32), q.data.view(np.uint32),
            err_msg=f"parameter {name} diverged",
        )


def _sgd(ps):
    return SGD(ps, lr=0.05, momentum=0.9)


def _adam(ps):
    return Adam(ps, lr=1e-3)


class TestOverlapBitIdentity:
    """The acceptance assert: overlap ≡ phased at fp32, bit for bit."""

    @pytest.mark.parametrize("op", [ReduceOpType.SUM, ReduceOpType.AVERAGE,
                                    ReduceOpType.ADASUM])
    def test_ops_post_optimizer(self, op):
        m1, m2 = _run_pair(op, 4, _sgd)
        _assert_bit_identical(m1, m2)

    def test_adasum_pre_optimizer(self):
        m1, m2 = _run_pair(ReduceOpType.ADASUM, 4, _sgd,
                           adasum_pre_optimizer=True)
        _assert_bit_identical(m1, m2)

    def test_adam_mirror(self):
        m1, m2 = _run_pair(ReduceOpType.ADASUM, 4, _adam)
        _assert_bit_identical(m1, m2)

    def test_nesterov_weight_decay_mirror(self):
        m1, m2 = _run_pair(
            ReduceOpType.ADASUM, 4,
            lambda ps: SGD(ps, lr=0.05, momentum=0.9, nesterov=True,
                           weight_decay=1e-3),
        )
        _assert_bit_identical(m1, m2)

    @pytest.mark.parametrize("ranks", [2, 3, 5, 8])
    def test_world_sizes_incl_non_pow2(self, ranks):
        m1, m2 = _run_pair(ReduceOpType.ADASUM, ranks, _sgd)
        _assert_bit_identical(m1, m2)

    @pytest.mark.parametrize("cap_mb", [1e-5, 0.0002, 0.001, 1.0])
    def test_bucket_caps(self, cap_mb):
        m1, m2 = _run_pair(ReduceOpType.ADASUM, 4, _sgd, bucket_cap_mb=cap_mb)
        _assert_bit_identical(m1, m2)

    def test_fp16_wire_matches_phased_fp16(self):
        """fp16 wire quantizes — but identically on both paths."""
        m1, m2 = _run_pair(ReduceOpType.ADASUM, 4, _sgd, wire_codecs=("fp16",))
        _assert_bit_identical(m1, m2)
        m3, _ = _run_pair(ReduceOpType.ADASUM, 4, _sgd)
        with pytest.raises(AssertionError):
            _assert_bit_identical(m1, m3)  # fp16 is a different trajectory

    def test_whole_model_adasum_single_bucket(self):
        rng = np.random.default_rng(0)
        model = MLP(LAYERS, rng=rng)
        dopt = DistributedOptimizer(
            model, _sgd, 4, op=ReduceOpType.ADASUM, per_layer=False,
        )
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-5)
        try:
            # Whole-row dot products force one bucket regardless of cap.
            assert sched.plan.num_buckets == 1
        finally:
            sched.close()

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.sampled_from([ReduceOpType.SUM, ReduceOpType.AVERAGE,
                            ReduceOpType.ADASUM]),
           st.integers(min_value=2, max_value=6),
           st.sampled_from([1e-5, 1e-4, 5e-4, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_property_bit_identity(self, seed, op, ranks, cap_mb):
        """Hypothesis sweep: op x world size x bucket cap x data seed."""
        m1, m2 = _run_pair(op, ranks, _sgd, steps=2, bucket_cap_mb=cap_mb,
                           seed=seed)
        _assert_bit_identical(m1, m2)


class TestFlatOptimizerMirror:
    def _delta_pair(self, opt_factory, steps=3, ranks=3):
        """Mirror rewrite vs the real per-rank optimizer delta path."""
        rng = np.random.default_rng(1)
        model = MLP(LAYERS, rng=np.random.default_rng(1))
        dopt = DistributedOptimizer(model, opt_factory, ranks,
                                    op=ReduceOpType.ADASUM,
                                    topology="tree_any")
        arena = GradientArena.from_model(model, ranks)
        mirror = FlatOptimizerMirror.build(dopt, arena)
        assert mirror is not None
        total = arena.layout.total_size
        for _ in range(steps):
            grads = rng.standard_normal((ranks, total)).astype(np.float32)
            # Phased delta rewrite on a throwaway copy of the arena.
            arena.data[:] = grads
            ctx = dopt.prepare_wire_arena(arena)
            phased = arena.data.copy()
            # Mirror rewrite from the same gradients, bucket by bucket.
            arena.data[:] = grads
            mirror.begin_step()
            cut = total // 3
            for lo, hi in ((cut, total), (0, cut)):  # out of order on purpose
                mirror.rewrite(lo, hi)
            np.testing.assert_array_equal(
                phased.view(np.uint32), arena.data.view(np.uint32)
            )
            # Keep the two serial states in lockstep for the next step.
            dopt.apply_reduced_flat(
                dopt.reducer.reduce_flat(phased, arena.layout.boundaries()),
                arena, ctx,
            )

    def test_sgd_momentum(self):
        self._delta_pair(_sgd)

    def test_adam(self):
        self._delta_pair(_adam)

    def test_sgd_plain_and_nesterov(self):
        self._delta_pair(lambda ps: SGD(ps, lr=0.1))
        self._delta_pair(lambda ps: SGD(ps, lr=0.1, momentum=0.8,
                                        nesterov=True, weight_decay=1e-2))

    def test_build_rejects_stepped_or_subclassed(self):
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, 2, op=ReduceOpType.ADASUM)
        dopt.rank_optimizers[0].step_count = 1
        arena = GradientArena.from_model(model, 2)
        assert FlatOptimizerMirror.build(dopt, arena) is None


def _fp16_roundtrip(rows, scale):
    """The live fp16 wire arithmetic at a fixed scale; True on overflow."""
    return Fp16Codec(DynamicScaler(init_scale=scale)).roundtrip(rows, None)


class TestFp16WireRoundTrip:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.sampled_from([1.0, 8.0, 1024.0, 2.0 ** 15]))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_error_bound(self, seed, scale):
        """Round-trip error obeys the fp16 grid: relative error within
        2^-11 per element (half has a 10-bit mantissa) for values whose
        scaled magnitude stays in normal fp16 range."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((3, 64)).astype(np.float32)
        orig = rows.copy()
        overflow = _fp16_roundtrip(rows, scale)
        scaled = np.abs(orig * scale)
        in_range = (scaled < 65504.0) & (scaled > 6.2e-5)
        assert not overflow or bool((scaled >= 65504.0).any())
        rel = np.abs(rows - orig)[in_range] / np.abs(orig[in_range])
        assert rel.max(initial=0.0) <= 2.0 ** -11 + 1e-7

    def test_round_trip_idempotent(self):
        """Once on the fp16 grid, a second encode changes nothing —
        the property the elastic leaf-hop compression relies on."""
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2, 32)).astype(np.float32)
        _fp16_roundtrip(rows, 8.0)
        again = rows.copy()
        _fp16_roundtrip(again, 8.0)
        np.testing.assert_array_equal(rows.view(np.uint32),
                                      again.view(np.uint32))

    def test_overflow_detection(self):
        rows = np.array([[1e30, 1.0]], dtype=np.float32)
        assert _fp16_roundtrip(rows, 1024.0)


class TestFusedEngineRegistry:
    def test_minibert_gets_engine_mlp_does_not(self):
        from repro.models import MiniBERT
        bert = MiniBERT(rng=np.random.default_rng(0))
        assert build_fused_engine(bert, 4) is not None
        assert build_fused_engine(MLP((4, 4), rng=np.random.default_rng(0)), 4) is None


class TestOverlapTracer:
    def test_compute_and_comm_lanes(self):
        from repro.comm import CommTracer
        tracer = CommTracer()
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, 4, op=ReduceOpType.ADASUM)
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-4,
                                 tracer=tracer)
        try:
            grads = np.random.default_rng(0).standard_normal(
                arena.data.shape).astype(np.float32)
            sched.step(_fill_and_mark(arena, grads))
        finally:
            sched.close()
        lanes = {e.rank for e in tracer.events}
        assert lanes == {0, OverlapScheduler.COMM_LANE_OFFSET}
        comm = [e for e in tracer.events if e.rank == 1]
        assert len(comm) == sched.plan.num_buckets
        assert all(e.label.startswith("bucket-") for e in comm)
