"""Overlap scheduler vs phased ``step_arena``: bit-identity and pieces.

The acceptance contract of the bucketed-overlap pipeline is that it is
*bit-identical* to the phased path — same reduction kernels over the
same tensor-aligned slices, same optimizer arithmetic, same wire codec
state — whatever the bucket cap and in whatever order (or not at all)
compute reports gradients ready: buckets run inline on the calling
thread, so reduce order *is* readiness order.  One Hypothesis property
draws the configuration and the ``mark_ready`` calls and compares every
piece of state a step leaves behind; a few pinned draws, unit tests for
the :class:`~repro.core.overlap.FlatOptimizerMirror` and fp16
round-trip error bounds ride along.
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
from repro.elastic.state import pack_dist_state
from repro.models import MLP
from repro.optim import SGD, Adam

LAYERS = (6, 10, 8, 4)
NAMES = tuple(n for n, _ in MLP(LAYERS, rng=np.random.default_rng(0)).named_parameters())


def _sgd(ps):
    return SGD(ps, lr=0.05, momentum=0.9)


def _adam(ps):
    return Adam(ps, lr=1e-3)


OPTIMIZERS = {
    "sgd": lambda ps: SGD(ps, lr=0.05),
    "momentum": _sgd,
    "nesterov": lambda ps: SGD(ps, lr=0.05, momentum=0.9, nesterov=True),
    "adam": _adam,
    "momentum+wd": lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-3),
    "adam+wd": lambda ps: Adam(ps, lr=1e-3, weight_decay=1e-2),
}
CODEC_STACKS = ((), ("fp16",), ("fp16", "int8", "topk:0.1"))


def _fill_and_mark(arena, grads, names=None):
    """Compute callback writing pre-made grads, then marking ``names``
    ready in the given order (default: every tensor, reverse layer order)."""
    names = reversed(arena.layout.names) if names is None else names

    def compute(mark_ready):
        arena.data[:] = grads
        for name in names:
            mark_ready(name)
        return [0.0] * arena.num_ranks
    return compute


def _run_pair(op=ReduceOpType.ADASUM, num_ranks=4, opt_factory=_sgd, steps=3,
              bucket_cap_mb=0.0005, wire_codecs=(), adasum_pre_optimizer=False,
              per_layer=True, seed=0, marks=None, grad_scale=1.0):
    """Drive phased and overlapped pipelines on identical inputs.

    Returns ``(model, dist_opt)`` for each.  Gradients per step are the
    same random array on both sides; only the scheduling differs:
    ``marks[step]`` is the ordered subset of tensors the overlapped
    compute marks ready (whatever is left is flushed after it).
    """
    rng = np.random.default_rng(seed)
    sides = []
    for _ in range(2):
        model = MLP(LAYERS, rng=np.random.default_rng(seed))
        dopt = DistributedOptimizer(
            model, opt_factory, num_ranks, op=op,
            adasum_pre_optimizer=adasum_pre_optimizer, per_layer=per_layer,
            topology="tree_any", wire_codecs=wire_codecs,
        )
        sides.append((model, dopt, GradientArena.from_model(model, num_ranks)))
    (_, phased_opt, phased_arena), (_, ovl_opt, ovl_arena) = sides
    sched = OverlapScheduler(ovl_opt, ovl_arena, bucket_cap_mb=bucket_cap_mb)
    for step in range(steps):
        grads = (grad_scale * rng.standard_normal(phased_arena.data.shape)).astype(
            np.float32)
        phased_arena.data[:] = grads
        phased_opt.step_arena(phased_arena)
        sched.step(_fill_and_mark(
            ovl_arena, grads, None if marks is None else marks[step]))
    return [(model, dopt) for model, dopt, _ in sides]


def _assert_bit_identical(m1, m2):
    for (name, p), (_, q) in zip(m1.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(
            p.data.view(np.uint32), q.data.view(np.uint32),
            err_msg=f"parameter {name} diverged",
        )


def _assert_same_bytes(a, b, what):
    """Nested dicts / arrays / scalars equal, arrays byte for byte."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), what
        for key in a:
            _assert_same_bytes(a[key], b[key], f"{what}[{key!r}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, what
        assert a.tobytes() == b.tobytes(), what
    else:
        assert a == b, what


def _assert_same_state(phased, overlapped):
    """Everything a step leaves behind: model bytes, optimizer slots and
    step counts, fp16 scaler, skip and byte counters, EF residuals."""
    (m1, d1), (m2, d2) = phased, overlapped
    _assert_bit_identical(m1, m2)
    ranks = range(d1.num_ranks)
    _assert_same_bytes(pack_dist_state(d1, ranks, {}), pack_dist_state(d2, ranks, {}),
                       "optimizer-side state")
    assert (d1.last_wire_bytes, d1.wire_bytes_total) == (
        d2.last_wire_bytes, d2.wire_bytes_total)
    if d1.wire_pipeline is not None:
        _assert_same_bytes(d1.wire_pipeline._residuals, d2.wire_pipeline._residuals,
                           "error-feedback residuals")


class TestOverlapBitIdentity:
    """The acceptance assert: overlap ≡ phased, bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
        op=st.sampled_from(list(ReduceOpType)),
        adasum_pre_optimizer=st.booleans(),
        per_layer=st.booleans(),
        optimizer=st.sampled_from(sorted(OPTIMIZERS)),
        ranks=st.integers(min_value=2, max_value=8),
        cap_mb=st.sampled_from([1e-5, 1e-4, 5e-4, 1.0]),
        wire_codecs=st.sampled_from(CODEC_STACKS),
        # fp16 at the initial scale overflows on the large gradients:
        # those draws exercise the skipped-step verdict mid-plan.
        grad_scale=st.sampled_from([1.0, 100.0]),
        # Per step: any ordered subset of tensors is marked ready during
        # compute (none: every bucket is flushed after it).
        marks=st.lists(st.lists(st.sampled_from(NAMES), unique=True),
                       min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bit_identity(self, seed, op, adasum_pre_optimizer, per_layer,
                                   optimizer, ranks, cap_mb, wire_codecs,
                                   grad_scale, marks):
        """Neither the bucket cap nor the readiness order can change a
        byte of what a step leaves behind, in any configuration."""
        phased, overlapped = _run_pair(
            op, ranks, OPTIMIZERS[optimizer], steps=len(marks),
            bucket_cap_mb=cap_mb, wire_codecs=wire_codecs,
            adasum_pre_optimizer=adasum_pre_optimizer, per_layer=per_layer,
            seed=seed, marks=marks, grad_scale=grad_scale,
        )
        _assert_same_state(phased, overlapped)

    # Pinned draws of the property (reverse-layer marking, momentum SGD).
    @pytest.mark.parametrize("op", [ReduceOpType.SUM, ReduceOpType.AVERAGE,
                                    ReduceOpType.ADASUM])
    def test_ops_post_optimizer(self, op):
        _assert_same_state(*_run_pair(op))

    @pytest.mark.parametrize("ranks", [2, 3, 5, 8])
    def test_world_sizes_incl_non_pow2(self, ranks):
        _assert_same_state(*_run_pair(num_ranks=ranks))

    @pytest.mark.parametrize("cap_mb", [1e-5, 0.0002, 0.001, 1.0])
    def test_bucket_caps(self, cap_mb):
        _assert_same_state(*_run_pair(bucket_cap_mb=cap_mb))

    def test_fp16_wire_matches_phased_fp16(self):
        """fp16 wire quantizes — but identically on both paths."""
        phased, overlapped = _run_pair(wire_codecs=("fp16",))
        _assert_same_state(phased, overlapped)
        with pytest.raises(AssertionError):  # fp16 is a different trajectory
            _assert_bit_identical(phased[0], _run_pair()[0][0])

    def test_overflowed_step_stops_reducing(self, monkeypatch):
        """Once a bucket's encode overflows fp16 the step will be
        skipped, so no bucket after it is reduced — the one-bucket case
        of which is the phased rule that a skipped step never reduces."""
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, 4, op=ReduceOpType.SUM,
                                    wire_codecs=("fp16",))
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-5)
        reduced = []
        real = dopt.reducer.reduce_flat
        monkeypatch.setattr(dopt.reducer, "reduce_flat",
                            lambda rows, bounds: reduced.append(1) or real(rows, bounds))
        grads = np.ones(arena.data.shape, dtype=np.float32)
        grads[:, arena.layout.slices[-2][0]] = 1e6  # overflows in bucket 1
        before = model.state_dict()
        sched.step(_fill_and_mark(arena, grads))
        assert dopt.skipped_steps == 1 and len(reduced) == 1
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])
        sched.step(_fill_and_mark(arena, np.ones_like(grads)))
        assert dopt.skipped_steps == 1
        assert len(reduced) == 1 + sched.plan.num_buckets > 3

    def test_whole_model_adasum_single_bucket(self):
        rng = np.random.default_rng(0)
        model = MLP(LAYERS, rng=rng)
        dopt = DistributedOptimizer(
            model, _sgd, 4, op=ReduceOpType.ADASUM, per_layer=False,
        )
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-5)
        # Whole-row dot products force one bucket regardless of cap.
        assert sched.plan.num_buckets == 1


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
        def check_and_reduce(arena, ctx):
            # The rows now hold the phased (real-optimizer) deltas and the
            # model sits at the shared starting point: rewrite the same
            # gradients with the mirror, bucket by bucket.
            phased = arena.data.copy()
            arena.data[:] = grads
            mirror.begin_step()
            cut = total // 3
            for lo, hi in ((cut, total), (0, cut)):  # out of order on purpose
                mirror.rewrite(lo, hi)
            np.testing.assert_array_equal(
                phased.view(np.uint32), arena.data.view(np.uint32)
            )
            return dopt.reducer.reduce_flat(phased, arena.layout.boundaries())

        for _ in range(steps):
            grads = rng.standard_normal((ranks, total)).astype(np.float32)
            arena.data[:] = grads
            # Applying the step keeps the two serial states in lockstep.
            dopt.step_arena(arena, reduce_fn=check_and_reduce)

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
        assert build_fused_engine(bert) is not None
        assert build_fused_engine(MLP((4, 4), rng=np.random.default_rng(0))) is None


class TestOverlapTracer:
    def test_compute_and_comm_lanes(self):
        from repro.comm import CommTracer
        tracer = CommTracer()
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, 4, op=ReduceOpType.ADASUM)
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-4,
                                 tracer=tracer)
        grads = np.random.default_rng(0).standard_normal(
            arena.data.shape).astype(np.float32)
        sched.step(_fill_and_mark(arena, grads))
        lanes = {e.rank for e in tracer.events}
        assert lanes == {0, OverlapScheduler.COMM_LANE_OFFSET}
        comm = [e for e in tracer.events if e.rank == 1]
        assert len(comm) == sched.plan.num_buckets
        assert all(e.label.startswith("bucket-") for e in comm)

    def test_bucket_spans_sit_where_the_bucket_ran(self):
        """A bucket fired by a readiness callback ran *inside* compute;
        the flushed rest ran after it."""
        from repro.comm import CommTracer
        tracer = CommTracer()
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, 4, op=ReduceOpType.ADASUM)
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-4, tracer=tracer)
        grads = np.ones(arena.data.shape, dtype=np.float32)
        sched.step(_fill_and_mark(arena, grads, sched.plan.buckets[0].names))
        (compute,) = tracer.per_rank(0)
        first, *rest = sorted(tracer.per_rank(1), key=lambda e: e.label)
        assert first.label == "bucket-0" and first.t1 <= compute.t1
        assert rest and all(e.t0 >= compute.t1 for e in rest)
