"""Overlap scheduler vs phased ``step_arena``: bit-identity and pieces.

The acceptance contract of the bucketed-overlap pipeline is that it is
*bit-identical* to the phased path — same reduction kernels over the
same tensor-aligned slices, same optimizer arithmetic, same wire codec
state — whatever the bucket cap and in whatever order (or not at all)
compute reports gradients ready: buckets run inline on the calling
thread, so reduce order *is* readiness order.  One Hypothesis property
draws the configuration and the ``mark_ready`` calls and compares every
piece of state a step leaves behind.  Two more properties hold the
:class:`~repro.core.overlap.FlatOptimizerMirror` to the real per-rank
optimizers for any bucket split and for steps that list any subset of
the rows; an allocation pin, two perf guards, a few pinned draws and
fp16 round-trip error bounds ride along.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.comm.codec import Fp16Codec
from repro.core import DistributedOptimizer, RunConfig
from repro.core.arena import GradientArena
from repro.core.overlap import FlatOptimizerMirror, OverlapScheduler, build_fused_engine
from repro.core.precision import DynamicScaler
from repro.elastic.state import pack_dist_state, pack_optimizer_state, restore_optimizer_state
from repro.models import MLP, MiniBERT
from repro.models.transformer import BertConfig
from repro.optim import LAMB, SGD, Adam, AdamW, LinearWarmupDecay
from repro.tensor import tune_allocator
from tests.rank_state import assert_same_bytes

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


def _run_pair(op="adasum", num_ranks=4, opt_factory=_sgd, steps=3,
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
            model, opt_factory,
            RunConfig(num_ranks=num_ranks, op=op,
                      adasum_pre_optimizer=adasum_pre_optimizer,
                      per_layer=per_layer, wire_codecs=wire_codecs),
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


def _assert_same_state(phased, overlapped):
    """Everything a step leaves behind: model bytes, optimizer slots and
    step counts, fp16 scaler, skip and byte counters, EF residuals."""
    (m1, d1), (m2, d2) = phased, overlapped
    _assert_bit_identical(m1, m2)
    ranks = range(d1.num_ranks)
    assert_same_bytes(pack_dist_state(d1, ranks, {}), pack_dist_state(d2, ranks, {}),
                       "optimizer-side state")
    assert (d1.last_wire_bytes, d1.wire_bytes_total) == (
        d2.last_wire_bytes, d2.wire_bytes_total)
    if d1.wire_pipeline is not None:
        assert_same_bytes(d1.wire_pipeline._residuals, d2.wire_pipeline._residuals,
                           "error-feedback residuals")


class TestOverlapBitIdentity:
    """The acceptance assert: overlap ≡ phased, bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
        op=st.sampled_from(["sum", "average", "adasum"]),
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
    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
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
        dopt = DistributedOptimizer(
            model, _sgd,
            RunConfig(num_ranks=4, op="sum", wire_codecs=("fp16",)),
        )
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
            model, _sgd,
            RunConfig(num_ranks=4, op="adasum", per_layer=False),
        )
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-5)
        # Whole-row dot products force one bucket regardless of cap.
        assert sched.plan.num_buckets == 1


#: Every optimizer configuration the mirror replays; the learning rate
#: (a float or a schedule) is drawn separately.
MIRRORED = {
    "adam": lambda ps, lr: Adam(ps, lr),
    "adam+wd": lambda ps, lr: Adam(ps, lr, weight_decay=1e-2),
    "sgd": lambda ps, lr: SGD(ps, lr),
    "sgd+wd": lambda ps, lr: SGD(ps, lr, weight_decay=1e-2),
    "momentum": lambda ps, lr: SGD(ps, lr, momentum=0.9),
    "momentum+wd": lambda ps, lr: SGD(ps, lr, momentum=0.9, weight_decay=1e-2),
    "nesterov+wd": lambda ps, lr: SGD(ps, lr, momentum=0.8, nesterov=True,
                                      weight_decay=1e-2),
}
TOTAL = 194  # columns of the LAYERS MLP's arena
THIRDS = ((TOTAL // 3, TOTAL), (0, TOTAL // 3))  # out of order on purpose


@st.composite
def _rewrite_orders(draw):
    """Any split of the columns into contiguous buckets (sometimes one
    per column), listed in any rewrite order."""
    cuts = draw(st.one_of(st.sets(st.integers(1, TOTAL - 1), max_size=16),
                          st.just(set(range(1, TOTAL)))))
    bounds = [0, *sorted(cuts), TOTAL]
    return tuple(draw(st.permutations(list(zip(bounds, bounds[1:])))))


def _mirror_grads(rng, shape, extreme):
    """Gradient rows; ``extreme`` spreads the columns over 1e-20..1e4,
    zeroes whole columns (so ``v`` stays 0) and scatters -0.0."""
    g = rng.standard_normal(shape)
    if extreme:
        g *= 10.0 ** rng.uniform(-20, 4, size=shape[1])
        g[:, rng.random(shape[1]) < 0.1] = 0.0
        g[rng.random(shape) < 0.05] = -0.0
    return g.astype(np.float32)


def _mirror(dopt, arena):
    """A mirror of ``dopt``'s rank optimizers over ``arena``'s rows, and
    the ``begin(rows=None)`` that opens its step over ``rows`` from the
    live parameters (the start snapshot is the distributed optimizer's
    part)."""
    params = list(dopt.model.named_parameters())
    starts = np.empty(arena.layout.total_size, dtype=np.float32)
    mirror = FlatOptimizerMirror.build(dopt.rank_optimizers, params, arena.data, starts)
    assert mirror is not None

    def begin(rows=None):
        np.copyto(starts, np.concatenate([p.data.ravel() for _, p in params]))
        mirror.begin_step(rows)
    return mirror, begin


def _bert_overlap_mirror(opt_factory):
    """The ``bert_overlap`` shape: MiniBERT (hidden 64, 2 layers,
    vocabulary 48) on 8 ranks, cap 0.01 MB: the mirror, its step
    opener, its 19 buckets and the arena."""
    model = MiniBERT(BertConfig(vocab_size=48, hidden=64, layers=2, heads=4,
                                max_seq_len=16), rng=np.random.default_rng(0))
    dopt = DistributedOptimizer(model, opt_factory, RunConfig(num_ranks=8, op="adasum"))
    arena = GradientArena.from_model(model, 8)
    buckets = [(b.start, b.stop) for b in dopt.bucket_plan(arena, 0.01).buckets]
    assert len(buckets) == 19
    return (*_mirror(dopt, arena), buckets, arena)


def _expression_rewrite(mirror, lo, hi):
    """The rewrite as NumPy expressions, one temporary per operation:
    the reference the in-place :meth:`FlatOptimizerMirror.rewrite` is
    timed against."""
    start = mirror.starts[lo:hi]
    opt = mirror._opt
    for run, first in mirror._runs:
        rows = mirror._rows[run, lo:hi]
        g = rows
        if opt.weight_decay:
            g = g + opt.weight_decay * start
        if mirror._kind == "adam":
            m = opt.beta1 * mirror._m[run, lo:hi] + (1 - opt.beta1) * g
            v = opt.beta2 * mirror._v[run, lo:hi] + (1 - opt.beta2) * g * g
            mirror._m[run, lo:hi] = m
            mirror._v[run, lo:hi] = v
            mhat = m / mirror._c1[run]
            vhat = v / mirror._c2[run]
            direction = mhat / (np.sqrt(vhat) + opt.eps)
        elif opt.momentum:
            if first:
                buf = g.astype(np.float32).copy()
            else:
                buf = opt.momentum * mirror._buf[run, lo:hi] + g
            mirror._buf[run, lo:hi] = buf
            direction = g + opt.momentum * buf if opt.nesterov else buf
        else:
            direction = g
        new = start - (mirror._lr[run] * direction).astype(rows.dtype)
        np.subtract(new, start, out=rows)


def _check_mirror(optimizer, lr, ranks, order, steps, seed, extreme, rollback=None,
                  listed=None):
    """Bucket by bucket, in ``order``, the mirror leaves the rows and
    every slot (``m``, ``v``, ``t``, ``momentum``) and ``step_count``
    byte for byte where the real per-rank optimizers
    (``_rewrite_rows_to_deltas``) do.

    ``rollback=(a, b)`` packs the optimizers' state before step ``a``
    and loads it into both sides before step ``b`` (``a == 0``: a
    never-stepped state), which the mirror must re-sync from.
    ``listed[step]`` is the sorted rows step ``step`` rewrites (default:
    every row); the others keep their gradients and their state."""
    rng = np.random.default_rng(seed)
    sides = []
    for _ in range(2):
        model = MLP(LAYERS, rng=np.random.default_rng(seed))
        dopt = DistributedOptimizer(
            model, lambda ps: MIRRORED[optimizer](ps, lr),
            RunConfig(num_ranks=ranks, op="adasum"),
        )
        sides.append((model, dopt, GradientArena.from_model(model, ranks)))
    (_, real, real_arena), (_, mirrored, arena) = sides
    assert arena.layout.total_size == TOTAL
    mirror, begin = _mirror(mirrored, arena)
    saved = None
    for step in range(steps):
        if rollback is not None and step == rollback[0]:
            saved = [pack_optimizer_state(o) for o in real.rank_optimizers]
        if rollback is not None and step == rollback[1]:
            for side in (real, mirrored):
                for opt, packed in zip(side.rank_optimizers, saved):
                    restore_optimizer_state(opt, packed)
        rows = range(ranks) if listed is None else listed[step]
        grads = _mirror_grads(rng, arena.data.shape, extreme)
        real_arena.data[:] = grads
        real._rewrite_rows_to_deltas(real_arena, rows)
        arena.data[:] = grads
        begin(None if listed is None else rows)
        for lo, hi in order:
            mirror.rewrite(lo, hi)
        assert arena.data.tobytes() == real_arena.data.tobytes(), (
            f"delta rows differ at step {step}")
        for rank, (a, b) in enumerate(zip(real.rank_optimizers,
                                          mirrored.rank_optimizers)):
            assert a.step_count == b.step_count
            assert_same_bytes(a.state, b.state, f"rank {rank} slots, step {step}")
        # Both models take a listed row's delta: the next step starts
        # elsewhere.
        for model, _, deltas in sides:
            for name, p in model.named_parameters():
                p.data += deltas.views(rows[0])[name]


@st.composite
def _row_lists(draw):
    """A world of 1-8 rows and 1-6 steps, each listing a non-empty
    sorted subset of the rows."""
    ranks = draw(st.integers(1, 8))
    subset = st.lists(st.integers(0, ranks - 1), min_size=1, unique=True).map(sorted)
    return ranks, draw(st.lists(subset, min_size=1, max_size=6))


class TestFlatOptimizerMirror:
    @given(
        optimizer=st.sampled_from(sorted(MIRRORED)),
        lr=st.one_of(
            st.floats(1e-4, 1.0),
            st.builds(LinearWarmupDecay, st.floats(1e-4, 1.0), st.integers(1, 8),
                      st.floats(0.0, 1.0)),
        ),
        ranks=st.integers(1, 6),
        order=_rewrite_orders(),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2 ** 31 - 1),
        extreme=st.booleans(),
        rollback=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))
                           .map(sorted).map(tuple)),
    )
    # The configurations pinned before this property existed.
    @example(optimizer="momentum", lr=0.05, ranks=3, order=THIRDS, steps=3, seed=1,
             extreme=False, rollback=None)
    @example(optimizer="adam", lr=1e-3, ranks=3, order=THIRDS, steps=3, seed=1,
             extreme=False, rollback=None)
    @example(optimizer="sgd", lr=0.1, ranks=3, order=THIRDS, steps=3, seed=1,
             extreme=False, rollback=None)
    @example(optimizer="nesterov+wd", lr=0.1, ranks=3, order=THIRDS, steps=3,
             seed=1, extreme=False, rollback=None)
    # A never-stepped state loaded mid-run: "no slot yet" is a first step
    # again (SGD's buf = g.copy() keeps a -0.0 gradient's sign).
    @example(optimizer="momentum", lr=0.05, ranks=3, order=THIRDS, steps=3, seed=1,
             extreme=True, rollback=(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_rewrite_matches_the_rank_optimizers(self, optimizer, lr, ranks, order,
                                                 steps, seed, extreme, rollback):
        """Any bucket split, rewrite order, world size, learning-rate
        schedule, gradient range and state loaded from outside."""
        _check_mirror(optimizer, lr, ranks, order, steps, seed, extreme, rollback)

    @given(
        optimizer=st.sampled_from(sorted(MIRRORED)),
        lr=st.one_of(
            st.floats(1e-4, 1.0),
            st.builds(LinearWarmupDecay, st.floats(1e-4, 1.0), st.integers(1, 8),
                      st.floats(0.0, 1.0)),
        ),
        world=_row_lists(),
        order=_rewrite_orders(),
        seed=st.integers(0, 2 ** 31 - 1),
        extreme=st.booleans(),
        rollback=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 5))
                           .map(sorted).map(tuple)),
    )
    # The elastic shape: rows 2-7 take their first step (SGD's buf =
    # g.copy(), -0.0 kept) beside rows 0-1 at their second, then the
    # world rolls back to the state where only rows 0-1 had stepped.
    @example(optimizer="momentum", lr=0.05, world=(8, [[0, 1], list(range(8)), [3, 5]]),
             order=THIRDS, seed=1, extreme=True, rollback=(1, 2))
    @settings(max_examples=100, deadline=None)
    def test_any_subset_of_rows_matches_the_rank_optimizers(
            self, optimizer, lr, world, order, seed, extreme, rollback):
        """Each step lists any subset of the rows: the listed ones step,
        each at its own ``step_count`` and Adam ``t``; the rest keep
        their state, also across a state loaded from outside."""
        ranks, listed = world
        if rollback is not None and rollback[1] >= len(listed):
            rollback = None
        _check_mirror(optimizer, lr, ranks, order, len(listed), seed, extreme,
                      rollback, listed)

    def test_optimizers_out_of_lockstep_replay_per_row(self):
        """Rank optimizers that disagree on ``step_count`` (after a step
        that dropped a rank) each step at their own learning rate."""
        _check_mirror("adam", LinearWarmupDecay(1e-2, 8), 3, THIRDS, 4, 1, False,
                      listed=[[1], [0, 1, 2], [0, 2], [0, 1, 2]])

    def test_slots_loaded_into_a_row_that_has_none_are_synced(self):
        """A row that never stepped holds no slot, so a state loaded into
        it at an unchanged ``step_count`` is an outside write as well: its
        next step continues the loaded momentum, not a first step."""
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, RunConfig(num_ranks=2, op="adasum"))
        arena = GradientArena.from_model(model, 2)
        mirror, begin = _mirror(dopt, arena)
        row0, row1 = dopt.rank_optimizers
        arena.data[:] = 1.0
        begin([0])
        mirror.rewrite(0, TOTAL)
        assert row1.state == {}
        restore_optimizer_state(row1, {**pack_optimizer_state(row0), "step_count": 0})
        arena.data[:] = 1.0
        begin([1])
        mirror.rewrite(0, TOTAL)
        for slot in row1.state.values():
            np.testing.assert_array_equal(slot["momentum"], np.float32(0.9) + np.float32(1))

    def test_an_optimizer_whose_slots_disagree_is_rejected(self):
        """One optimizer's slots stepped unequally (a real step with some
        gradients unset) have no one row counter to replay them with."""
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _adam, RunConfig(num_ranks=2, op="adasum"))
        opt = dopt.rank_optimizers[1]
        opt.params[0].grad = np.ones_like(opt.params[0].data)
        opt.step()
        model.zero_grad()
        mirror, begin = _mirror(dopt, GradientArena.from_model(model, 2))
        with pytest.raises(ValueError, match=r"row 1's optimizer slots disagree"):
            begin()

    # The same four configurations as tests of their own: three ranks,
    # two buckets rewritten out of order, three steps.
    def test_sgd_momentum(self):
        _check_mirror("momentum", 0.05, 3, THIRDS, 3, 1, False)

    def test_adam(self):
        _check_mirror("adam", 1e-3, 3, THIRDS, 3, 1, False)

    def test_sgd_plain_and_nesterov(self):
        _check_mirror("sgd", 0.1, 3, THIRDS, 3, 1, False)
        _check_mirror("nesterov+wd", 0.1, 3, THIRDS, 3, 1, False)

    @pytest.mark.parametrize("optimizer", sorted(MIRRORED))
    def test_rewrite_allocates_nothing_bucket_sized(self, optimizer):
        """After a warm-up step, one step's 19 rewrites on the
        ``bert_overlap`` plan peak under 256 KiB of traced allocation
        (the expression form: 3,586 KiB for Adam; one bucket is up to
        8 x 16,384 floats, 512 KiB)."""
        mirror, begin, buckets, arena = _bert_overlap_mirror(
            lambda ps: MIRRORED[optimizer](ps, 2e-3))
        grads = _mirror_grads(np.random.default_rng(0), arena.data.shape, False)
        arena.data[:] = grads
        begin()
        for lo, hi in buckets:  # warm-up: the scratch grows to the widest bucket
            mirror.rewrite(lo, hi)
        arena.data[:] = grads
        begin()
        tracemalloc.start()
        try:
            for lo, hi in buckets:
                mirror.rewrite(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, f"{optimizer}: peak {peak / 1024:.0f} KiB"

    def test_build_rejects_only_other_update_rules(self):
        """Exact Adam / SGD in any state (a stepped one re-syncs at its
        first step); subclasses and other optimizers override the rule."""
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        params = list(model.named_parameters())
        rows, starts = np.zeros((2, TOTAL), np.float32), np.zeros(TOTAL, np.float32)
        for factory in (lambda ps: AdamW(ps, 1e-3), lambda ps: LAMB(ps, 1e-3)):
            opts = [factory(model.parameters()) for _ in range(2)]
            assert FlatOptimizerMirror.build(opts, params, rows, starts) is None
        opts = [_sgd(model.parameters()) for _ in range(2)]
        for opt in opts:
            opt.step_count = 1
        assert FlatOptimizerMirror.build(opts, params, rows, starts) is not None


@pytest.mark.perf
def test_mirror_rewrite_beats_the_expression_form():
    """One step's 19 Adam rewrites on the ``bert_overlap`` plan, p10:
    in place >= 1.2x faster than the expression form above (1.51-1.66x
    on a 2-vCPU Xeon VM: 5.2-5.4 -> 3.2-3.5 ms), same bytes out.  Two
    mirrors take the same gradients step by step, their states evolving
    alike."""
    tune_allocator()  # as in a trainer: temporaries recycle, no mmap each
    (fast, fast_begin, buckets, arena), (slow, slow_begin, _, ref) = (
        _bert_overlap_mirror(lambda ps: Adam(ps, 2e-3)) for _ in range(2))
    rng = np.random.default_rng(0)
    in_place, expression = [], []
    for _ in range(120):
        grads = _mirror_grads(rng, arena.data.shape, False)
        for begin, rows, rewrite, times in (
            (fast_begin, arena, fast.rewrite, in_place),
            (slow_begin, ref, lambda lo, hi: _expression_rewrite(slow, lo, hi), expression),
        ):
            rows.data[:] = grads
            begin()
            start = time.perf_counter()
            for lo, hi in buckets:
                rewrite(lo, hi)
            times.append(time.perf_counter() - start)
        assert arena.data.tobytes() == ref.data.tobytes()
    fast_s, slow_s = (sorted(t)[len(t) // 10] for t in (in_place, expression))
    assert slow_s >= 1.2 * fast_s, (
        f"in place {fast_s * 1e3:.3f} ms vs expressions {slow_s * 1e3:.3f} ms "
        f"({slow_s / fast_s:.2f}x)"
    )


class _RealSGD(SGD):
    """An exact-type subclass: no update rule the mirror replays, so its
    rows are rewritten by the real optimizers (``_rewrite_rows_to_deltas``)."""


@pytest.mark.perf
def test_whole_row_rewrite_through_the_mirror_beats_the_rank_optimizers():
    """The in-process Figure-3 rewrite of a whole-row step at the
    ``elastic_faults`` shape (8 ranks x 676 floats, plain SGD), p10:
    ``prepare_wire_arena`` through the distributed optimizer's mirror
    >= 3x the same call through the real rank optimizers (5.7-5.9x on a
    2-vCPU Xeon VM: 104 -> 17.6 us), same bytes out, step after step."""
    sides = []
    for factory in (SGD, _RealSGD):
        model = MLP((16, 32, 4), rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, lambda ps, f=factory: f(ps, 0.05),
                                    RunConfig(num_ranks=8, op="adasum"))
        sides.append((dopt, GradientArena.from_model(model, 8), []))
    assert sides[0][0].optimizer_mirror(sides[0][1]) is not None
    assert sides[1][0].optimizer_mirror(sides[1][1]) is None
    rng = np.random.default_rng(0)
    for _ in range(300):
        grads = rng.standard_normal(sides[0][1].data.shape).astype(np.float32)
        for dopt, arena, times in sides:
            arena.data[:] = grads
            ctx = {"ranks": list(range(8)), "starts": None, "overflow": False, "nbytes": 0}
            start = time.perf_counter()
            dopt.prepare_wire_arena(arena, ctx)
            times.append(time.perf_counter() - start)
        assert sides[0][1].data.tobytes() == sides[1][1].data.tobytes()
    mirror_s, real_s = (sorted(t)[len(t) // 10] for _, _, t in sides)
    assert real_s >= 3 * mirror_s, (
        f"mirror {mirror_s * 1e6:.1f} us vs rank optimizers {real_s * 1e6:.1f} us "
        f"({real_s / mirror_s:.2f}x)"
    )


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
        bert = MiniBERT(rng=np.random.default_rng(0))
        assert build_fused_engine(bert) is not None
        assert build_fused_engine(MLP((4, 4), rng=np.random.default_rng(0))) is None


class TestOverlapTracer:
    def test_compute_and_comm_lanes(self):
        from repro.comm import CommTracer
        tracer = CommTracer()
        model = MLP(LAYERS, rng=np.random.default_rng(0))
        dopt = DistributedOptimizer(model, _sgd, RunConfig(num_ranks=4, op="adasum"))
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
        dopt = DistributedOptimizer(model, _sgd, RunConfig(num_ranks=4, op="adasum"))
        arena = GradientArena.from_model(model, 4)
        sched = OverlapScheduler(dopt, arena, bucket_cap_mb=1e-4, tracer=tracer)
        grads = np.ones(arena.data.shape, dtype=np.float32)
        sched.step(_fill_and_mark(arena, grads, sched.plan.buckets[0].names))
        (compute,) = tracer.per_rank(0)
        first, *rest = sorted(tracer.per_rank(1), key=lambda e: e.label)
        assert first.label == "bucket-0" and first.t1 <= compute.t1
        assert rest and all(e.t0 >= compute.t1 for e in rest)
