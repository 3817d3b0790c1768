"""Worker finish ≡ parent finish, without forking.

Under ``execution="processes"`` each rank worker *finishes* its own
arena row — this rank's optimizer steps from the shared start and the
row becomes the Figure-3 delta, then the row round-trips through this
rank's one-row codec pipeline — and holds the optimizer slots and
error-feedback residuals it does that with.  ``_ProcessRankWorker`` is
a plain callable over an attached ``SharedGradientArena``, so one per
rank can be driven *in the test process*, each built from its own
pickle of the bootstrap spec (what ``spawn`` does) and reached through a
transport stub that pickles every frame (what the pipe does).  The
parent side is the real ``_WorkerRows`` behind the real
``DistributedOptimizer.wire_step``; the reference is ``step_arena`` on a
heap arena.  Hypothesis draws the configuration.
"""

import contextlib
import pickle
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core import (
    DistributedOptimizer,
    RunConfig,
    StrategyReducer,
)
from repro.core.arena import GradientArena, SharedGradientArena
from repro.elastic.state import pack_optimizer_state, restore_optimizer_state
from repro.models import MLP, BertConfig, MiniBERT
from repro.optim import LAMB, SGD, Adam, AdamW, LinearWarmupDecay
from repro.tensor import tune_allocator
from repro.train import trainer as trainer_module
from repro.train.trainer import _param_publisher, _ProcessRankWorker, _WorkerRows
from tests.rank_state import assert_same_bytes, dist_state, residual_rows

LAYERS = (6, 10, 4)
OPTIMIZERS = {
    "sgd": lambda ps: SGD(ps, lr=0.05),
    "momentum": lambda ps: SGD(ps, lr=LinearWarmupDecay(0.1, 6), momentum=0.9),
    "nesterov+wd": lambda ps: SGD(ps, lr=0.05, momentum=0.9, nesterov=True,
                                  weight_decay=1e-3),
    "adam": lambda ps: Adam(ps, lr=LinearWarmupDecay(0.01, 6)),
    "adamw": lambda ps: AdamW(ps, lr=1e-3, weight_decay=1e-2),
    "lamb": lambda ps: LAMB(ps, lr=1e-3),
}
CODEC_STACKS = ((), ("fp16",), ("fp16", "int8", "topk:0.1"), ("onebit",))


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


class _PickledCalls:
    """``ProcessTransport.call`` without processes: every frame and
    reply crosses a pickle, as it would a pipe."""

    faults = None

    def __init__(self, workers):
        self.workers = workers
        self.ops = []

    def call(self, payloads, ranks=None, op="step", consult=None):
        ranks = range(len(payloads)) if ranks is None else ranks
        self.ops.append(op)
        return [
            pickle.loads(pickle.dumps(self.workers[r](pickle.loads(pickle.dumps(msg)))))
            for r, msg in zip(ranks, payloads)
        ]


def _spec(model, grads, params, rank_optimizers, pipeline):
    """The bootstrap spec a rank worker is built from (finishing only:
    no data, no loss; its reducer is never asked to combine)."""
    return {
        "model": model, "loss_fn": None, "x": None, "y": None,
        "layout": grads.layout, "grad_segment": grads.name,
        "param_segment": params.name, "num_ranks": grads.num_ranks,
        "grad_dtype": grads.dtype, "param_dtype": params.dtype,
        "microbatch": 1, "accumulation": 1, "reducer": StrategyReducer(),
        "rank_optimizers": rank_optimizers, "pipeline": pipeline,
    }


def _spy(fn, calls):
    """``fn``, recording each call's positional arguments in ``calls``."""
    def spy(*args):
        calls.append(args)
        return fn(*args)
    return spy


def _dist_opt(optimizer, wire_codecs, world):
    model = MLP(LAYERS, rng=np.random.default_rng(1))
    return model, DistributedOptimizer(
        model, OPTIMIZERS[optimizer],
        RunConfig(num_ranks=world, wire_codecs=wire_codecs),
    )


def _capturing_reduce(dist_opt, seen):
    """The default participant reduce, recording the prepared rows first."""
    def reduce_fn(arena, ctx):
        rows = arena.data[ctx["ranks"]]
        seen.append(rows.copy())
        return dist_opt.reducer.reduce_flat(rows, arena.layout.boundaries())
    return reduce_fn


@settings(max_examples=40, deadline=None)
@given(
    optimizer=st.sampled_from(sorted(OPTIMIZERS)),
    wire_codecs=st.sampled_from(CODEC_STACKS),
    world=st.integers(2, 6),
    steps=st.integers(1, 4),
    grad_scale=st.sampled_from([1.0, 1e3, 1e6]),
    data=st.data(),
)
def test_worker_finish_equals_parent_finish(optimizer, wire_codecs, world, steps,
                                            grad_scale, data):
    ref_model, ref = _dist_opt(optimizer, wire_codecs, world)
    model, dist_opt = _dist_opt(optimizer, wire_codecs, world)
    heap = GradientArena.from_model(ref_model, world)
    grads = SharedGradientArena.from_model(model, world)
    params = SharedGradientArena(grads.layout, 1, dtype=np.float32)
    workers = []
    try:
        spec = _spec(model, grads, params, dist_opt.rank_optimizers,
                     dist_opt.wire_pipeline)
        workers = [_ProcessRankWorker(r, pickle.loads(pickle.dumps(spec)))
                   for r in range(world)]
        # Adam and SGD replay on the row through the mirror; anything
        # else steps the real optimizer per parameter.
        mirrored = optimizer not in ("adamw", "lamb")
        assert all((w.mirror is not None) == mirrored for w in workers)
        rewrites = []
        for worker in workers:
            if worker.mirror is not None:
                worker.mirror.rewrite = _spy(worker.mirror.rewrite, rewrites)
        fallbacks = []
        fallback = mock.patch.object(trainer_module, "optimizer_delta",
                                     _spy(trainer_module.optimizer_delta, fallbacks))
        fallback.start()
        calls = _PickledCalls(workers)
        dist_opt.row_home = _WorkerRows(
            dist_opt, grads, calls, _param_publisher(model, params))
        rng = np.random.default_rng(0)
        packs = [[pack_optimizer_state(o) for o in ref.rank_optimizers]]  # never stepped
        finished = 0
        for step in range(steps):
            # A snapshot / checkpoint written back between steps: pull,
            # overwrite with an earlier state (the first never stepped),
            # push to the workers.
            back = data.draw(st.none() | st.integers(0, len(packs) - 1),
                             label=f"push pack {step}")
            if back is not None:
                dist_opt.pull_rank_state()
                for side in (ref, dist_opt):
                    for opt, packed in zip(side.rank_optimizers, packs[back]):
                        restore_optimizer_state(opt, packed)
                dist_opt.push_rank_state()
                event("pushed a never-stepped state" if back == 0 else "rolled back")
            # Stragglers: only the drawn subset steps, so per-rank
            # step counts diverge.
            parts = sorted(data.draw(
                st.sets(st.integers(0, world - 1), min_size=1), label=f"ranks {step}"))
            finished += len(parts)
            raw = (grad_scale * rng.standard_normal(heap.data.shape)).astype(np.float32)
            ref_rows, rows = [], []
            heap.data[:] = raw
            ref.step_arena(heap, _capturing_reduce(ref, ref_rows), ranks=parts)
            grads.data[:] = raw
            dist_opt.step_arena(grads, _capturing_reduce(dist_opt, rows), ranks=parts)
            # Prepared rows (nothing is reduced on a skipped step), then
            # the model, slots / step counts / scaler / skips as pulled
            # from the workers, lr and booked bytes.
            assert_same_bytes(ref_rows, rows, f"step {step} wire rows")
            assert_same_bytes(dist_state(ref_model, ref), dist_state(model, dist_opt),
                              f"step {step}")
            packs.append([pack_optimizer_state(o) for o in ref.rank_optimizers])
        event(f"skipped steps: {min(ref.skipped_steps, 1)}")
        dist_opt.pull_rank_state(residuals=True)
        assert_same_bytes(residual_rows(ref), residual_rows(dist_opt), "residual rows")
        # No parent-side finishing ever ran, and no worker round beyond
        # finish / pull (plus a rollback on skipped error-feedback steps).
        assert set(calls.ops) <= {"finish", "sync", "rollback"}
        assert calls.ops.count("finish") == steps
        assert ("rollback" in calls.ops) == (
            dist_opt.skipped_steps > 0 and dist_opt.wire_pipeline.error_feedback)
        # One whole-row finish per participating row, on the path the
        # optimizer's type selects.
        assert (len(rewrites), len(fallbacks)) == (
            (finished, 0) if mirrored else (0, finished))
        assert all(args == (0, grads.layout.total_size) for args in rewrites)
    finally:
        mock.patch.stopall()
        for worker in workers:
            worker.close()
        params.unlink()
        grads.unlink()


#: The two optimizers of the allocation pin: Adam (``bert_procs_codec``'s)
#: and momentum SGD, whose first step copies instead of accumulating.
ROW_OPTIMIZERS = {
    "adam": lambda ps: Adam(ps, 2e-3),
    "momentum": lambda ps: SGD(ps, lr=0.05, momentum=0.9),
}


@contextlib.contextmanager
def _bert_worker(optimizer_factory):
    """Rank 0 of the ``bert_procs_codec`` shape — MiniBERT (hidden 64, 2
    layers, vocabulary 48), a 104,240-float row — built from a pickled
    spec with no codec stack, its parameter row published; yields
    ``(worker, gradient arena)``."""
    model = MiniBERT(BertConfig(vocab_size=48, hidden=64, layers=2, heads=4,
                                max_seq_len=16), rng=np.random.default_rng(0))
    grads = SharedGradientArena.from_model(model, 1)
    params = SharedGradientArena(grads.layout, 1, dtype=np.float32)
    worker = None
    try:
        _param_publisher(model, params)()
        spec = _spec(model, grads, params, [optimizer_factory(model.parameters())], None)
        worker = _ProcessRankWorker(0, pickle.loads(pickle.dumps(spec)))
        yield worker, grads
    finally:
        if worker is not None:
            worker.close()
        params.unlink()
        grads.unlink()


@pytest.mark.parametrize("optimizer", sorted(ROW_OPTIMIZERS))
def test_worker_finish_allocates_nothing_row_sized(optimizer):
    """After a warm-up step, one worker finish on the MiniBERT row peaks
    under 64 KiB of traced allocation: the mirror writes into the row,
    its slot rows and a scratch row it owns (the per-parameter
    optimizers it replaced: Adam 1,138 KiB, momentum SGD 537 KiB — fresh
    slot arrays and temporaries; the row itself is 407 KiB)."""
    with _bert_worker(ROW_OPTIMIZERS[optimizer]) as (worker, grads):
        g = np.random.default_rng(0).standard_normal(grads.data.shape).astype(np.float32)
        grads.data[:] = g
        worker._finish(None)  # warm-up: the scratch grows to the row
        grads.data[:] = g
        tracemalloc.start()
        try:
            worker._finish(None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 * 1024, f"{optimizer}: peak {peak / 1024:.0f} KiB"


@pytest.mark.perf
def test_worker_finish_beats_the_per_parameter_optimizer():
    """One worker's Figure-3 finish on the ``bert_procs_codec`` row
    (MiniBERT, Adam, no codec stack), p10 of 300: the mirror's in-place
    replay >= 1.8x the per-parameter ``Adam.step`` + delta it replaced —
    the same worker with its mirror removed — same bytes out (2.6-2.9x
    on a 2-vCPU Xeon VM, pinned CPU: 1.61-1.79 -> 0.61-0.64 ms)."""
    tune_allocator()  # as in a worker: temporaries recycle, no mmap each
    adam = ROW_OPTIMIZERS["adam"]
    with _bert_worker(adam) as (fast, fast_row), _bert_worker(adam) as (slow, slow_row):
        slow.mirror = None
        rng = np.random.default_rng(0)
        mirror, per_parameter = [], []
        for _ in range(300):
            g = rng.standard_normal(fast_row.data.shape).astype(np.float32)
            for worker, row, times in ((fast, fast_row, mirror),
                                       (slow, slow_row, per_parameter)):
                row.data[:] = g
                start = time.perf_counter()
                worker._finish(None)
                times.append(time.perf_counter() - start)
            assert fast_row.data.tobytes() == slow_row.data.tobytes()
    fast_s, slow_s = (sorted(t)[len(t) // 10] for t in (mirror, per_parameter))
    assert slow_s >= 1.8 * fast_s, (
        f"mirror {fast_s * 1e3:.3f} ms vs per-parameter {slow_s * 1e3:.3f} ms "
        f"({slow_s / fast_s:.2f}x)"
    )
