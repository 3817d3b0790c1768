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

import pickle

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core import DistributedOptimizer, leaked_shared_segments
from repro.core.arena import GradientArena, SharedGradientArena
from repro.models import MLP
from repro.optim import LAMB, SGD, Adam, AdamW, LinearWarmupDecay
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


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    before = leaked_shared_segments()
    yield
    assert leaked_shared_segments() == before


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


def _dist_opt(optimizer, wire_codecs, world):
    model = MLP(LAYERS, rng=np.random.default_rng(1))
    return model, DistributedOptimizer(
        model, OPTIMIZERS[optimizer], world, topology="tree_any",
        wire_codecs=wire_codecs,
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
        spec = {
            "model": model, "loss_fn": None, "x": None, "y": None,
            "layout": grads.layout, "grad_segment": grads.name,
            "param_segment": params.name, "num_ranks": world,
            "grad_dtype": grads.dtype, "param_dtype": params.dtype,
            "microbatch": 1, "accumulation": 1, "combine_spec": None,
            "rank_optimizers": dist_opt.rank_optimizers,
            "pipeline": dist_opt.wire_pipeline,
        }
        workers = [_ProcessRankWorker(r, pickle.loads(pickle.dumps(spec)))
                   for r in range(world)]
        calls = _PickledCalls(workers)
        dist_opt.row_home = _WorkerRows(
            dist_opt, grads, calls, _param_publisher(model, params))
        rng = np.random.default_rng(0)
        for step in range(steps):
            parts = sorted(data.draw(
                st.sets(st.integers(0, world - 1), min_size=1), label=f"ranks {step}"))
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
        event(f"skipped steps: {min(ref.skipped_steps, 1)}")
        dist_opt.pull_rank_state(residuals=True)
        assert_same_bytes(residual_rows(ref), residual_rows(dist_opt), "residual rows")
        # No parent-side finishing ever ran, and no worker round beyond
        # finish / pull (plus a rollback on skipped error-feedback steps).
        assert set(calls.ops) <= {"finish", "sync", "rollback"}
        assert calls.ops.count("finish") == steps
        assert ("rollback" in calls.ops) == (
            dist_opt.skipped_steps > 0 and dist_opt.wire_pipeline.error_feedback)
    finally:
        for worker in workers:
            worker.close()
        params.unlink()
        grads.unlink()
