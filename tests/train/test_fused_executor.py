"""The fused engine ≡ the per-rank loop, as a property of the executor.

``FusedRankExecutor`` serves every call with ``accumulation == 1`` and
equal-length rank blocks through the model's fused engine — a rank
worker at one rank, a serial step at the world, an elastic step at
whatever ranks are live — after byte-comparing each distinct call shape
against the inherited per-rank loop once.  The reference here is that
loop on its own (``SerialRankExecutor`` over a second arena); Hypothesis
draws the world, the rows, the block length, whether readiness is asked
for and how many calls follow one another.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import DistributedOptimizer, GradientArena
from repro.core.overlap import build_fused_engine
from repro.models import BertConfig, MiniBERT
from repro.optim import Adam
from repro.train import ParallelTrainer
from repro.train.trainer import FusedRankExecutor, SerialRankExecutor

VOCAB, SEQ, SAMPLES = 12, 4, 40
CONFIG = BertConfig(vocab_size=VOCAB, hidden=8, layers=1, heads=2, max_seq_len=SEQ)
MODEL = MiniBERT(CONFIG, rng=np.random.default_rng(0))
TOKENS = np.random.default_rng(1).integers(0, VOCAB, (SAMPLES, SEQ))
TARGETS = np.random.default_rng(2).integers(0, VOCAB, (SAMPLES, SEQ))


class _Spy:
    """An engine that counts its passes, optionally corrupting them, and
    checks that a batch it rejects left the arena as it found it."""

    def __init__(self, arena, flip_bit=False):
        self.engine = build_fused_engine(MODEL)
        self.arena = arena
        self.flip_bit = flip_bit
        self.passes = 0

    def step(self, x, y, rank_views, ready_cb=None):
        before = self.arena.data.copy()
        try:
            losses = self.engine.step(x, y, rank_views, ready_cb)
        except (ValueError, TypeError):
            assert self.arena.data.tobytes() == before.tobytes()
            raise
        self.passes += 1
        if self.flip_bit:
            rank_views[-1]["ln_f.bias"].view(np.uint32)[0] ^= 1
        return losses


def _executors(world, y=TARGETS, accumulation=1, loss_fn=None, flip_bit=False):
    """``(fused, reference, spy, loop_calls)`` over two garbage-filled
    arenas; ``loop_calls`` lists the rank of every per-rank loop pass
    the fused executor makes."""
    loss_fn = loss_fn or nn.CrossEntropyLoss()
    arenas = [GradientArena.from_model(MODEL, world) for _ in range(2)]
    spy = _Spy(arenas[0], flip_bit)
    args = (MODEL, loss_fn, TOKENS, y, 3, accumulation)
    fused = FusedRankExecutor(spy, *args, arenas[0])
    reference = SerialRankExecutor(*args, arenas[1])
    garbage = np.random.default_rng(3).standard_normal(arenas[0].data.shape)
    for arena in arenas:
        arena.data[:] = garbage
    loop_calls = []
    loop = fused._rank_gradient

    def counted(rank, idx, on_ready=None):
        loop_calls.append(rank)
        return loop(rank, idx, on_ready)

    fused._rank_gradient = counted
    return fused, reference, spy, loop_calls


def _assert_same_rows(fused, reference, what):
    assert fused.arena.data.tobytes() == reference.arena.data.tobytes(), what


def _checking_ready(fused, reference, rows, fired):
    """``on_ready`` that insists on at-most-once and on final bytes in
    every listed row (the reference ran first, so it holds them)."""
    def on_ready(name):
        assert name not in fired, f"{name} reported twice"
        fired.append(name)
        for r in rows:
            assert (fused.arena.views(r)[name].tobytes()
                    == reference.arena.views(r)[name].tobytes()), (name, r)
    return on_ready


@st.composite
def _cases(draw):
    world = draw(st.integers(1, 6))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.integers(0, world - 1), min_size=1, unique=True))
        calls.append((rows, draw(st.integers(1, 3)), draw(st.booleans())))
    return world, calls, draw(st.integers(0, 2 ** 31 - 1))


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_engine_equals_the_per_rank_loop(case):
    world, calls, seed = case
    fused, reference, spy, loop_calls = _executors(world)
    rng = np.random.default_rng(seed)
    seen = set()
    for rows, block, readiness in calls:
        rank_indices = [rng.integers(0, SAMPLES, block) for _ in rows]
        expected = reference.compute(rank_indices, rows)
        fired = []
        on_ready = _checking_ready(fused, reference, rows, fired) if readiness else None
        passes = spy.passes
        del loop_calls[:]
        losses = fused.compute(rank_indices, rows, on_ready)
        assert losses == expected
        _assert_same_rows(fused, reference, (rows, block, readiness))
        assert fused.engine is spy, "a faithful engine was demoted"
        # First call of a shape: one engine pass and one loop pass, whose
        # result is returned as it sits — a third pass only to report
        # readiness.  Later calls of that shape: the engine alone.
        first = (len(rows), block) not in seen
        seen.add((len(rows), block))
        assert spy.passes - passes == (1 + (first and readiness))
        assert loop_calls == (rows if first else [])
        if readiness and not first:
            assert sorted(fired) == sorted(n for n, _ in MODEL.named_parameters())
    assert len(fused._validated) == len(seen)


@pytest.mark.parametrize("why", ["ragged", "accumulation", "ignore_index"])
@pytest.mark.parametrize("readiness", [False, True])
def test_rejected_batches_take_the_loop(why, readiness):
    """A batch outside the engine's preconditions never reaches the
    arena through it (``_Spy.step`` checks the arena on a rejection),
    is never counted as validated, and leaves the engine in place."""
    y, loss_fn = TARGETS, None
    if why == "ignore_index":
        y = TARGETS.copy()
        y[np.random.default_rng(4).random(y.shape) < 0.5] = -100
        loss_fn = nn.CrossEntropyLoss(ignore_index=-100)
    fused, reference, spy, loop_calls = _executors(
        3, y, accumulation=2 if why == "accumulation" else 1, loss_fn=loss_fn)
    blocks = (2, 3, 3) if why == "ragged" else (6, 6, 6)
    rank_indices = [np.arange(7 * r, 7 * r + b) for r, b in enumerate(blocks)]
    for _ in range(2):
        expected = reference.compute(rank_indices)
        fired = []
        on_ready = _checking_ready(fused, reference, range(3), fired) if readiness else None
        assert fused.compute(rank_indices, None, on_ready) == expected
        _assert_same_rows(fused, reference, why)
    assert spy.passes == 0 and not fused._validated and fused.engine is spy
    assert loop_calls == [0, 1, 2] * 2


@pytest.mark.parametrize("readiness", [False, True])
def test_a_corrupting_engine_is_demoted_on_its_first_call(readiness):
    """One flipped bit in one row: the validating call demotes the
    engine for good and every call returns the loop's bytes."""
    fused, reference, spy, _ = _executors(4, flip_bit=True)
    rng = np.random.default_rng(5)
    for call, rows in enumerate(([0, 1, 2, 3], [0, 1, 2, 3], [2, 0])):
        rank_indices = [rng.integers(0, SAMPLES, 2) for _ in rows]
        expected = reference.compute(rank_indices, rows)
        fired = []
        on_ready = _checking_ready(fused, reference, rows, fired) if readiness else None
        assert fused.compute(rank_indices, rows, on_ready) == expected
        _assert_same_rows(fused, reference, f"call {call}")
        assert fused.engine is None and spy.passes == 1


def test_a_failure_after_readiness_fired_propagates():
    """Once a bucket may have run on a reported gradient the step cannot
    be quietly recomputed by the loop: the engine's error surfaces."""
    fused, _, spy, loop_calls = _executors(2)
    rank_indices = [np.arange(2), np.arange(2, 4)]
    fused.compute(rank_indices)  # validates the shape

    def failing(x, y, rank_views, ready_cb=None):
        ready_cb("mlm_bias")
        raise ValueError("mid-backward")

    spy.step = failing
    del loop_calls[:]
    with pytest.raises(ValueError, match="mid-backward"):
        fused.compute(rank_indices, None, lambda name: None)
    assert loop_calls == []


def _bert_trainer(overlap, demote):
    model = MiniBERT(CONFIG, rng=np.random.default_rng(0))
    dist_opt = DistributedOptimizer(model, lambda ps: Adam(ps, 1e-2), num_ranks=2)
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), dist_opt, TOKENS, TARGETS,
                              microbatch=4, overlap=overlap, bucket_cap_mb=1e-4)
    if demote:
        trainer.executor.engine = None
    return trainer


@pytest.mark.parametrize("overlap", [False, True])
def test_a_ragged_step_is_not_mis_split(overlap):
    """Blocks of 3 and 5 samples after one ordinary step: ``B % R == 0``
    holds, and the engine used to hand each rank four.  Unequal blocks
    take the per-rank loop — the same bytes as a run that never had an
    engine."""
    idx = np.arange(8)
    trainers = [_bert_trainer(overlap, demote=False), _bert_trainer(False, demote=True)]
    losses = [
        [t.train_step([idx[:4], idx[4:]]), t.train_step([idx[:3], idx[3:]])]
        for t in trainers
    ]
    assert trainers[0].executor.engine is not None
    assert losses[0] == losses[1]
    for (name, p), (_, q) in zip(trainers[0].model.named_parameters(),
                                 trainers[1].model.named_parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name
