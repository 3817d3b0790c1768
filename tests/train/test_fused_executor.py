"""Rank-fused engines ≡ the per-rank loop, as a property of the executor.

``FusedRankExecutor`` serves every call of at least ``engine.min_blocks``
ranks with ``accumulation == 1`` and equal-length rank blocks through
its engine — MiniBERT's registered engine (one rank and up: a rank
worker, a serial step at the world, an elastic step at whatever ranks
are live) or rank-stacked autograd (``StackedAutograd``: any
rank-order-free model, two ranks and up) — after byte-comparing each
distinct call shape against the inherited per-rank loop once.  The
reference here is that loop on its own (``SerialRankExecutor`` over a
second arena); Hypothesis draws the model, the world, the rows, the
block length, whether readiness is asked for and how many calls follow
one another.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.train.trainer as train_trainer
from repro import nn
from repro.core import GradientArena, RunConfig
from repro.core.overlap import build_fused_engine
from repro.models import MLP, BertConfig, LeNet5, MiniBERT, ResNetCIFAR, TinyLSTMClassifier
from repro.optim import Adam
from repro.tensor import RankBlocksError, Tensor, functional as F
from repro.train import ParallelTrainer
from repro.train.trainer import (
    FusedRankExecutor,
    SerialRankExecutor,
    StackedAutograd,
    _in_process_executor,
)

VOCAB, SEQ, SAMPLES = 12, 4, 40
CONFIG = BertConfig(vocab_size=VOCAB, hidden=8, layers=1, heads=2, max_seq_len=SEQ)
MODEL = MiniBERT(CONFIG, rng=np.random.default_rng(0))
TOKENS = np.random.default_rng(1).integers(0, VOCAB, (SAMPLES, SEQ))
TARGETS = np.random.default_rng(2).integers(0, VOCAB, (SAMPLES, SEQ))
MASKED = np.where(np.random.default_rng(3).random(TARGETS.shape) < 0.5, -100, TARGETS)

_rng = np.random.default_rng(4)
#: 7 input features: a block of an odd number of samples starts off a
#: 16-byte boundary, in the inputs and in every activation after them.
FEATURES = _rng.standard_normal((SAMPLES, 7)).astype(np.float32)
LABELS = _rng.integers(0, 5, SAMPLES)
IMAGES = _rng.standard_normal((SAMPLES, 1, 28, 28)).astype(np.float32)
DIGITS = _rng.integers(0, 10, SAMPLES)
SEQUENCES = _rng.integers(0, 16, (SAMPLES, 5))

#: name -> (model, x, y, loss) for the rank-stacked autograd property.
STACKED = {
    "lenet": (LeNet5(rng=np.random.default_rng(0)), IMAGES, DIGITS, nn.CrossEntropyLoss()),
    "mlp_relu": (MLP((7, 13, 5), rng=np.random.default_rng(0)), FEATURES, LABELS,
                 nn.CrossEntropyLoss()),
    "mlp_tanh": (MLP((7, 13, 9, 5), activation="tanh", rng=np.random.default_rng(0)),
                 FEATURES, LABELS, nn.CrossEntropyLoss()),
    "lstm": (TinyLSTMClassifier(vocab_size=16, embed_dim=5, hidden_size=7, num_classes=5,
                                rng=np.random.default_rng(0)),
             SEQUENCES, LABELS, nn.CrossEntropyLoss()),
    "minibert": (MODEL, TOKENS, TARGETS, nn.CrossEntropyLoss()),
    "minibert_masked": (MODEL, TOKENS, MASKED, nn.CrossEntropyLoss(ignore_index=-100)),
}


class _Spy:
    """An engine that counts its passes, optionally corrupting them, and
    checks that a call it rejects left the arena as it found it."""

    def __init__(self, engine, arena, flip_bit=False):
        self.engine = engine
        self.min_blocks = engine.min_blocks
        self.arena = arena
        self.flip_bit = flip_bit
        self.passes = 0

    def step(self, x, y, rank_views, ready_cb=None):
        before = self.arena.data.copy()
        try:
            losses = self.engine.step(x, y, rank_views, ready_cb)
        except (RankBlocksError, ValueError, TypeError):
            assert self.arena.data.tobytes() == before.tobytes()
            raise
        self.passes += 1
        if self.flip_bit:
            rank_views[-1]["ln_f.bias"].view(np.uint32)[0] ^= 1
        return losses


def _executors(world, y=TARGETS, accumulation=1, loss_fn=None, flip_bit=False,
               model=MODEL, x=TOKENS, stacked=False):
    """``(fused, reference, spy, loop_calls)`` over two garbage-filled
    arenas; ``loop_calls`` lists the rank of every per-rank loop pass
    the fused executor makes.  The engine is ``model``'s registered one,
    or rank-stacked autograd with ``stacked``."""
    loss_fn = loss_fn or nn.CrossEntropyLoss()
    arenas = [GradientArena.from_model(model, world) for _ in range(2)]
    engine = StackedAutograd(model, loss_fn) if stacked else build_fused_engine(model)
    spy = _Spy(engine, arenas[0], flip_bit)
    args = (model, loss_fn, x, y, 3, accumulation)
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
def _calls(draw, min_world=1):
    world = draw(st.integers(min_world, 6))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.integers(0, world - 1), min_size=1, unique=True))
        calls.append((rows, draw(st.integers(1, 3)), draw(st.booleans())))
    return world, calls, draw(st.integers(0, 2 ** 31 - 1))


def _check_calls(fused, reference, spy, loop_calls, calls, seed, model):
    """Run ``calls`` through both executors: same losses and rows, the
    engine kept, and exactly the passes the validation rule allows."""
    rng = np.random.default_rng(seed)
    samples = len(fused.x)
    seen = set()
    for rows, block, readiness in calls:
        rank_indices = [rng.integers(0, samples, block) for _ in rows]
        expected = reference.compute(rank_indices, rows)
        fired = []
        on_ready = _checking_ready(fused, reference, rows, fired) if readiness else None
        passes = spy.passes
        del loop_calls[:]
        losses = fused.compute(rank_indices, rows, on_ready)
        assert losses == expected
        _assert_same_rows(fused, reference, (rows, block, readiness))
        assert fused.engine is spy, "a faithful engine was demoted"
        if len(rows) < spy.min_blocks:  # the loop's call: nothing to validate
            assert spy.passes == passes and loop_calls == rows
            continue
        # First call of a shape: one engine pass and one loop pass, whose
        # result is returned as it sits — a third pass only to report
        # readiness.  Later calls of that shape: the engine alone.
        first = (len(rows), block) not in seen
        seen.add((len(rows), block))
        assert spy.passes - passes == (1 + (first and readiness))
        assert loop_calls == (rows if first else [])
        if readiness and not first:
            assert sorted(fired) == sorted(n for n, _ in model.named_parameters())
    assert len(fused._validated) == len(seen)


@settings(max_examples=60, deadline=None)
@given(_calls())
def test_engine_equals_the_per_rank_loop(case):
    world, calls, seed = case
    _check_calls(*_executors(world), calls, seed, MODEL)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STACKED)), _calls(min_world=2))
def test_stacked_autograd_equals_the_per_rank_loop(name, case):
    """LeNet-5, MLPs, the LSTM and MiniBERT (dense and masked-LM
    targets) computed by rank-stacked autograd: byte-equal to the loop,
    readiness once per parameter after every row holds its bytes, and a
    one-rank call is the loop's, never validated."""
    world, calls, seed = case
    model, x, y, loss_fn = STACKED[name]
    executors = _executors(world, y, loss_fn=loss_fn, model=model, x=x, stacked=True)
    _check_calls(*executors, calls, seed, model)


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
    be quietly recomputed by the loop: the engine's error surfaces —
    a rejection or an op rank-stacked autograd cannot keep per rank."""
    fused, _, spy, loop_calls = _executors(2)
    rank_indices = [np.arange(2), np.arange(2, 4)]
    fused.compute(rank_indices)  # validates the shape

    for error in (ValueError, RankBlocksError):
        def failing(x, y, rank_views, ready_cb=None):
            ready_cb("mlm_bias")
            raise error("mid-backward")

        spy.step = failing
        del loop_calls[:]
        with pytest.raises(error, match="mid-backward"):
            fused.compute(rank_indices, None, lambda name: None)
        assert loop_calls == []


class _Scaled(nn.Module):
    """A parameter used through a generic op: ``x * self.scale``."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(7, 5, rng=np.random.default_rng(0))
        self.scale = nn.Parameter(np.linspace(0.5, 1.5, 5, dtype=np.float32))

    def forward(self, x):
        return self.fc(Tensor(x)) * self.scale


class _Centered(nn.Module):
    """A cross-block op: each sample is centred on the *stacked* batch."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(7, 5, rng=np.random.default_rng(0))

    def forward(self, x):
        x = Tensor(x)
        return self.fc(x - x.mean(axis=0))


@pytest.mark.parametrize("case", ["generic_op", "mse_loss", "cross_block"])
def test_an_unstackable_model_is_demoted_on_its_first_call(case, monkeypatch):
    """A parameter gradient an op reduced over every block and a loss
    that is not one value per block raise ``RankBlocksError`` inside the
    first (validating) pass; an op mixing blocks silently fails the byte
    comparison.  Either way the engine is demoted on that call, the mode
    is never entered again, and every call returns the loop's bytes."""
    entered = []
    real = train_trainer.rank_blocks

    def counting(blocks):
        entered.append(blocks)
        return real(blocks)

    monkeypatch.setattr(train_trainer, "rank_blocks", counting)
    model, y, loss_fn = {
        "generic_op": (_Scaled(), LABELS, nn.CrossEntropyLoss()),
        "mse_loss": (MLP((7, 13, 5), rng=np.random.default_rng(0)),
                     np.eye(5, dtype=np.float32)[LABELS], nn.MSELoss()),
        "cross_block": (_Centered(), LABELS, nn.CrossEntropyLoss()),
    }[case]
    fused, reference, spy, _ = _executors(
        4, y, loss_fn=loss_fn, model=model, x=FEATURES, stacked=True)
    rng = np.random.default_rng(6)
    for call in range(3):
        rank_indices = [rng.integers(0, SAMPLES, 3) for _ in range(4)]
        expected = reference.compute(rank_indices)
        assert fused.compute(rank_indices) == expected
        _assert_same_rows(fused, reference, f"call {call}")
        assert fused.engine is None
    assert entered == [4] and spy.passes == (case == "cross_block")


def test_the_compute_path_follows_from_the_model():
    """``FusedRankExecutor`` ⇔ a rank-order-free model, and its engine is
    the registered one when there is one: ResNet (BatchNorm buffers) and
    MiniBERT with active dropout keep the plain loop."""
    dropout = BertConfig(vocab_size=VOCAB, hidden=8, layers=1, heads=2,
                         max_seq_len=SEQ, dropout=0.1)
    for model, hazard, engine_type in (
        (ResNetCIFAR(), "buffers", None),
        (MiniBERT(dropout), "dropout", None),
        (LeNet5(), None, StackedAutograd),
        (MODEL, None, type(build_fused_engine(MODEL))),
    ):
        assert nn.rank_order_hazard(model) == hazard
        executor = _in_process_executor(
            model, nn.CrossEntropyLoss(), None, None, 2, 1,
            GradientArena.from_model(model, 2))
        if engine_type is None:
            assert type(executor) is SerialRankExecutor
        else:
            assert isinstance(executor, FusedRankExecutor)
            assert type(executor.engine) is engine_type


def _bert_trainer(overlap, demote):
    model = MiniBERT(CONFIG, rng=np.random.default_rng(0))
    config = RunConfig(num_ranks=2, microbatch=4, overlap=overlap, bucket_cap_mb=1e-4)
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 1e-2),
                              TOKENS, TARGETS, config)
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


# ----------------------------------------------------------------------
# The process's engine verdicts: one validation per computation
# ----------------------------------------------------------------------

class _Pooled(nn.Module):
    """One convolution and a global average pool: its stride and padding
    change the computation but no parameter shape."""

    def __init__(self, stride=1, padding=0):
        super().__init__()
        self.conv = nn.Conv2d(1, 5, 3, stride=stride, padding=padding,
                              rng=np.random.default_rng(0))

    def forward(self, x):
        return F.global_avg_pool2d(self.conv(Tensor(x)))


def _mlp(seed=0, activation="relu"):
    return MLP((7, 13, 5), activation=activation, rng=np.random.default_rng(seed))


def _float64_mlp():
    model = _mlp()
    for mod in model.modules():
        for name, p in list(mod._parameters.items()):
            setattr(mod, name, nn.Parameter(p.data, dtype=np.float64))
    return model


@pytest.fixture
def validations(monkeypatch):
    """The executors that ran a byte validation so far, one entry per pass."""
    calls = []
    validate = FusedRankExecutor._validate

    def counted(self, *args):
        calls.append(self)
        return validate(self, *args)

    monkeypatch.setattr(FusedRankExecutor, "_validate", counted)
    return calls


def _shared_run(model=None, x=FEATURES, y=LABELS, loss_fn=None, world=2, block=3, seed=0):
    """``(executor, losses)``: an executor built as a trainer builds one
    computes a call of ``world`` ranks of ``block`` samples each."""
    model = model or _mlp()
    loss_fn = loss_fn or nn.CrossEntropyLoss()
    executor = _in_process_executor(
        model, loss_fn, x, y, block, 1, GradientArena.from_model(model, world))
    rng = np.random.default_rng(seed)
    return executor, executor.compute([rng.integers(0, len(x), block) for _ in range(world)])


def test_a_validated_computation_is_not_validated_again(validations):
    """A second executor over a same-structure model, with other weights
    and other data, runs no validation pass — and lands the bytes an
    executor that validated them itself lands."""
    first, _ = _shared_run()
    assert validations == [first] and first.engine is not None
    rng = np.random.default_rng(9)
    data = (rng.standard_normal(FEATURES.shape).astype(np.float32),
            rng.integers(0, 5, SAMPLES))
    second, losses = _shared_run(_mlp(seed=1), *data, seed=1)
    assert validations == [first] and second.engine is not None
    assert second._validated == first._validated
    train_trainer._ENGINE_VERDICTS.clear()
    alone, alone_losses = _shared_run(_mlp(seed=1), *data, seed=1)
    assert validations == [first, alone]
    assert losses == alone_losses
    assert second.arena.data.tobytes() == alone.arena.data.tobytes()


#: name -> the keyword arguments of :func:`_shared_run` for two
#: computations that differ only there (a model is built per run).
_DIFFERENCES = {
    "activation": ({}, {"model": lambda: _mlp(activation="tanh")}),
    "conv_stride": ({"model": _Pooled, "x": IMAGES, "y": LABELS},
                    {"model": lambda: _Pooled(stride=2), "x": IMAGES, "y": LABELS}),
    "conv_padding": ({"model": _Pooled, "x": IMAGES, "y": LABELS},
                     {"model": lambda: _Pooled(padding=1), "x": IMAGES, "y": LABELS}),
    "ignore_index": ({}, {"loss_fn": nn.CrossEntropyLoss(ignore_index=-100)}),
    "float64_parameters": ({}, {"model": _float64_mlp}),
    "block_count": ({}, {"world": 3}),
    "microbatch": ({}, {"block": 2}),
}


@pytest.mark.parametrize("difference", sorted(_DIFFERENCES))
def test_another_computation_validates_anew(difference, validations):
    """Two computations one setting apart validate once each; the first
    run again validates nothing."""
    base, other = _DIFFERENCES[difference]
    for run in (base, other, base):
        run = dict(run)
        _shared_run(run.pop("model", _mlp)(), **run)
    assert len(validations) == 2


def test_a_demotion_is_inherited_without_calling_the_engine(validations):
    """An engine the byte comparison demoted stays demoted for the next
    executor of that computation, which never calls its own engine."""
    first, _ = _shared_run(_Centered(), world=4)
    assert first.engine is None and validations == [first]

    def never(*args, **kwargs):
        raise AssertionError("a demoted engine was called")

    model, loss_fn = _Centered(), nn.CrossEntropyLoss()
    executor = _in_process_executor(
        model, loss_fn, FEATURES, LABELS, 3, 1, GradientArena.from_model(model, 4))
    executor.engine.step = never
    reference = SerialRankExecutor(
        model, loss_fn, FEATURES, LABELS, 3, 1, GradientArena.from_model(model, 4))
    rank_indices = [np.arange(3 * r, 3 * r + 3) for r in range(4)]
    assert executor.compute(rank_indices) == reference.compute(rank_indices)
    _assert_same_rows(executor, reference, "inherited demotion")
    assert executor.engine is None and validations == [first]


def test_an_ignore_index_rejection_records_nothing(validations):
    """The MiniBERT engine rejects ``ignore_index`` targets before it
    touches the arena.  That depends on the batch, not the computation:
    no verdict is recorded and the next executor tries again."""
    loss_fn = nn.CrossEntropyLoss(ignore_index=-100)
    for _ in range(2):
        executor, _ = _shared_run(MODEL, TOKENS, MASKED, loss_fn, block=2)
        assert executor.engine is not None and not executor._validated
    assert len(validations) == 2 and not train_trainer._ENGINE_VERDICTS


class _Untouchable(dict):
    """A verdict store that fails the test when it is read or written."""

    def _touched(self, *args):
        raise AssertionError("a directly built executor used the verdicts")

    get = __contains__ = __getitem__ = __setitem__ = _touched


@pytest.mark.parametrize("flip_bit", [False, True])
def test_directly_built_executors_share_no_verdict(flip_bit, monkeypatch):
    """The spies' executors validate every call shape themselves: they
    neither read nor write the process's verdicts."""
    monkeypatch.setattr(train_trainer, "_ENGINE_VERDICTS", _Untouchable())
    fused, reference, spy, _ = _executors(3, flip_bit=flip_bit)
    rank_indices = [np.arange(2 * r, 2 * r + 2) for r in range(3)]
    for _ in range(2):
        assert fused.compute(rank_indices) == reference.compute(rank_indices)
    assert (fused.engine is None) == flip_bit and spy.passes == 2 - flip_bit


def test_a_closed_trainers_model_is_freed():
    """The verdicts describe a model; they do not keep it alive."""
    model = _mlp()
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 1e-2),
                              FEATURES, LABELS, RunConfig(num_ranks=2, microbatch=4))
    trainer.train_step([np.arange(4), np.arange(4, 8)])
    assert list(train_trainer._ENGINE_VERDICTS.values()) == [True]
    ref = weakref.ref(model)
    gc.disable()
    try:
        trainer.close()
        del trainer, model
        assert ref() is None
    finally:
        gc.enable()
