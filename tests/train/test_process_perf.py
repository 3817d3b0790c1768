"""Process backend vs serial, and rank-fused engines vs the per-rank
loop, on the steps the paper's models take.

``minibert`` is the ``bert_procs_codec`` shape of ``BENCHMARK.json``:
MiniBERT, 4 ranks, Figure-3 Adasum + Adam, the lossy fp16+int8+topk
stack.  Besides forward/backward, a step of it steps four Adam
optimizers, rewrites four rows to deltas and encodes them through three
codec stages — per-rank, row-local work that ``execution="processes"``
runs in the rank workers, in parallel, instead of in the parent while
they wait on a pipe.  ``lenet`` is the ``lenet_tta`` shape: LeNet-5, 4
ranks, Adasum before momentum SGD, raw wire — nothing to finish, so the
whole win is four forward/backward passes on more than one core.

MiniBERT computes through its rank-fused engine under both backends —
one call stacking four ranks' GEMMs in a serial step, one rank per call
in each worker — so the serial side gains more from it than the process
side, and ``test_fused_engine_beats_the_per_rank_loop`` guards that
gain itself: the same serial step with the engine demoted.  LeNet and
the MLP have no registered engine; a serial step computes them through
rank-stacked autograd, and ``test_stacked_autograd_beats_the_per_rank_loop``
guards that on the ``elastic_faults`` shape.

``perf``-marked: skipped in tier-1, run by CI's perf-guard job with the
BLAS pools pinned to one thread (``OMP_NUM_THREADS=1
OPENBLAS_NUM_THREADS=1`` — unpinned, every rank process starts its own
pool and oversubscribes the host; see docs/performance.md).
"""

import os
import time

import numpy as np
import pytest

from repro import nn
from repro.core import RunConfig
from repro.models import MLP, BertConfig, LeNet5, MiniBERT
from repro.optim import SGD, Adam
from repro.train import ParallelTrainer
from repro.train.trainer import StackedAutograd

VOCAB, SEQ, SAMPLES = 48, 16, 1024


def _minibert(execution):
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, VOCAB, (SAMPLES, SEQ))
    model = MiniBERT(
        BertConfig(vocab_size=VOCAB, hidden=64, layers=2, heads=4, max_seq_len=SEQ),
        rng=np.random.default_rng(0),
    )
    config = RunConfig(
        op="adasum", num_ranks=4, microbatch=4, execution=execution,
        reduce_mode="workers" if execution == "processes" else "parent",
        wire_codecs=("fp16", "int8", "topk:0.01"),
    )
    return ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 2e-3), tokens, tokens, config)


def _lenet(execution):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SAMPLES, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, SAMPLES)
    config = RunConfig(
        op="adasum", adasum_pre_optimizer=True, num_ranks=4, microbatch=8,
        execution=execution,
    )
    return ParallelTrainer.from_config(
        LeNet5(rng=np.random.default_rng(0)), nn.CrossEntropyLoss(),
        lambda ps: SGD(ps, 0.01, momentum=0.9), x, y, config)


def _batches(trainer):
    epoch = 0
    while True:
        for _, rank_indices in trainer.iterator.epoch(epoch):
            yield rank_indices
        epoch += 1


def _step_p10s(trainers, rounds=6, steps=20, warmup=8):
    """p10 step time of each trainer, measured in alternating blocks of
    ``steps`` so a busy spell on a shared host lands on every side."""
    streams = [_batches(t) for t in trainers]
    times = [[] for _ in trainers]
    for trainer, stream in zip(trainers, streams):
        for _ in range(warmup):
            trainer.train_step(next(stream))
    for _ in range(rounds):
        for trainer, stream, out in zip(trainers, streams, times):
            for _ in range(steps):
                rank_indices = next(stream)
                start = time.perf_counter()
                trainer.train_step(rank_indices)
                out.append(time.perf_counter() - start)
    return [sorted(t)[len(t) // 10] for t in times]


@pytest.mark.perf
@pytest.mark.parametrize("build,floor", [(_minibert, 1.15), (_lenet, 0.85)],
                         ids=["minibert", "lenet"])
def test_processes_beat_serial(build, floor):
    """``processes`` step p10 >= ``floor`` x faster than ``serial``.

    MiniBERT: 1.10-1.22x when the parent finished every row itself
    (PR 17), 1.45-1.61x once the workers did, 1.34-1.43x (12 repeats;
    the parent commit read 1.38-1.63x in the same session) since the
    fused engine serves both sides (serial gained more: see the module
    docstring).  LeNet: 1.40-1.53x while serial ran the per-rank loop;
    since serial stacks its four ranks in one autograd pass it ties
    the four worker processes on a 2-vCPU Xeon VM with OpenBLAS 0.3.31
    (0.92-1.35x, median 1.00, over 22 repeats; the per-rank-loop serial
    step, timed alternately on the same VM, read 1.08-1.44x), so the
    floor only catches the process backend collapsing (unpinned BLAS
    pools: up to 10x slower).  The only skip rule is a host with
    nothing to run a second process on.
    """
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: no parallelism to buy")
    with build("serial") as serial_trainer, build("processes") as procs_trainer:
        serial, procs = _step_p10s([serial_trainer, procs_trainer])
    assert serial >= floor * procs, (
        f"processes {procs * 1e3:.2f} ms vs serial {serial * 1e3:.2f} ms "
        f"({serial / procs:.2f}x)"
    )


def _mlp():
    """The ``elastic_faults`` shape: MLP 16-32-4, 8 ranks x 4 samples,
    Adasum over ``tree``, one serial phased step."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SAMPLES, 16)).astype(np.float32)
    y = rng.integers(0, 4, SAMPLES)
    config = RunConfig(op="adasum", topology="tree", num_ranks=8, microbatch=4)
    return ParallelTrainer.from_config(
        MLP((16, 32, 4), rng=np.random.default_rng(1)), nn.CrossEntropyLoss(),
        lambda ps: SGD(ps, 0.05), x, y, config)


@pytest.mark.perf
def test_stacked_autograd_beats_the_per_rank_loop():
    """Serial MLP step p10, rank-stacked autograd >= 1.4x faster than the
    same trainer with ``executor.engine = None`` (2.67-2.88x over 12
    repeats on a 2-vCPU Xeon VM: one tape over eight stacked ranks
    instead of eight tapes).  One process either way, so there is no
    skip rule."""
    with _mlp() as loop_trainer, _mlp() as stacked_trainer:
        loop_trainer.executor.engine = None
        loop, stacked = _step_p10s([loop_trainer, stacked_trainer])
        assert type(stacked_trainer.executor.engine) is StackedAutograd, "engine demoted"
    assert loop >= 1.4 * stacked, (
        f"stacked {stacked * 1e3:.2f} ms vs loop {loop * 1e3:.2f} ms "
        f"({loop / stacked:.2f}x)"
    )


@pytest.mark.perf
def test_fused_engine_beats_the_per_rank_loop():
    """Serial MiniBERT step p10, engine >= 1.15x faster than the same
    trainer with ``executor.engine = None`` (1.35-1.41x here over 12
    repeats).  One process either way, so there is no skip rule."""
    with _minibert("serial") as loop_trainer, _minibert("serial") as engine_trainer:
        loop_trainer.executor.engine = None
        loop, engine = _step_p10s([loop_trainer, engine_trainer])
        assert engine_trainer.executor.engine is not None, "engine demoted"
    assert loop >= 1.15 * engine, (
        f"engine {engine * 1e3:.2f} ms vs loop {loop * 1e3:.2f} ms "
        f"({loop / engine:.2f}x)"
    )
