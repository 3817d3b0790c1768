"""Micro-benchmarks of the core kernels (operator, reductions, engine).

Not a paper artifact — these track the reproduction's own performance so
regressions in the NumPy kernels are visible.  Everything here is marked
``perf`` and excluded from the tier-1 suite; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -m perf

The dict-based and flat (arena) reducer benches are kept side by side so
the flat-buffer speedup stays measurable; the train-step benches time
the full pipeline (forward/backward into the arena, flat reduction,
optimizer) under ``execution="serial"`` and ``execution="processes"``
at ``min(4, os.cpu_count())`` ranks — as many rank processes as the host
can actually run concurrently.
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.core import (
    DistributedOptimizer,
    GradientArena,
    ReduceOpType,
    adasum,
    adasum_tree,
)
from repro.core.distributed_optimizer import make_reducer
from repro.models import LeNet5, MiniBERT
from repro.optim import SGD, Adam
from repro.train import ParallelTrainer
from repro.train.trainer import compute_grads

pytestmark = pytest.mark.perf

RANKS = max(2, min(4, os.cpu_count() or 1))


def _lenet_grad_dicts(num_ranks=8):
    rng = np.random.default_rng(0)
    model = LeNet5(rng=rng)
    return [
        {n: rng.standard_normal(p.shape).astype(np.float32)
         for n, p in model.named_parameters()}
        for _ in range(num_ranks)
    ]


def _lenet_trainer(execution):
    rng = np.random.default_rng(0)
    model = LeNet5(rng=rng)
    x = rng.standard_normal((256, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, 256)
    dopt = DistributedOptimizer(
        model, lambda ps: SGD(ps, 0.01, momentum=0.9),
        num_ranks=RANKS, op=ReduceOpType.ADASUM, adasum_pre_optimizer=True,
    )
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), dopt, x, y,
                              microbatch=8, execution=execution)
    indices = next(iter(trainer.iterator.epoch(0)))[1]
    trainer.train_step(indices)  # warm kernel caches / worker pool
    return trainer, indices


def _minibert_trainer(execution):
    rng = np.random.default_rng(0)
    model = MiniBERT(rng=rng)
    x = rng.integers(0, 64, (128, 32))
    y = rng.integers(0, 64, (128, 32))
    dopt = DistributedOptimizer(
        model, lambda ps: Adam(ps, 1e-3), num_ranks=RANKS, op=ReduceOpType.ADASUM,
    )
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), dopt, x, y,
                              microbatch=8, execution=execution)
    indices = next(iter(trainer.iterator.epoch(0)))[1]
    trainer.train_step(indices)
    return trainer, indices


def test_pairwise_adasum_1m(benchmark):
    rng = np.random.default_rng(0)
    g1 = rng.standard_normal(1 << 20).astype(np.float32)
    g2 = rng.standard_normal(1 << 20).astype(np.float32)
    out = benchmark(adasum, g1, g2)
    assert out.shape == g1.shape


def test_tree_reduction_16_ranks(benchmark):
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(1 << 16).astype(np.float32) for _ in range(16)]
    out = benchmark(adasum_tree, grads)
    assert np.isfinite(out).all()


def test_per_layer_reducer_lenet_sized(benchmark):
    dicts = _lenet_grad_dicts(8)
    reducer = make_reducer("adasum")
    out = benchmark(reducer.reduce, dicts)
    assert set(out) == set(dicts[0])


def test_per_layer_reducer_lenet_flat(benchmark):
    arena = GradientArena.from_grad_dicts(_lenet_grad_dicts(8))
    reducer = make_reducer("adasum")
    out = benchmark(reducer.reduce_arena, arena)
    assert out.shape == (arena.layout.total_size,)


def test_sum_reducer_lenet_sized(benchmark):
    dicts = _lenet_grad_dicts(8)
    out = benchmark(make_reducer("sum").reduce, dicts)
    assert set(out) == set(dicts[0])


def test_sum_reducer_lenet_flat(benchmark):
    arena = GradientArena.from_grad_dicts(_lenet_grad_dicts(8))
    reducer = make_reducer("sum")
    out = benchmark(reducer.reduce_arena, arena)
    assert out.shape == (arena.layout.total_size,)


def test_lenet_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    model = LeNet5(rng=rng)
    loss_fn = nn.CrossEntropyLoss()
    x = rng.standard_normal((16, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, 16)
    loss, grads = benchmark(compute_grads, model, loss_fn, x, y)
    assert np.isfinite(loss)


@pytest.mark.parametrize("execution", ["serial", "processes"])
@pytest.mark.parametrize("factory", [_lenet_trainer, _minibert_trainer])
def test_train_step(benchmark, factory, execution):
    trainer, indices = factory(execution)
    try:
        loss = benchmark(trainer.train_step, indices)
    finally:
        trainer.close()
    assert np.isfinite(loss)
