"""Micro-benchmarks of the reduction kernels (operator, tree, reducers).

Not a paper artifact and not the repo's benchmark (that is
``python -m perfbench run``, which times whole training steps layer by
layer) — these price the NumPy kernels alone, and one ratio guard keeps
the flat arena kernels ahead of the reference operator they replaced.
Everything here is marked ``perf``; CI's perf-guard job runs it with the
other ratio guards::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest -m perf tests benchmarks/bench_kernels.py

The dict-based and flat (arena) reducer benches are kept side by side so
the cost of the one dict adapter (it packs an arena) stays visible.
"""

import time

import numpy as np
import pytest

from repro.core import GradientArena, adasum, adasum_per_layer, adasum_tree
from repro.core.distributed_optimizer import make_reducer
from repro.models import BertConfig, LeNet5, MiniBERT

pytestmark = pytest.mark.perf


def _grad_dicts(model, num_ranks=8):
    rng = np.random.default_rng(0)
    return [
        {n: rng.standard_normal(p.shape).astype(np.float32)
         for n, p in model.named_parameters()}
        for _ in range(num_ranks)
    ]


def _lenet_grad_dicts():
    return _grad_dicts(LeNet5(rng=np.random.default_rng(0)))


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
    dicts = _lenet_grad_dicts()
    reducer = make_reducer("adasum")
    out = benchmark(reducer.reduce, dicts)
    assert set(out) == set(dicts[0])


def test_per_layer_reducer_lenet_flat(benchmark):
    arena = GradientArena.from_grad_dicts(_lenet_grad_dicts())
    reducer = make_reducer("adasum")
    out = benchmark(reducer.reduce_arena, arena)
    assert out.shape == (arena.layout.total_size,)


def test_sum_reducer_lenet_sized(benchmark):
    dicts = _lenet_grad_dicts()
    out = benchmark(make_reducer("sum").reduce, dicts)
    assert set(out) == set(dicts[0])


def test_sum_reducer_lenet_flat(benchmark):
    arena = GradientArena.from_grad_dicts(_lenet_grad_dicts())
    reducer = make_reducer("sum")
    out = benchmark(reducer.reduce_arena, arena)
    assert out.shape == (arena.layout.total_size,)


def _p10s(thunks, rounds=8, calls=25, warmup=5):
    """p10 call time of each thunk, measured in alternating blocks of
    ``calls`` so a busy spell on a shared host lands on every side."""
    times = [[] for _ in thunks]
    for thunk in thunks:
        for _ in range(warmup):
            thunk()
    for _ in range(rounds):
        for thunk, out in zip(thunks, times):
            for _ in range(calls):
                start = time.perf_counter()
                thunk()
                out.append(time.perf_counter() - start)
    return [sorted(t)[len(t) // 10] for t in times]


def test_flat_adasum_beats_the_per_layer_operator():
    """``reduce_arena`` >= 1.25x the reference ``adasum_per_layer``.

    Same bytes out, on the geometry ``BENCHMARK.json`` reduces most:
    8 ranks of the 104k-parameter MiniBERT (29 layers).  Per pair the
    flat plan widens both whole rows with one copy, takes the per-layer
    dots on prebound views and adds once over the full row; the operator
    allocates and combines layer by layer.  1.56-1.58x on the 2-core dev
    host; both sides are single-threaded, so there is no skip rule.
    """
    model = MiniBERT(
        BertConfig(vocab_size=48, hidden=64, layers=2, heads=4, max_seq_len=16),
        rng=np.random.default_rng(0),
    )
    dicts = _grad_dicts(model)
    arena = GradientArena.from_grad_dicts(dicts)
    reducer = make_reducer("adasum")
    reference = adasum_per_layer(dicts)
    np.testing.assert_array_equal(
        reducer.reduce_arena(arena),
        np.concatenate([reference[name].ravel() for name in dicts[0]]),
    )
    flat, per_layer = _p10s(
        [lambda: reducer.reduce_arena(arena), lambda: adasum_per_layer(dicts)]
    )
    assert per_layer >= 1.25 * flat, (
        f"flat {flat * 1e3:.3f} ms vs per-layer operator "
        f"{per_layer * 1e3:.3f} ms ({per_layer / flat:.2f}x)"
    )
