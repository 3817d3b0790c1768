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

from repro.core import (
    GradientArena,
    StrategyReducer,
    adasum,
    adasum_flat,
    adasum_per_layer,
    adasum_tree,
)
from repro.models import MLP, BertConfig, LeNet5, MiniBERT
from repro.tensor import tune_allocator

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
    reducer = StrategyReducer("adasum")
    out = benchmark(reducer.reduce, dicts)
    assert set(out) == set(dicts[0])


def test_per_layer_reducer_lenet_flat(benchmark):
    arena = GradientArena.from_grad_dicts(_lenet_grad_dicts())
    reducer = StrategyReducer("adasum")
    out = benchmark(reducer.reduce_arena, arena)
    assert out.shape == (arena.layout.total_size,)


def test_sum_reducer_lenet_sized(benchmark):
    dicts = _lenet_grad_dicts()
    out = benchmark(StrategyReducer("sum").reduce, dicts)
    assert set(out) == set(dicts[0])


def test_sum_reducer_lenet_flat(benchmark):
    arena = GradientArena.from_grad_dicts(_lenet_grad_dicts())
    reducer = StrategyReducer("sum")
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
    reducer = StrategyReducer("adasum")
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


def _allocating_pair_adasum(g1, g2, boundaries, out):
    """The pairwise ``adasum_flat`` before it ran on the cached reduce
    plan, frozen as the guard's reference: per call it widens ``g1`` into
    a fresh float64 row, allocates a float64 scratch row and the two
    per-layer scale vectors, and scales layer by layer into them."""
    a = g1.astype(np.float64)
    b = g2.astype(np.float64, copy=False)
    tmp = np.empty(g1.size)
    layers = list(zip(boundaries[:-1], boundaries[1:]))
    s1, s2 = np.empty(len(layers)), np.empty(len(layers))
    for layer, (lo, hi) in enumerate(layers):
        x, y = a[lo:hi], b[lo:hi]
        dot, n1, n2 = float(x @ y), float(x @ x), float(y @ y)
        s1[layer] = 1.0 - dot / (2.0 * n1) if n1 > 1e-30 else 1.0
        s2[layer] = 1.0 - dot / (2.0 * n2) if n2 > 1e-30 else 1.0
    for layer, (lo, hi) in enumerate(layers):
        np.multiply(b[lo:hi], s2[layer], out=tmp[lo:hi])
        np.multiply(a[lo:hi], s1[layer], out=a[lo:hi])
    a += tmp
    np.copyto(out, a, casting="same_kind")
    return out


def test_pairwise_adasum_runs_on_the_reduce_plan():
    """One pairwise ``adasum_flat`` hop (an elastic tree collective's, a
    worker combine's) against the allocating kernel it replaced, same
    bytes out: >= 1.3x at 676 floats in 4 layers (the ``elastic_faults``
    MLP) and >= 1.1x at 104,240 in 29 (the ``bert_overlap`` MiniBERT).
    1.62-1.70x and 1.27-1.36x on a 2-vCPU Xeon VM."""
    tune_allocator()  # as in a trainer: the reference's rows recycle, no mmap each
    for model, floor in (
        (MLP((16, 32, 4), rng=np.random.default_rng(0)), 1.3),
        (MiniBERT(BertConfig(vocab_size=48, hidden=64, layers=2, heads=4,
                             max_seq_len=16), rng=np.random.default_rng(0)), 1.1),
    ):
        rows = GradientArena.from_grad_dicts(_grad_dicts(model, num_ranks=2)).data
        bounds = GradientArena.from_model(model, 1).layout.boundaries()
        plan_out, ref_out = np.empty_like(rows[0]), np.empty_like(rows[0])
        adasum_flat(rows[0], rows[1], bounds, out=plan_out)
        _allocating_pair_adasum(rows[0], rows[1], bounds, ref_out)
        assert plan_out.tobytes() == ref_out.tobytes()
        plan, allocating = _p10s([
            lambda: adasum_flat(rows[0], rows[1], bounds, out=plan_out),
            lambda: _allocating_pair_adasum(rows[0], rows[1], bounds, ref_out),
        ], rounds=10, calls=50)
        assert allocating >= floor * plan, (
            f"{rows.shape[1]} floats: plan {plan * 1e6:.1f} us vs allocating "
            f"{allocating * 1e6:.1f} us ({allocating / plan:.2f}x)"
        )
