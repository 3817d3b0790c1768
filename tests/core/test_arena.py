"""Property tests for the flat-buffer gradient pipeline.

The arena-based reducers and flat Adasum kernels promise *bit-exact*
equivalence with the dict adapter and the per-layer reference operator
— not approximate equality.  Hypothesis sweeps
rank counts, dtypes and conv-shaped layer layouts; every assertion is
``array_equal`` on raw bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.comm.fusion import layout_of
from repro.core import (
    GradientArena,
    RunConfig,
    StrategyReducer,
    adasum,
    adasum_flat,
    get_strategy,
    layer_id_index,
)
from repro.models import LeNet5
from repro.optim import SGD, Adam
from repro.train import ParallelTrainer

ranks_pow2 = st.sampled_from([2, 4, 8])
ranks_any = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
dtypes = st.sampled_from([np.float32, np.float64, np.float16])

# Conv-shaped, bias-shaped, matrix-shaped and degenerate scalar layers.
LAYER_SETS = st.sampled_from(
    [
        {"conv.w": (4, 3, 3, 3), "conv.b": (4,)},
        {"fc.w": (10, 7), "fc.b": (10,), "scale": (1,)},
        {"conv.w": (2, 2, 5, 5), "ln.g": (16,), "fc.w": (3, 16)},
        {"single": (33,)},
    ]
)


def _rank_dicts(shapes, num_ranks, seed, dtype):
    rng = np.random.default_rng(seed)
    dicts = [
        {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
        for _ in range(num_ranks)
    ]
    # Exercise the degenerate (zero-norm) fallback on one rank.
    first = next(iter(shapes))
    dicts[0][first][:] = 0
    return dicts


class TestArenaLayout:
    def test_views_are_zero_copy(self):
        model = LeNet5(rng=np.random.default_rng(0))
        arena = GradientArena.from_model(model, num_ranks=2)
        views = arena.views(1)
        name = arena.layout.names[0]
        views[name].flat[0] = 42.0
        lo = arena.layout.slices[0][0]
        assert arena.data[1, lo] == 42.0
        assert arena.row(1)[lo] == 42.0

    def test_layout_matches_parameter_order(self):
        model = LeNet5(rng=np.random.default_rng(0))
        arena = GradientArena.from_model(model, num_ranks=1)
        names = [n for n, _ in model.named_parameters()]
        assert list(arena.layout.names) == names
        assert arena.layout.total_size == model.num_parameters()

    def test_round_trip_dicts(self, rng):
        shapes = {"a": (3, 4), "b": (5,)}
        dicts = [
            {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
            for _ in range(3)
        ]
        arena = GradientArena.from_grad_dicts(dicts)
        back = arena.to_dicts()
        for d, e in zip(dicts, back):
            for n in shapes:
                assert np.array_equal(d[n], e[n])

    def test_layer_id_index(self):
        layout = layout_of([("a", np.empty(3)), ("b", np.empty(2))])
        assert list(layer_id_index(layout)) == [0, 0, 0, 1, 1]

    def test_mismatched_names_rejected(self, rng):
        arena = GradientArena(layout_of([("a", np.empty(3))]), num_ranks=2)
        with pytest.raises(ValueError):
            arena.load_dicts([{"a": np.zeros(3)}, {"wrong": np.zeros(3)}])


class TestFlatReducersBitExact:
    @settings(max_examples=30, deadline=None)
    @given(ranks_any, LAYER_SETS, seeds, dtypes)
    def test_sum_and_average(self, num_ranks, shapes, seed, dtype):
        dicts = _rank_dicts(shapes, num_ranks, seed, dtype)
        arena = GradientArena.from_grad_dicts(dicts)
        for reducer in (StrategyReducer("sum"), StrategyReducer("average")):
            ref = reducer.reduce(dicts)
            got = arena.unpack(reducer.reduce_arena(arena))
            for n in shapes:
                assert got[n].dtype == ref[n].dtype
                assert np.array_equal(got[n], ref[n]), (reducer.name, n)

    @settings(max_examples=30, deadline=None)
    @given(ranks_pow2, LAYER_SETS, seeds, dtypes, st.booleans(), st.booleans())
    def test_adasum(self, num_ranks, shapes, seed, dtype, per_layer, tree):
        dicts = _rank_dicts(shapes, num_ranks, seed, dtype)
        arena = GradientArena.from_grad_dicts(dicts)
        reducer = StrategyReducer(
            "adasum", per_layer=per_layer, topology="tree" if tree else "linear"
        )
        ref = reducer.reduce(dicts)
        got = arena.unpack(reducer.reduce_arena(arena))
        for n in shapes:
            assert got[n].dtype == ref[n].dtype
            assert np.array_equal(got[n], ref[n]), (per_layer, tree, n)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=7), LAYER_SETS, seeds)
    def test_adasum_linear_any_rank_count(self, num_ranks, shapes, seed):
        dicts = _rank_dicts(shapes, num_ranks, seed, np.float32)
        arena = GradientArena.from_grad_dicts(dicts)
        reducer = StrategyReducer("adasum", topology="linear")
        ref = reducer.reduce(dicts)
        got = arena.unpack(reducer.reduce_arena(arena))
        for n in shapes:
            assert np.array_equal(got[n], ref[n])


class TestFlatOperator:
    @settings(max_examples=30, deadline=None)
    @given(LAYER_SETS, seeds, dtypes)
    def test_pairwise_flat_matches_per_layer(self, shapes, seed, dtype):
        d1, d2 = _rank_dicts(shapes, 2, seed, dtype)
        arena = GradientArena.from_grad_dicts([d1, d2])
        flat = adasum_flat(
            arena.row(0).copy(), arena.row(1).copy(), arena.layout.boundaries()
        )
        got = arena.unpack(flat)
        for n in shapes:
            assert np.array_equal(got[n], adasum(d1[n], d2[n])), n

    def test_pairwise_out_param(self, rng):
        g1 = rng.standard_normal(64).astype(np.float32)
        g2 = rng.standard_normal(64).astype(np.float32)
        out = np.empty_like(g1)
        res = adasum(g1, g2, out=out)
        assert res is out
        assert np.array_equal(out, adasum(g1, g2))
        flat_out = np.empty_like(g1)
        adasum_flat(g1, g2, out=flat_out)
        assert np.array_equal(flat_out, adasum(g1, g2))

    def test_bad_boundaries_rejected(self, rng):
        data = rng.standard_normal((2, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            # boundaries do not cover the buffer
            get_strategy("adasum", "tree").combine_flat(data, [0, 4])


class TestProcessBackendGuards:
    def test_rejects_models_with_buffers(self):
        from repro.models.resnet import ResNetCIFAR

        model = ResNetCIFAR(n=1, width=4, rng=np.random.default_rng(0))
        if not any(True for _ in model.named_buffers()):
            pytest.skip("model has no buffers in this configuration")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 10, 16)
        config = RunConfig(op="adasum", adasum_pre_optimizer=True, num_ranks=2,
                           microbatch=4, execution="processes")
        with pytest.raises(ValueError, match="buffers"):
            ParallelTrainer(
                model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.01), x, y, config,
            )

    def test_rejects_active_dropout(self):
        from repro.models import MiniBERT
        from repro.models.transformer import BertConfig

        cfg = BertConfig(dropout=0.1)
        model = MiniBERT(cfg=cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(0)
        x = rng.integers(0, cfg.vocab_size, (8, 16))
        y = rng.integers(0, cfg.vocab_size, (8, 16))
        config = RunConfig(op="adasum", num_ranks=2, microbatch=4,
                           execution="processes")
        with pytest.raises(ValueError, match="dropout"):
            ParallelTrainer(
                model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 1e-3), x, y, config,
            )
