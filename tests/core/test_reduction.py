"""Reducer strategy tests (Sum / Average / Adasum, per-layer / whole-model)."""

import numpy as np
import pytest

from repro.core import (
    RunConfig,
    StrategyReducer,
    adasum_per_layer,
    adasum_tree,
)


def _dicts(rng, ranks=4, sizes=(6, 10)):
    return [
        {f"l{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(sizes)}
        for _ in range(ranks)
    ]


class TestSumAverage:
    def test_sum(self, rng):
        ds = _dicts(rng)
        out = StrategyReducer("sum").reduce(ds)
        np.testing.assert_allclose(out["l0"], np.sum([d["l0"] for d in ds], axis=0), rtol=1e-5)

    def test_average(self, rng):
        ds = _dicts(rng)
        out = StrategyReducer("average").reduce(ds)
        np.testing.assert_allclose(out["l1"], np.mean([d["l1"] for d in ds], axis=0), rtol=1e-5)

    def test_sum_not_post_optimizer(self):
        assert not StrategyReducer("sum").post_optimizer
        assert not StrategyReducer("average").post_optimizer

    def test_inconsistent_names_raise(self, rng):
        with pytest.raises(ValueError):
            StrategyReducer("sum").reduce([{"a": np.zeros(2)}, {"b": np.zeros(2)}])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            StrategyReducer("average").reduce([])

    def test_fp64_accumulation(self):
        """Summing many small fp32 values avoids catastrophic loss."""
        n_ranks = 1024
        dicts = [{"w": np.full(4, 1e-4, dtype=np.float32)} for _ in range(n_ranks)]
        out = StrategyReducer("sum").reduce(dicts)
        np.testing.assert_allclose(out["w"], n_ranks * 1e-4, rtol=1e-4)


class TestAdasumReducer:
    def test_per_layer_matches_reference(self, rng):
        ds = _dicts(rng)
        out = StrategyReducer("adasum", per_layer=True).reduce(ds)
        ref = adasum_per_layer(ds)
        for name in ref:
            np.testing.assert_allclose(out[name], ref[name], rtol=1e-5)

    def test_whole_model_matches_flat_reference(self, rng):
        ds = _dicts(rng)
        out = StrategyReducer("adasum", per_layer=False).reduce(ds)
        flats = [np.concatenate([d["l0"], d["l1"]]) for d in ds]
        ref = adasum_tree(flats)
        got = np.concatenate([out["l0"], out["l1"]])
        np.testing.assert_allclose(got, ref, rtol=1e-5)

    def test_shapes_preserved(self, rng):
        ds = [
            {"w": rng.standard_normal((3, 4)).astype(np.float32)} for _ in range(4)
        ]
        out = StrategyReducer("adasum", per_layer=False).reduce(ds)
        assert out["w"].shape == (3, 4)

    def test_linear_any_rank_count(self, rng):
        out = StrategyReducer("adasum", topology="linear").reduce(_dicts(rng, ranks=3))
        assert set(out) == {"l0", "l1"}

    def test_is_post_optimizer(self):
        assert StrategyReducer("adasum").post_optimizer


class TestFactory:
    @pytest.mark.parametrize(
        "op,name,post_optimizer",
        [
            ("sum", "sum", False),
            ("average", "average", False),
            ("adasum", "adasum", True),
        ],
    )
    def test_make_reducer(self, op, name, post_optimizer):
        reducer = RunConfig(op=op).make_reducer()
        assert reducer.name == name
        assert reducer.post_optimizer is post_optimizer
        # Any spelling builds the same registry-backed reducer.
        assert StrategyReducer(op.upper()).name == name

    @pytest.mark.parametrize(
        "kwargs,topology",
        [
            (dict(), "tree"),
            (dict(topology="hierarchical"), "hierarchical"),
            (dict(topology="linear"), "linear"),
            (dict(topology="rvh"), "rvh"),
            (dict(topology="ring"), "ring"),
        ],
    )
    def test_make_reducer_topology(self, kwargs, topology):
        reducer = RunConfig(op="adasum", **kwargs).make_reducer()
        assert reducer.topology == topology
        assert reducer.strategy.topology == topology
