"""Hypothesis property tests for the pair-combine schedule contract.

A cell's arithmetic is its hop and its schedule: ``combine_flat`` is
the in-process replay of the level-ordered ``pair_schedule`` with
in-place ``pair_combine`` hops (plus ``finalize_pair`` on the root),
the same replay the process backend's rank workers and the elastic
collective run over arena rows.  These tests pin that replay
**byte for byte** against the dict-level oracle (``tests/core/oracle.py``:
``adasum_per_layer`` over the ``adasum_tree`` / ``adasum_linear``
recursions, the tree sum, the hierarchical node sums) under random data
for every scheduled cell, including non-power-of-two participant subsets
and rows pre-rounded by the scaled-fp16 wire format — exactly the states
the worker reduce sees in elastic and ``wire_codecs=("fp16",)`` runs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.strategies import (
    StrategyReducer,
    get_strategy,
    pair_schedule,
    registered_cells,
)
from tests.core.oracle import reduce_rows

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)
worlds = st.integers(min_value=1, max_value=8)


def _scheduled_cells():
    """Every flat (op, topology[, gpus_per_node]) cell with a schedule at n=8."""
    cells = []
    for op, topology in registered_cells():
        if topology == "hierarchical":
            for g in (1, 2, 4):
                cells.append((op, topology, g))
        else:
            cells.append((op, topology, 1))
    return [
        (op, topo, g) for op, topo, g in cells
        if _strategy(op, topo, g).pair_schedule(8) is not None
    ]


def _strategy(op, topology, gpus_per_node=1):
    strategy = get_strategy(op, topology)
    if gpus_per_node != 1:
        strategy = strategy.bind(gpus_per_node=gpus_per_node)
    return strategy


def _rows(n, sizes, seed):
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    data = rng.standard_normal((n, total)).astype(np.float32)
    boundaries = [0]
    for s in sizes:
        boundaries.append(boundaries[-1] + s)
    return data, boundaries


def _assert_bytes_equal(a, b, context):
    np.testing.assert_array_equal(
        np.asarray(a).view(np.uint8), np.asarray(b).view(np.uint8),
        err_msg=context,
    )


class TestScheduleShape:
    def test_pow2_block_decomposition(self):
        assert pair_schedule(8) == [
            [(0, 1), (2, 3), (4, 5), (6, 7)], [(0, 2), (4, 6)], [(0, 4)]
        ]
        assert pair_schedule(6) == [[(0, 1), (2, 3), (4, 5)], [(0, 2)], [(0, 4)]]
        assert pair_schedule(1) == []

    def test_levels_have_disjoint_positions(self):
        for n in range(1, 17):
            seen = set()
            for level in pair_schedule(n):
                positions = [p for pair in level for p in pair]
                assert len(positions) == len(set(positions)), (n, level)
            pairs = [pair for level in pair_schedule(n) for pair in level]
            assert len(pairs) == n - 1  # a tree: one combine per non-root
            for dst, src in pairs:
                assert (dst, src) not in seen
                seen.add((dst, src))

    def test_rvh_adasum_has_no_schedule(self):
        assert _strategy("adasum", "rvh").pair_schedule(8) is None


class TestReplayByteIdentity:
    """``combine_flat`` (the schedule replay) against the oracle."""

    @pytest.mark.parametrize("op,topology,g", _scheduled_cells())
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=worlds)
    def test_replay_matches_combine_flat(self, op, topology, g, seed, n):
        strategy = _strategy(op, topology, g)
        data, boundaries = _rows(n, [3, 1, 5, 7], seed)
        _assert_bytes_equal(
            strategy.combine_flat(data, boundaries),
            reduce_rows(op, topology, data, boundaries, g),
            f"{op}/{topology}/g={g}/n={n}",
        )

    # Plus the retired spelling "tree_any", which the frozen benchmark's
    # elastic config still names: it must replay as the tree cell does.
    @pytest.mark.parametrize("op,topology,g", _scheduled_cells() + [
        (op, "tree_any", 1) for op in ("sum", "average", "adasum")])
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_whole_model_replay(self, op, topology, g, seed):
        # per_layer=False: no boundaries reach the pair combines.
        strategy = _strategy(op, topology, g)
        data, _ = _rows(8, [4, 12], seed)
        _assert_bytes_equal(
            strategy.combine_flat(data, None),
            reduce_rows(op, topology, data, None, g),
            f"whole-model {op}/{topology}/g={g}",
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=st.integers(min_value=2, max_value=8),
           k=st.integers(min_value=1, max_value=8))
    def test_non_pow2_participant_subsets(self, seed, n, k):
        # The elastic runtime reduces arbitrary survivor subsets of a
        # larger arena; schedule position i maps to participants[i].
        k = min(k, n)
        rng = np.random.default_rng(seed)
        parts = sorted(rng.choice(n, size=k, replace=False))
        data, boundaries = _rows(n, [3, 1, 5], seed)
        sub = data[parts]
        for op in ("sum", "average", "adasum"):
            _assert_bytes_equal(
                _strategy(op, "tree").combine_flat(sub, boundaries),
                reduce_rows(op, "tree", sub, boundaries),
                f"subset {op}/{parts}",
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, n=worlds,
           scale=st.sampled_from([2.0 ** 4, 2.0 ** 8, 2.0 ** 12]))
    def test_fp16_wire_rounded_rows(self, seed, n, scale):
        # Rows that went through the dynamic-scaling fp16 wire format
        # (scale -> fp16 cast -> decode) land on the fp16 grid; the
        # replay must still match the oracle byte for byte on them.
        data, boundaries = _rows(n, [3, 1, 5, 7], seed)
        wire = ((data * scale).astype(np.float16).astype(np.float32)
                * np.float32(1.0 / scale))
        for op in ("sum", "average", "adasum"):
            _assert_bytes_equal(
                _strategy(op, "tree").combine_flat(wire, boundaries),
                reduce_rows(op, "tree", wire, boundaries),
                f"fp16-wire {op}/n={n}",
            )


class TestCombineSpec:
    """The worker spec's reducer is the combine spec: the parent's
    :class:`StrategyReducer` crosses to the rank workers by pickle and
    must arrive with the same bound cell and pair schedule."""

    def test_spec_roundtrips_through_pickle(self):
        reducer = StrategyReducer("adasum", "hierarchical", gpus_per_node=2)
        clone = pickle.loads(pickle.dumps(reducer))
        assert repr(clone) == repr(reducer)
        assert clone.per_layer and clone.post_optimizer == reducer.post_optimizer
        assert clone.strategy.pair_schedule(8) == reducer.strategy.pair_schedule(8)

    def test_spec_resolves_bound_strategy(self):
        reducer = StrategyReducer("adasum", "hierarchical", gpus_per_node=4)
        clone = pickle.loads(pickle.dumps(reducer))
        assert clone.strategy.gpus_per_node == 4
        assert clone.strategy.pair_schedule(8) == _strategy(
            "adasum", "hierarchical", 4
        ).pair_schedule(8)

    def test_spec_schedule_matches_strategy(self):
        for op, topology, g in _scheduled_cells():
            reducer = StrategyReducer(op, topology, per_layer=False, gpus_per_node=g)
            clone = pickle.loads(pickle.dumps(reducer))
            assert not clone.per_layer
            assert clone.strategy.pair_schedule(8) == _strategy(
                op, topology, g
            ).pair_schedule(8)
