"""Non-power-of-two Adasum tree geometry (elastic world re-geometry).

The contract the elastic runtime rests on: ``adasum_tree_any`` splits a
span at the largest power of two below ``n`` and delegates power-of-two
blocks to the reference ``adasum_tree``, so any survivor count has a
deterministic tree whose power-of-two sub-reductions are bit-exact
against the reference.
"""

import numpy as np
import pytest

from repro.core import adasum, adasum_tree
from repro.core.operator import adasum_tree_any, largest_pow2_below
from repro.core.distributed_optimizer import make_reducer
from repro.core.strategies import get_strategy
from repro.core.arena import GradientArena


def _grads(n, size=33, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size).astype(np.float32) for _ in range(n)]


class TestLargestPow2Below:
    def test_values(self):
        assert largest_pow2_below(2) == 1
        assert largest_pow2_below(3) == 2
        assert largest_pow2_below(5) == 4
        assert largest_pow2_below(8) == 4
        assert largest_pow2_below(9) == 8

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            largest_pow2_below(1)


class TestAdasumTreeAny:
    def test_pow2_is_bit_exact_with_reference(self):
        for n in (1, 2, 4, 8):
            g = _grads(n)
            np.testing.assert_array_equal(
                adasum_tree_any(g), adasum_tree(g)
            )

    def test_five_ranks_matches_manual_split(self):
        # The 8 -> 5 shrink geometry: largest pow2 below 5 is 4, so the
        # tree is adasum(adasum_tree(g[:4]), g[4]) — the power-of-two
        # block is the reference reduction, bit for bit.
        g = _grads(5)
        expected = adasum(adasum_tree(g[:4]), g[4])
        np.testing.assert_array_equal(adasum_tree_any(g), expected)

    def test_six_ranks_matches_manual_split(self):
        g = _grads(6)
        expected = adasum(adasum_tree(g[:4]), adasum_tree(g[4:]))
        np.testing.assert_array_equal(adasum_tree_any(g), expected)

    def test_seven_ranks_matches_recursive_split(self):
        g = _grads(7)
        right = adasum(adasum_tree(g[4:6]), g[6])
        expected = adasum(adasum_tree(g[:4]), right)
        np.testing.assert_array_equal(adasum_tree_any(g), expected)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7])
    def test_flat_matches_dict_path(self, n):
        # Two layers, one of them a single element (the degenerate
        # boundary case), reduced flat vs per-layer dict composition.
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 9)).astype(np.float32)
        boundaries = [0, 8, 9]
        flat = get_strategy("adasum", "tree_any").combine_flat(rows.copy(), boundaries)
        for lo, hi in zip(boundaries, boundaries[1:]):
            piece = adasum_tree_any([r[lo:hi] for r in rows])
            np.testing.assert_array_equal(flat[lo:hi], piece)

    def test_flat_pow2_matches_reference_flat(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((8, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            get_strategy("adasum", "tree_any").combine_flat(rows.copy(), [0, 16]),
            get_strategy("adasum", "tree").combine_flat(rows.copy(), [0, 16]),
        )


class TestReducerNonPow2:
    def test_reducer_rejects_non_pow2_by_default(self):
        arena = GradientArena.from_grad_dicts(
            [{"w": g} for g in _grads(5)]
        )
        with pytest.raises(ValueError):
            make_reducer("adasum").reduce_arena(arena)

    def test_shrink_8_to_5_survivor_reduction_bit_exact(self):
        # Acceptance scenario: 8 ranks shrink to 5 survivors; the
        # tree_any reducer over the survivor rows must equal the
        # reference composition (adasum_tree on the pow2 block).
        g = _grads(8)
        survivors = [g[i] for i in (1, 2, 4, 5, 7)]
        arena = GradientArena.from_grad_dicts([{"w": s} for s in survivors])
        reducer = make_reducer("adasum", topology="tree_any")
        combined = arena.unpack(reducer.reduce_arena(arena))["w"]
        expected = adasum(adasum_tree(survivors[:4]), survivors[4])
        np.testing.assert_array_equal(combined, expected)
