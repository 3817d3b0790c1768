"""Tests for the pairwise Adasum operator and its recursive applications.

Covers every analytic property stated in Section 3.5 of the paper plus
hypothesis-driven invariants on random gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    adasum,
    adasum_linear,
    adasum_per_layer,
    adasum_scale_factors,
    adasum_tree,
    orthogonality_ratio,
)


def _vec(rng, n=16, scale=1.0):
    return (rng.standard_normal(n) * scale).astype(np.float32)


finite_vecs = st.integers(min_value=0, max_value=2 ** 31 - 1).map(
    lambda seed: np.random.default_rng(seed).standard_normal(12).astype(np.float32)
)


class TestPairwise:
    def test_orthogonal_gives_sum(self):
        g1 = np.array([3.0, 0.0, 0.0], dtype=np.float32)
        g2 = np.array([0.0, 4.0, 0.0], dtype=np.float32)
        np.testing.assert_allclose(adasum(g1, g2), g1 + g2)

    def test_parallel_equal_norm_gives_average(self):
        g = np.array([1.0, 2.0, -1.0], dtype=np.float32)
        np.testing.assert_allclose(adasum(g, g), g, rtol=1e-6)

    def test_parallel_different_norms(self):
        g = np.array([2.0, 0.0], dtype=np.float32)
        out = adasum(g, 3 * g)
        # s1 = 1 - 6/(2*4)*... dot = 12, |g1|²=4, |g2|²=36
        s1 = 1 - 12 / 8
        s2 = 1 - 12 / 72
        np.testing.assert_allclose(out, s1 * g + s2 * 3 * g, rtol=1e-6)

    def test_symmetry(self, rng):
        g1, g2 = _vec(rng), _vec(rng)
        np.testing.assert_allclose(adasum(g1, g2), adasum(g2, g1), rtol=1e-5)

    def test_scale_covariance(self, rng):
        """Adasum(c·g1, c·g2) = c·Adasum(g1, g2)."""
        g1, g2 = _vec(rng), _vec(rng)
        c = 3.7
        np.testing.assert_allclose(
            adasum(c * g1, c * g2), c * adasum(g1, g2), rtol=1e-4
        )

    def test_formula_matches_definition(self, rng):
        g1, g2 = _vec(rng), _vec(rng)
        dot = float(g1.astype(np.float64) @ g2.astype(np.float64))
        n1 = float(g1.astype(np.float64) @ g1.astype(np.float64))
        n2 = float(g2.astype(np.float64) @ g2.astype(np.float64))
        expected = (1 - dot / (2 * n1)) * g1 + (1 - dot / (2 * n2)) * g2
        np.testing.assert_allclose(adasum(g1, g2), expected, rtol=1e-5)

    def test_zero_gradient_falls_back_to_sum(self, rng):
        g = _vec(rng)
        z = np.zeros_like(g)
        np.testing.assert_allclose(adasum(g, z), g, rtol=1e-6)
        np.testing.assert_allclose(adasum(z, z), z)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            adasum(np.zeros(3), np.zeros(4))

    def test_preserves_dtype(self, rng):
        g1 = _vec(rng).astype(np.float16)
        g2 = _vec(rng).astype(np.float16)
        assert adasum(g1, g2).dtype == np.float16

    def test_scale_factors_at_most_one(self, rng):
        """When gradients positively correlate, both scales are < 1."""
        g1 = _vec(rng)
        g2 = g1 + 0.1 * _vec(rng)
        s1, s2 = adasum_scale_factors(g1, g2)
        assert s1 < 1.0 and s2 < 1.0

    def test_anticorrelated_scales_above_one(self, rng):
        g1 = _vec(rng)
        s1, s2 = adasum_scale_factors(g1, -0.5 * g1)
        assert s1 > 1.0 and s2 > 1.0

    def test_fp16_inputs_use_fp64_accumulation(self):
        """Many tiny fp16 values: naive fp16 dot products would underflow."""
        n = 4096
        g1 = np.full(n, 1e-3, dtype=np.float16)
        g2 = np.full(n, 1e-3, dtype=np.float16)
        s1, s2 = adasum_scale_factors(g1, g2)
        # Parallel equal-norm → both scales 1/2 exactly.
        assert s1 == pytest.approx(0.5, rel=1e-3)
        assert s2 == pytest.approx(0.5, rel=1e-3)


class TestRecursive:
    def test_tree_empty_raises(self):
        with pytest.raises(ValueError):
            adasum_tree([])

    def test_tree_single(self, rng):
        g = _vec(rng)
        np.testing.assert_array_equal(adasum_tree([g]), g)

    def test_tree_matches_manual_recursion(self, rng):
        gs = [_vec(rng) for _ in range(4)]
        expected = adasum(adasum(gs[0], gs[1]), adasum(gs[2], gs[3]))
        np.testing.assert_allclose(adasum_tree(gs), expected, rtol=1e-5)

    def test_linear_matches_fold(self, rng):
        gs = [_vec(rng) for _ in range(5)]
        expected = adasum(adasum(adasum(adasum(gs[0], gs[1]), gs[2]), gs[3]), gs[4])
        np.testing.assert_allclose(adasum_linear(gs), expected, rtol=1e-5)

    def test_orthogonal_set_sums(self):
        eye = np.eye(8, dtype=np.float32)
        out = adasum_tree([eye[i] for i in range(8)])
        np.testing.assert_allclose(out, np.ones(8), rtol=1e-5)

    def test_parallel_set_averages(self):
        g = np.array([2.0, -1.0], dtype=np.float32)
        out = adasum_tree([g] * 8)
        np.testing.assert_allclose(out, g, rtol=1e-5)

    def test_tree_vs_linear_differ_in_general(self, rng):
        gs = [_vec(rng) for _ in range(4)]
        tree = adasum_tree(gs)
        linear = adasum_linear(gs)
        assert not np.allclose(tree, linear, rtol=1e-6)


class TestPerLayer:
    def test_layers_independent(self, rng):
        dicts = [
            {"a": _vec(rng), "b": _vec(rng, 8)},
            {"a": _vec(rng), "b": _vec(rng, 8)},
        ]
        out = adasum_per_layer(dicts)
        np.testing.assert_allclose(out["a"], adasum(dicts[0]["a"], dicts[1]["a"]), rtol=1e-5)
        np.testing.assert_allclose(out["b"], adasum(dicts[0]["b"], dicts[1]["b"]), rtol=1e-5)

    def test_differs_from_whole_model(self, rng):
        # Layer 'a' parallel, layer 'b' orthogonal: per-layer treats them
        # separately, whole-model mixes the dot products.
        a = np.array([1.0, 0.0], dtype=np.float32)
        b1 = np.array([1.0, 0.0], dtype=np.float32)
        b2 = np.array([0.0, 1.0], dtype=np.float32)
        d1, d2 = {"a": a, "b": b1}, {"a": a, "b": b2}
        per_layer = adasum_per_layer([d1, d2])
        np.testing.assert_allclose(per_layer["a"], a, rtol=1e-6)  # averaged
        np.testing.assert_allclose(per_layer["b"], b1 + b2, rtol=1e-6)  # summed

    def test_name_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            adasum_per_layer([{"a": _vec(rng)}, {"b": _vec(rng)}])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            adasum_per_layer([])


class TestOrthogonalityRatio:
    def test_orthogonal_is_one(self):
        eye = np.eye(4, dtype=np.float32)
        assert orthogonality_ratio([eye[i] for i in range(4)]) == pytest.approx(1.0, rel=1e-5)

    def test_parallel_is_one_over_n(self):
        g = np.array([1.0, 1.0], dtype=np.float32)
        assert orthogonality_ratio([g] * 8) == pytest.approx(1.0 / 8, rel=1e-4)

    def test_zero_gradients(self):
        assert orthogonality_ratio([np.zeros(4)] * 2) == 1.0

    def test_conv_shaped_gradients(self, rng):
        """Regression: >=2-D gradients (conv kernels) used to TypeError
        because ``combined @ combined`` became a matmul instead of an
        inner product.  The ratio must match the flattened computation."""
        kernels = [rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
                   for _ in range(4)]
        r = orthogonality_ratio(kernels)
        flat = orthogonality_ratio([k.reshape(-1) for k in kernels])
        assert r == pytest.approx(flat, rel=1e-6)
        assert 0.0 <= r <= 4.0

    def test_conv_shaped_parallel_is_one_over_n(self, rng):
        k = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        assert orthogonality_ratio([k] * 4) == pytest.approx(0.25, rel=1e-4)


class TestHypothesisInvariants:
    @settings(max_examples=60, deadline=None)
    @given(finite_vecs, finite_vecs)
    def test_symmetry_property(self, g1, g2):
        np.testing.assert_allclose(adasum(g1, g2), adasum(g2, g1), rtol=1e-4, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(finite_vecs, finite_vecs)
    def test_never_exceeds_sum_of_norms(self, g1, g2):
        """‖Adasum(g1,g2)‖ ≤ ‖g1‖ + ‖g2‖ + slack (triangle-style bound)."""
        out = adasum(g1, g2)
        lhs = np.linalg.norm(out.astype(np.float64))
        s1, s2 = adasum_scale_factors(g1, g2)
        rhs = abs(s1) * np.linalg.norm(g1) + abs(s2) * np.linalg.norm(g2)
        assert lhs <= rhs + 1e-4

    @settings(max_examples=60, deadline=None)
    @given(finite_vecs)
    def test_self_combination_is_identity(self, g):
        np.testing.assert_allclose(adasum(g, g), g, rtol=1e-3, atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(finite_vecs, finite_vecs, st.floats(min_value=0.1, max_value=10.0))
    def test_scale_covariance_property(self, g1, g2, c):
        np.testing.assert_allclose(
            adasum(c * g1, c * g2), c * adasum(g1, g2), rtol=1e-3, atol=1e-4
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite_vecs, min_size=4, max_size=4))
    def test_orthogonality_ratio_bounds(self, gs):
        r = orthogonality_ratio(gs)
        # Bounded by [~1/n, ~2] for n=4 (above 1 is possible with
        # negatively-correlated gradients, where Adasum over-sums).
        assert 0.0 <= r <= 4.0
