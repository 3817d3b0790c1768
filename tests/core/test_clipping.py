"""Gradient-clipping helper tests (§4.1 fine-grained allreduce flow)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    allreduce,
    clip_grad_norm,
    clip_grad_value,
    global_grad_norm,
)


def _grads(rng, scale=1.0):
    return {
        "w": (rng.standard_normal((3, 4)) * scale).astype(np.float32),
        "b": (rng.standard_normal(4) * scale).astype(np.float32),
    }


class TestGlobalNorm:
    def test_matches_concatenated_norm(self, rng):
        g = _grads(rng)
        flat = np.concatenate([g["w"].ravel(), g["b"].ravel()]).astype(np.float64)
        assert global_grad_norm(g) == pytest.approx(np.linalg.norm(flat), rel=1e-6)

    def test_zero(self):
        assert global_grad_norm({"w": np.zeros(3)}) == 0.0


class TestClipNorm:
    def test_over_bound_scaled(self, rng):
        g = _grads(rng, scale=10.0)
        clipped = clip_grad_norm(g, max_norm=1.0)
        assert global_grad_norm(clipped) == pytest.approx(1.0, rel=1e-4)

    def test_under_bound_unchanged(self, rng):
        g = _grads(rng, scale=1e-3)
        clipped = clip_grad_norm(g, max_norm=1.0)
        for n in g:
            np.testing.assert_allclose(clipped[n], g[n], rtol=1e-6)

    def test_inputs_untouched(self, rng):
        g = _grads(rng, scale=10.0)
        before = {n: a.copy() for n, a in g.items()}
        clip_grad_norm(g, 1.0)
        for n in g:
            np.testing.assert_array_equal(g[n], before[n])

    def test_invalid_bound(self, rng):
        with pytest.raises(ValueError):
            clip_grad_norm(_grads(rng), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 10.0))
    def test_never_exceeds_bound(self, seed, bound):
        g = _grads(np.random.default_rng(seed), scale=5.0)
        assert global_grad_norm(clip_grad_norm(g, bound)) <= bound * 1.001


class TestClipValue:
    def test_clamped(self, rng):
        g = _grads(rng, scale=10.0)
        clipped = clip_grad_value(g, 0.5)
        for a in clipped.values():
            assert np.abs(a).max() <= 0.5

    def test_invalid(self, rng):
        with pytest.raises(ValueError):
            clip_grad_value(_grads(rng), -1.0)


class TestClipThenAllreduce:
    def test_paper_flow(self, rng):
        """§4.1: clip per rank, then hvd.allreduce(op=Adasum)."""
        rank_grads = [
            clip_grad_norm(_grads(rng, scale=5.0), max_norm=1.0) for _ in range(4)
        ]
        combined = allreduce(rank_grads, op="adasum")
        assert set(combined) == {"w", "b"}
        # Each input had norm 1; Adasum's output is at most the sum.
        assert global_grad_norm(combined) <= 4.0 + 1e-5
