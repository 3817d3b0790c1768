"""Tests for repro.utils (flattening, the flat gradient function, table formatting)."""

import numpy as np
import pytest

from repro import nn
from repro.models import MLP
from repro.utils import (
    flatten_grads,
    flatten_params,
    format_table,
    make_flat_grad_fn,
    set_flat_params,
)


class TestFlatten:
    def test_roundtrip(self):
        model = MLP((4, 6, 2), rng=np.random.default_rng(0))
        flat = flatten_params(model)
        assert flat.size == model.num_parameters()
        set_flat_params(model, flat * 2)
        np.testing.assert_allclose(flatten_params(model), flat * 2, rtol=1e-6)

    def test_size_mismatch_raises(self):
        model = MLP((4, 2), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            set_flat_params(model, np.zeros(model.num_parameters() + 1))

    def test_flatten_grads_order_matches_params(self):
        model = MLP((4, 6, 2), rng=np.random.default_rng(0))
        loss = nn.CrossEntropyLoss()(
            model(np.ones((2, 4), dtype=np.float32)), np.array([0, 1])
        )
        loss.backward()
        flat = flatten_grads(model)
        offset = 0
        for p in model.parameters():
            np.testing.assert_allclose(
                flat[offset : offset + p.size].reshape(p.shape), p.grad, rtol=1e-6
            )
            offset += p.size


class TestFlatGradFn:
    def test_gradient_changes_with_w(self, rng):
        model = MLP((4, 3, 2), rng=np.random.default_rng(0))
        x = rng.standard_normal((6, 4)).astype(np.float32)
        y = rng.integers(0, 2, 6)
        fn = make_flat_grad_fn(model, nn.CrossEntropyLoss(), x, y)
        w0 = flatten_params(model)
        g0 = fn(w0)
        g1 = fn(w0 + 0.5)
        assert g0.shape == w0.shape
        assert not np.allclose(g0, g1)

    def test_deterministic(self, rng):
        model = MLP((4, 3, 2), rng=np.random.default_rng(0))
        x = rng.standard_normal((6, 4)).astype(np.float32)
        y = rng.integers(0, 2, 6)
        fn = make_flat_grad_fn(model, nn.CrossEntropyLoss(), x, y)
        w = flatten_params(model)
        np.testing.assert_array_equal(fn(w), fn(w))


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbbb"], [(1, 2), (333, 4)])
        lines = out.split("\n")
        assert len(lines) == 4  # header, rule, two rows
        assert "a" in lines[0] and "bbbb" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out
