"""Fused-layout tests: fusion groups, packing, boundary bookkeeping.

A :class:`FusedTensorLayout` records where each tensor sits in one flat
buffer; :class:`BucketPlan` splits it into size-capped fusion groups and
:class:`GradientArena` packs and unpacks the rows.
"""

import numpy as np
import pytest

from repro.comm import BucketPlan
from repro.comm.fusion import layout_of
from repro.core import GradientArena


def _tensors(rng, sizes):
    return [(f"layer{i}", rng.standard_normal(s).astype(np.float32)) for i, s in enumerate(sizes)]


def _groups(tensors, cap_bytes):
    return BucketPlan.for_layout(layout_of(tensors), cap_bytes=cap_bytes).buckets


class TestPlanning:
    def test_single_group_under_threshold(self, rng):
        groups = _groups(_tensors(rng, [10, 20, 30]), cap_bytes=1024)
        assert len(groups) == 1
        assert groups[0].size == 60

    def test_splits_at_threshold(self, rng):
        groups = _groups(_tensors(rng, [10, 10, 10, 10]), cap_bytes=100)  # 25 float32
        assert [g.size for g in groups] == [20, 20]

    def test_oversize_tensor_gets_own_group(self, rng):
        groups = _groups(_tensors(rng, [5, 1000, 5]), cap_bytes=100)
        assert [g.names for g in groups] == [("layer2",), ("layer1",), ("layer0",)]

    def test_invalid_threshold(self, rng):
        with pytest.raises(ValueError):
            _groups(_tensors(rng, [4]), cap_bytes=0)

    def test_boundaries(self, rng):
        assert layout_of(_tensors(rng, [3, 4, 5])).boundaries() == [0, 3, 7, 12]


class TestPackUnpack:
    def test_roundtrip(self, rng):
        tensors = {
            "layer0": rng.standard_normal((2, 3)).astype(np.float32),
            "layer1": rng.standard_normal((4, 2)).astype(np.float32),
        }
        arena = GradientArena.from_grad_dicts([tensors])
        back = arena.unpack(arena.row(0))
        for name, arr in tensors.items():
            np.testing.assert_array_equal(back[name], arr)

    def test_pack_shape_mismatch(self, rng):
        arena = GradientArena(layout_of(_tensors(rng, [4])), 1)
        with pytest.raises(ValueError):
            arena.write_row(0, {"layer0": np.zeros((2, 3), dtype=np.float32)})

    def test_unpack_size_mismatch(self, rng):
        arena = GradientArena(layout_of(_tensors(rng, [4])), 1)
        with pytest.raises(ValueError):
            arena.unpack(np.zeros(5, dtype=np.float32))
