"""fp16 codec and dynamic-scaling tests (paper §4.4.1)."""

import numpy as np
import pytest

from repro.comm.codec import Fp16Codec
from repro.core import DynamicScaler
from repro.core.operator import adasum, adasum_scale_factors


def _communicate(codec, flat):
    """One wire step: fix the scale, round-trip in place, scaler verdict."""
    codec.begin_step()
    overflow = codec.roundtrip(flat, None)
    return codec.finish_step(overflow)


class TestCodec:
    def test_nbytes_halved(self, rng):
        codec = Fp16Codec(DynamicScaler(init_scale=1.0))
        assert codec.block_nbytes([100], 4) == (200, 2)


class TestAdasumInFp16:
    def test_adasum_on_fp16_matches_fp32(self, rng):
        """fp64 accumulation makes fp16 Adasum track fp32 closely."""
        g1 = rng.standard_normal(256).astype(np.float32)
        g2 = rng.standard_normal(256).astype(np.float32)
        full = adasum(g1, g2)
        half = adasum(g1.astype(np.float16), g2.astype(np.float16)).astype(np.float32)
        np.testing.assert_allclose(half, full, atol=5e-3)

    def test_scale_factors_stable_for_tiny_values(self):
        n = 10000
        g = np.full(n, 6e-4, dtype=np.float16)  # g*g underflows in fp16
        s1, s2 = adasum_scale_factors(g, g)
        assert s1 == pytest.approx(0.5, rel=1e-2)


class TestDynamicScaler:
    def test_invalid_init(self):
        with pytest.raises(ValueError):
            DynamicScaler(init_scale=0)

    def test_overflow_detection(self):
        codec = Fp16Codec(DynamicScaler(init_scale=1.0))
        assert codec.roundtrip(np.array([np.nan], dtype=np.float32), None)
        assert codec.roundtrip(np.array([np.inf], dtype=np.float32), None)
        assert not codec.roundtrip(np.array([1.0], dtype=np.float32), None)

    def test_backoff_on_overflow(self):
        sc = DynamicScaler(init_scale=1024)
        skip = sc.update(found_overflow=True)
        assert skip
        assert sc.scale_value == 512
        assert sc.overflow_count == 1

    def test_growth_after_interval(self):
        sc = DynamicScaler(init_scale=8, growth_interval=3)
        for _ in range(3):
            assert not sc.update(found_overflow=False)
        assert sc.scale_value == 16

    def test_growth_capped(self):
        sc = DynamicScaler(init_scale=2 ** 24, growth_interval=1, max_scale=2 ** 24)
        sc.update(False)
        assert sc.scale_value == 2 ** 24

    def test_scale_floor(self):
        sc = DynamicScaler(init_scale=1.0)
        sc.update(True)
        assert sc.scale_value >= 1.0

    def test_communicate_fp16_happy_path(self, rng):
        codec = Fp16Codec(DynamicScaler(init_scale=256))
        grad = rng.standard_normal(32).astype(np.float32) * 1e-3
        back = grad.copy()
        assert not _communicate(codec, back)
        np.testing.assert_allclose(back, grad, atol=1e-4)

    def test_communicate_fp16_overflow_skips(self):
        sc = DynamicScaler(init_scale=2 ** 15)
        grad = np.array([10.0], dtype=np.float32)  # 10*32768 > fp16 max
        assert _communicate(Fp16Codec(sc), grad)
        assert sc.scale_value == 2 ** 14

    def test_recovers_after_repeated_overflow(self):
        """The scale keeps halving until values fit."""
        codec = Fp16Codec(DynamicScaler(init_scale=2 ** 20))
        for _ in range(25):
            skip = _communicate(codec, np.array([100.0], dtype=np.float32))
            if not skip:
                break
        assert not skip
