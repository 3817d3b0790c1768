"""fp16 communication path of the DistributedOptimizer (§4.4.1)."""

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedOptimizer, GradientArena, RunConfig
from repro.models import MLP
from repro.optim import SGD, Adam
from repro.tensor import Tensor


def _model(seed=0):
    return MLP((4, 6, 2), rng=np.random.default_rng(seed))


def _grad_dicts(model, rng, ranks, scale=0.1):
    return [
        {name: rng.standard_normal(p.shape).astype(np.float32) * scale
         for name, p in model.named_parameters()}
        for _ in range(ranks)
    ]


class TestFp16PreOptimizer:
    def test_tracks_fp32_update(self, rng):
        m16, m32 = _model(1), _model(1)
        d16 = DistributedOptimizer(
            m16, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=2, op="adasum", adasum_pre_optimizer=True,
                      wire_codecs=("fp16",)),
        )
        d32 = DistributedOptimizer(
            m32, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=2, op="adasum", adasum_pre_optimizer=True),
        )
        gd = _grad_dicts(m16, rng, 2)
        d16.step_arena(GradientArena.from_grad_dicts([dict(g) for g in gd]))
        d32.step_arena(GradientArena.from_grad_dicts(gd))
        for (n1, p1), (n2, p2) in zip(m16.named_parameters(), m32.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=2e-4)

    def test_overflow_skips_and_backs_off(self, rng):
        m = _model()
        w0 = {n: p.data.copy() for n, p in m.named_parameters()}
        d = DistributedOptimizer(
            m, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=2, op="adasum", adasum_pre_optimizer=True,
                      wire_codecs=("fp16",)),
        )
        scale0 = d._scaler.scale_value
        huge = _grad_dicts(m, rng, 2, scale=1e6)
        d.step_arena(GradientArena.from_grad_dicts(huge))
        assert d.skipped_steps == 1
        assert d._scaler.scale_value < scale0
        for n, p in m.named_parameters():
            np.testing.assert_array_equal(p.data, w0[n])  # step skipped


class TestFp16PostOptimizer:
    def test_tracks_fp32_update(self, rng):
        m16, m32 = _model(2), _model(2)
        d16 = DistributedOptimizer(
            m16, lambda ps: Adam(ps, 0.01),
            RunConfig(num_ranks=2, op="adasum", wire_codecs=("fp16",)),
        )
        d32 = DistributedOptimizer(
            m32, lambda ps: Adam(ps, 0.01),
            RunConfig(num_ranks=2, op="adasum"),
        )
        gd = _grad_dicts(m16, rng, 2)
        d16.step_arena(GradientArena.from_grad_dicts([dict(g) for g in gd]))
        d32.step_arena(GradientArena.from_grad_dicts(gd))
        for (n1, p1), (n2, p2) in zip(m16.named_parameters(), m32.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=5e-4)

    def test_skipped_step_restores_start(self):
        m = _model(3)
        w0 = {n: p.data.copy() for n, p in m.named_parameters()}
        # Force the scale so high the deltas overflow fp16.
        d = DistributedOptimizer(
            m, lambda ps: SGD(ps, 1e5),
            RunConfig(num_ranks=2, op="adasum", wire_codecs=("fp16",)),
        )
        d._scaler.scale_value = 2.0 ** 24
        gd = _grad_dicts(m, np.random.default_rng(0), 2, scale=10.0)
        d.step_arena(GradientArena.from_grad_dicts(gd))
        assert d.skipped_steps == 1
        for n, p in m.named_parameters():
            np.testing.assert_array_equal(p.data, w0[n])

    def test_training_converges_under_fp16(self, rng):
        m = _model(4)
        d = DistributedOptimizer(
            m, lambda ps: Adam(ps, 0.02),
            RunConfig(num_ranks=2, op="adasum", wire_codecs=("fp16",)),
        )
        loss_fn = nn.CrossEntropyLoss()
        x = rng.standard_normal((32, 4)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.int64)
        losses = []
        for _ in range(25):
            gds = []
            for r in range(2):
                m.zero_grad()
                loss = loss_fn(m(Tensor(x)), y)
                loss.backward()
                gds.append({n: np.array(p.grad) for n, p in m.named_parameters()})
            losses.append(float(loss.data))
            d.step_arena(GradientArena.from_grad_dicts(gds))
        assert losses[-1] < losses[0]
