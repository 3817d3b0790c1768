"""DistributedOptimizer semantics: pre/post-optimizer application (Figure 3)."""

import numpy as np
import pytest

from repro.core import DistributedOptimizer, GradientArena, RunConfig, adasum_per_layer
from repro.models import MLP
from repro.optim import SGD, Adam
from repro.tensor import Tensor
from repro import nn


def _model(seed=0):
    return MLP((4, 6, 2), rng=np.random.default_rng(seed))


def _grad_dicts(model, rng, ranks):
    return [
        {name: rng.standard_normal(p.shape).astype(np.float32) * 0.1
         for name, p in model.named_parameters()}
        for _ in range(ranks)
    ]


class TestValidation:
    def test_bad_rank_count(self):
        with pytest.raises(ValueError):
            DistributedOptimizer(
                _model(), lambda ps: SGD(ps, 0.1),
                RunConfig(num_ranks=0),
            )

    def test_wrong_number_of_grad_dicts(self, rng):
        m = _model()
        d = DistributedOptimizer(m, lambda ps: SGD(ps, 0.1), RunConfig(num_ranks=4))
        with pytest.raises(ValueError):
            d.step_arena(GradientArena.from_grad_dicts(_grad_dicts(m, rng, 2)))


class TestPreOptimizerModes:
    def test_sum_equals_manual(self, rng):
        m = _model()
        w0 = {n: p.data.copy() for n, p in m.named_parameters()}
        d = DistributedOptimizer(
            m, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=2, op="sum"),
        )
        gd = _grad_dicts(m, rng, 2)
        d.step_arena(GradientArena.from_grad_dicts(gd))
        for n, p in m.named_parameters():
            expected = w0[n] - 0.1 * (gd[0][n] + gd[1][n])
            np.testing.assert_allclose(p.data, expected, rtol=1e-5)

    def test_average_equals_manual(self, rng):
        m = _model()
        w0 = {n: p.data.copy() for n, p in m.named_parameters()}
        d = DistributedOptimizer(
            m, lambda ps: SGD(ps, 0.2),
            RunConfig(num_ranks=4, op="average"),
        )
        gd = _grad_dicts(m, rng, 4)
        d.step_arena(GradientArena.from_grad_dicts(gd))
        for n, p in m.named_parameters():
            expected = w0[n] - 0.2 * np.mean([g[n] for g in gd], axis=0)
            np.testing.assert_allclose(p.data, expected, rtol=1e-5)

    def test_adasum_pre_optimizer_sgd(self, rng):
        """Adasum-as-allreduce for SGD: combined gradient, single step."""
        m = _model()
        w0 = {n: p.data.copy() for n, p in m.named_parameters()}
        d = DistributedOptimizer(
            m, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=4, op="adasum", adasum_pre_optimizer=True),
        )
        assert not d.post_optimizer_mode
        gd = _grad_dicts(m, rng, 4)
        combined = adasum_per_layer(gd)
        d.step_arena(GradientArena.from_grad_dicts(gd))
        for n, p in m.named_parameters():
            np.testing.assert_allclose(p.data, w0[n] - 0.1 * combined[n], rtol=1e-5)


class TestPostOptimizerMode:
    def test_figure3_semantics_with_sgd(self, rng):
        """Post-optimizer Adasum on plain SGD == Adasum of (-lr·g) deltas."""
        m = _model()
        w0 = {n: p.data.copy() for n, p in m.named_parameters()}
        d = DistributedOptimizer(
            m, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=2, op="adasum"),
        )
        assert d.post_optimizer_mode
        gd = _grad_dicts(m, rng, 2)
        deltas = [{n: -0.1 * g[n] for n in g} for g in gd]
        expected = adasum_per_layer(deltas)
        d.step_arena(GradientArena.from_grad_dicts(gd))
        for n, p in m.named_parameters():
            np.testing.assert_allclose(p.data, w0[n] + expected[n], rtol=1e-4, atol=1e-7)

    def test_per_rank_optimizer_state_independent(self, rng):
        """Each rank's Adam moments are driven by its own gradients."""
        m = _model()
        d = DistributedOptimizer(
            m, lambda ps: Adam(ps, 0.01),
            RunConfig(num_ranks=2, op="adasum"),
        )
        gd = _grad_dicts(m, rng, 2)
        d.step_arena(GradientArena.from_grad_dicts(gd))
        m0 = d.rank_optimizers[0].state[0]["m"]
        m1 = d.rank_optimizers[1].state[0]["m"]
        assert not np.allclose(m0, m1)

    def test_identical_grads_give_sequentialish_update(self, rng):
        """With identical per-rank gradients, Adasum averages the deltas,
        so the update equals a single-rank step."""
        m_multi, m_single = _model(3), _model(3)
        g = _grad_dicts(m_multi, rng, 1)[0]
        d_multi = DistributedOptimizer(
            m_multi, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=4, op="adasum"),
        )
        d_single = DistributedOptimizer(
            m_single, lambda ps: SGD(ps, 0.1),
            RunConfig(num_ranks=1, op="adasum"),
        )
        d_multi.step_arena(GradientArena.from_grad_dicts([dict(g) for _ in range(4)]))
        d_single.step_arena(GradientArena.from_grad_dicts([g]))
        for (n1, p1), (n2, p2) in zip(
            m_multi.named_parameters(), m_single.named_parameters()
        ):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-4, atol=1e-7)

    def test_model_stays_finite_in_training(self, rng):
        """A few real forward/backward Adasum-Adam steps stay finite."""
        m = _model()
        loss_fn = nn.CrossEntropyLoss()
        d = DistributedOptimizer(
            m, lambda ps: Adam(ps, 0.01),
            RunConfig(num_ranks=2, op="adasum"),
        )
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = rng.integers(0, 2, 8)
        for _ in range(5):
            gds = []
            for r in range(2):
                m.zero_grad()
                loss = loss_fn(m(Tensor(x)), y)
                loss.backward()
                gds.append({n: np.array(p.grad) for n, p in m.named_parameters()})
            d.step_arena(GradientArena.from_grad_dicts(gds))
        for p in m.parameters():
            assert np.isfinite(p.data).all()

    def test_lr_property(self):
        m = _model()
        d = DistributedOptimizer(m, lambda ps: SGD(ps, 0.33), RunConfig(num_ranks=2))
        assert d.lr == pytest.approx(0.33)
