"""Trainer and metrics tests."""

import numpy as np
import pytest

from repro import nn
from repro.core import OrthogonalityProbe, RunConfig
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer, accuracy, compute_grads, compute_grads_into


def _task(n=128, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _trainer(num_ranks=2, microbatch=8, accumulation=1, op="average",
             probe=None, lr=0.3, seed=0):
    x, y = _task(seed=seed)
    model = MLP((6, 16, 2), rng=np.random.default_rng(seed))
    config = RunConfig(op=op, num_ranks=num_ranks, microbatch=microbatch, seed=seed)
    return ParallelTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr), x, y, config,
        accumulation=accumulation, probe=probe,
    ), x, y


class TestComputeGrads:
    def test_returns_copies(self):
        model = MLP((4, 2), rng=np.random.default_rng(0))
        x = np.ones((2, 4), dtype=np.float32)
        _, grads = compute_grads(model, nn.CrossEntropyLoss(), x, np.array([0, 1]))
        name = next(iter(grads))
        p = dict(model.named_parameters())[name]
        grads[name] += 100.0
        assert not np.allclose(grads[name], p.grad)

    def test_loss_is_float(self):
        model = MLP((4, 2), rng=np.random.default_rng(0))
        loss, _ = compute_grads(
            model, nn.CrossEntropyLoss(), np.ones((2, 4), dtype=np.float32), np.array([0, 1])
        )
        assert isinstance(loss, float)


class TestComputeGradsInto:
    def test_accumulate_with_readiness_is_rejected(self):
        """The readiness hook copies each gradient as it lands, so with
        ``accumulate=True`` a second microbatch used to *overwrite* the
        row it was meant to add into — silently."""
        x, y = _task(n=16)
        model = MLP((6, 16, 2), rng=np.random.default_rng(0))
        row = {n: np.zeros_like(p.data) for n, p in model.named_parameters()}
        compute_grads_into(model, nn.CrossEntropyLoss(), x[:8], y[:8], row)
        with pytest.raises(ValueError, match="accumulate"):
            compute_grads_into(model, nn.CrossEntropyLoss(), x[8:], y[8:], row,
                               accumulate=True, on_ready=lambda name: None)

    @pytest.mark.parametrize("views,samples", [(1, 8), (3, 8)])
    def test_rank_views_need_two_ranks_of_equal_blocks(self, views, samples):
        x, y = _task(n=samples)
        model = MLP((6, 16, 2), rng=np.random.default_rng(0))
        rows = [{n: np.zeros_like(p.data) for n, p in model.named_parameters()}
                for _ in range(views)]
        with pytest.raises(ValueError, match="rank views"):
            compute_grads_into(model, nn.CrossEntropyLoss(), x, y, rows)


class TestParallelTrainer:
    def test_effective_batch(self):
        tr, _, _ = _trainer(num_ranks=4, microbatch=8, accumulation=2)
        assert tr.effective_batch == 64

    def test_invalid_accumulation(self):
        with pytest.raises(ValueError):
            _trainer(accumulation=0)

    def test_loss_decreases(self):
        tr, x, y = _trainer(num_ranks=2, lr=0.5)
        first = tr.train_epoch(0)
        for e in range(1, 5):
            last = tr.train_epoch(e)
        assert last < first

    def test_accuracy_improves_above_chance(self):
        tr, x, y = _trainer(num_ranks=2, lr=0.5)
        for e in range(6):
            tr.train_epoch(e)
        assert accuracy(tr.model, x, y) > 0.8

    def test_max_steps_caps_epoch(self):
        tr, _, _ = _trainer()
        tr.train_epoch(0, max_steps=2)
        assert tr.global_step == 2

    def test_probe_records(self):
        probe = OrthogonalityProbe(every=1)
        tr, _, _ = _trainer(probe=probe)
        tr.train_epoch(0, max_steps=3)
        assert len(probe.steps) == 3
        assert probe.history  # layer entries present

    def test_accumulation_matches_single_big_batch_for_average(self):
        """Sum-of-microbatch gradients / k == one big-batch gradient, so
        accumulated training equals big-microbatch training step by step."""
        tr_a, _, _ = _trainer(num_ranks=2, microbatch=4, accumulation=2, seed=7)
        tr_b, _, _ = _trainer(num_ranks=2, microbatch=8, accumulation=1, seed=7)
        tr_a.train_epoch(0, max_steps=2)
        tr_b.train_epoch(0, max_steps=2)
        for (n1, p1), (n2, p2) in zip(
            tr_a.model.named_parameters(), tr_b.model.named_parameters()
        ):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-4, atol=1e-6)

    def test_adasum_trainer_runs(self):
        tr, x, y = _trainer(op="adasum", lr=0.3)
        loss = tr.train_epoch(0, max_steps=4)
        assert np.isfinite(loss)
