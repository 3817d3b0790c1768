"""Local-steps (gradient accumulation) cluster tests — Table 2 machinery."""

import numpy as np
import pytest

from repro import nn
from repro.core import LocalSGDCluster, make_reducer
from repro.core.local_sgd import LocalStepWorker
from repro.models import MLP
from repro.optim import SGD
from repro.train.trainer import compute_grads


def _setup(num_ranks=2, local_steps=2, reducer=None, lr=0.1, seed=0):
    model = MLP((4, 8, 2), rng=np.random.default_rng(seed))
    reducer = reducer or make_reducer("adasum")
    cluster = LocalSGDCluster(
        model,
        lambda ps: SGD(ps, lr),
        num_ranks=num_ranks,
        local_steps=local_steps,
        reducer=reducer,
    )
    loss_fn = nn.CrossEntropyLoss()

    def grad_fn(m, batch):
        x, y = batch
        return compute_grads(m, loss_fn, x, y)

    return model, cluster, grad_fn


def _batches(rng, n_ranks, n=8):
    return [
        (rng.standard_normal((n, 4)).astype(np.float32), rng.integers(0, 2, n))
        for _ in range(n_ranks)
    ]


class TestWorker:
    def test_weights_are_private_copies(self, rng):
        model = MLP((3, 2), rng=np.random.default_rng(0))
        weights = {n: p.data for n, p in model.named_parameters()}
        w = LocalStepWorker(0, weights, SGD(model.parameters(), 0.1))
        w.weights["net.0.weight"] += 1.0
        assert not np.allclose(w.weights["net.0.weight"], model.net[0].weight.data)

    def test_delta_zero_initially(self):
        model = MLP((3, 2), rng=np.random.default_rng(0))
        weights = {n: p.data for n, p in model.named_parameters()}
        w = LocalStepWorker(0, weights, SGD(model.parameters(), 0.1))
        for d in w.delta().values():
            np.testing.assert_array_equal(d, 0.0)

    def test_apply_combined_starts_new_round(self):
        model = MLP((3, 2), rng=np.random.default_rng(0))
        weights = {n: p.data for n, p in model.named_parameters()}
        w = LocalStepWorker(0, weights, SGD(model.parameters(), 0.1))
        combined = {n: np.ones_like(v) for n, v in w.weights.items()}
        w.apply_combined(combined)
        for d in w.delta().values():
            np.testing.assert_array_equal(d, 0.0)
        np.testing.assert_allclose(
            w.weights["net.0.weight"], weights["net.0.weight"] + 1.0
        )


class TestCluster:
    def test_invalid_local_steps(self):
        with pytest.raises(ValueError):
            _setup(local_steps=0)

    def test_communicates_every_k_steps(self, rng):
        _, cluster, grad_fn = _setup(num_ranks=2, local_steps=3)
        comms = []
        for _ in range(6):
            info = cluster.step(_batches(rng, 2), grad_fn)
            comms.append(info["communicated"])
        assert comms == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        assert cluster.communications == 2

    def test_wrong_batch_count(self, rng):
        _, cluster, grad_fn = _setup(num_ranks=2)
        with pytest.raises(ValueError):
            cluster.step(_batches(rng, 3), grad_fn)

    def test_ranks_synchronized_after_communication(self, rng):
        _, cluster, grad_fn = _setup(num_ranks=2, local_steps=2)
        for _ in range(2):
            cluster.step(_batches(rng, 2), grad_fn)
        w0, w1 = cluster.workers
        for n in w0.weights:
            np.testing.assert_allclose(w0.weights[n], w1.weights[n], rtol=1e-5)

    def test_ranks_diverge_between_communications(self, rng):
        _, cluster, grad_fn = _setup(num_ranks=2, local_steps=5)
        cluster.step(_batches(rng, 2), grad_fn)
        w0, w1 = cluster.workers
        diffs = [
            np.abs(w0.weights[n] - w1.weights[n]).max() for n in w0.weights
        ]
        assert max(diffs) > 0

    def test_local_steps_one_matches_delta_reduce(self, rng):
        """With k=1, the round delta is exactly one -lr*grad step."""
        model, cluster, grad_fn = _setup(num_ranks=2, local_steps=1, lr=0.1)
        w0 = {n: w.copy() for n, w in cluster.workers[0].weights.items()}
        batches = _batches(rng, 2)
        # Compute the expected per-rank deltas manually.
        expected_deltas = []
        loss_fn = nn.CrossEntropyLoss()
        for b in batches:
            cluster.workers[0].load_into(cluster.params)
            for n, p in cluster.params.items():
                np.copyto(p.data, w0[n])
            _, grads = compute_grads(model, loss_fn, b[0], b[1])
            expected_deltas.append({n: -0.1 * g for n, g in grads.items()})
        combined = make_reducer("adasum").reduce(expected_deltas)
        cluster.step(batches, grad_fn)
        for n in w0:
            np.testing.assert_allclose(
                cluster.workers[0].weights[n], w0[n] + combined[n], rtol=1e-4, atol=1e-6
            )

    def test_sum_reducer_normalized_to_average(self, rng):
        """Sum of deltas is divided by N (gradient-accumulation baseline)."""
        model, cluster, grad_fn = _setup(num_ranks=2, local_steps=1, reducer=make_reducer("sum"))
        w0 = {n: w.copy() for n, w in cluster.workers[0].weights.items()}
        batches = [(np.ones((4, 4), dtype=np.float32), np.zeros(4, dtype=np.int64))] * 2
        cluster.step(batches, grad_fn)
        # Identical batches → delta equals a single rank's delta (avg of equals).
        loss_fn = nn.CrossEntropyLoss()
        for n, p in cluster.params.items():
            np.copyto(p.data, w0[n])
        _, grads = compute_grads(model, loss_fn, batches[0][0], batches[0][1])
        for n in w0:
            np.testing.assert_allclose(
                cluster.workers[0].weights[n], w0[n] - 0.1 * grads[n], rtol=1e-4, atol=1e-6
            )

    def test_loss_decreases_over_training(self, rng):
        _, cluster, grad_fn = _setup(num_ranks=2, local_steps=2, lr=0.2, seed=1)
        x = rng.standard_normal((64, 4)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.int64)
        losses = []
        for i in range(30):
            lo = (i * 8) % 48
            batches = [(x[lo : lo + 8], y[lo : lo + 8]), (x[lo + 8 : lo + 16], y[lo + 8 : lo + 16])]
            losses.append(cluster.step(batches, grad_fn)["loss"])
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_sync_model(self, rng):
        _, cluster, grad_fn = _setup(num_ranks=2, local_steps=4)
        cluster.step(_batches(rng, 2), grad_fn)
        cluster.sync_model()
        for n, p in cluster.params.items():
            np.testing.assert_array_equal(p.data, cluster.workers[0].weights[n])
