"""Integration tests spanning the whole stack.

These exercise the same code paths the paper's experiments use, at
miniature scale: model + autograd + optimizer + reducer + trainer, the
message-passing AdasumRVH against the reducers the trainer uses, and
the distributed-optimizer equivalences that make the simulation
faithful.
"""

import numpy as np
import pytest

from repro import nn
from repro.comm import Cluster, cluster_allreduce
from repro.core import GradientArena, RunConfig
from repro.core.distributed_optimizer import make_reducer
from repro.data import make_mnist_like, train_test_split
from repro.models import LeNet5, MLP
from repro.optim import SGD, Adam, LAMB
from repro.train import ParallelTrainer, accuracy
from repro.train.trainer import compute_grads


def _rvh(rows, boundaries=None):
    """Rank 0's AdasumRVH result over one row per rank."""
    return Cluster(len(rows)).run(
        cluster_allreduce, rank_args=[(r, "adasum", "rvh", boundaries) for r in rows]
    )[0]


class TestTrainingConvergence:
    """Every (model, optimizer, reducer) combination must train."""

    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
    def test_mlp_all_reducers(self, op):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((256, 8)).astype(np.float32)
        y = (x[:, :2].sum(axis=1) > 0).astype(np.int64)
        model = MLP((8, 16, 2), rng=np.random.default_rng(1))
        lr = 0.05 if op == "sum" else 0.2
        config = RunConfig(op=op, adasum_pre_optimizer=True, num_ranks=4, microbatch=8)
        tr = ParallelTrainer(model, nn.CrossEntropyLoss(),
                             lambda ps: SGD(ps, lr, momentum=0.9), x, y, config)
        for e in range(4):
            tr.train_epoch(e)
        assert accuracy(model, x, y) > 0.85

    @pytest.mark.parametrize("opt_factory", [
        lambda ps: Adam(ps, 0.01),
        lambda ps: LAMB(ps, 0.02, weight_decay=0.0),
    ])
    def test_post_optimizer_adasum_with_stateful_optimizers(self, opt_factory):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((256, 8)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.int64)
        model = MLP((8, 16, 2), rng=np.random.default_rng(1))
        config = RunConfig(op="adasum", num_ranks=4, microbatch=8)
        tr = ParallelTrainer(model, nn.CrossEntropyLoss(), opt_factory, x, y, config)
        for e in range(6):
            tr.train_epoch(e)
        assert accuracy(model, x, y) > 0.8

    def test_lenet_smoke(self):
        x, y = make_mnist_like(256, noise=0.2, seed=0)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=1)
        model = LeNet5(rng=np.random.default_rng(0))
        config = RunConfig(op="adasum", adasum_pre_optimizer=True, num_ranks=2,
                           microbatch=8)
        tr = ParallelTrainer(model, nn.CrossEntropyLoss(),
                             lambda ps: SGD(ps, 0.1, momentum=0.9), x_tr, y_tr, config)
        first = tr.train_epoch(0)
        last = tr.train_epoch(1)
        assert last < first


class TestReducerVsMessagePassing:
    """The in-process reducer must equal the distributed Algorithm 1."""

    def test_adasum_reducer_matches_rvh_whole_model(self):
        rng = np.random.default_rng(0)
        model = MLP((6, 4, 2), rng=np.random.default_rng(1))
        names = [n for n, _ in model.named_parameters()]
        dicts = [
            {n: rng.standard_normal(p.shape).astype(np.float32)
             for n, p in model.named_parameters()}
            for _ in range(4)
        ]
        # Whole-model reducer result...
        combined = make_reducer("adasum", per_layer=False).reduce(dicts)
        flat_ref = np.concatenate([combined[n].reshape(-1) for n in names])
        # ...must equal the flat fused buffer run through AdasumRVH.
        flats = [np.concatenate([d[n].reshape(-1) for n in names]) for d in dicts]
        out = _rvh(flats)
        np.testing.assert_allclose(out, flat_ref, rtol=1e-4, atol=1e-6)

    def test_adasum_reducer_matches_rvh_per_layer(self):
        rng = np.random.default_rng(2)
        model = MLP((6, 4, 2), rng=np.random.default_rng(1))
        dicts = [
            {n: rng.standard_normal(p.shape).astype(np.float32)
             for n, p in model.named_parameters()}
            for _ in range(8)
        ]
        combined = make_reducer("adasum", per_layer=True).reduce(dicts)
        arena = GradientArena.from_grad_dicts(dicts)
        back = arena.unpack(_rvh(arena.data, arena.layout.boundaries()))
        for n in combined:
            np.testing.assert_allclose(back[n], combined[n], rtol=1e-4, atol=1e-6)

    def test_real_gradients_through_rvh(self):
        """Gradients from a real backward pass survive the full pipeline."""
        x, y = make_mnist_like(64, seed=0)
        model = LeNet5(rng=np.random.default_rng(0))
        loss_fn = nn.CrossEntropyLoss()
        dicts = []
        for r in range(4):
            _, g = compute_grads(model, loss_fn, x[r * 16 : (r + 1) * 16],
                                 y[r * 16 : (r + 1) * 16])
            dicts.append(g)
        arena = GradientArena.from_grad_dicts(dicts)
        out = _rvh(arena.data, arena.layout.boundaries())
        assert np.isfinite(out).all()
        ref = make_reducer("adasum").reduce(dicts)
        back = arena.unpack(out)
        for n in ref:
            np.testing.assert_allclose(back[n], ref[n], rtol=1e-3, atol=1e-5)


class TestSimulationEquivalences:
    def test_sum_reduction_equals_bigger_batch(self):
        """Average over 2 ranks of microbatch m == one batch of 2m
        (the identity that justifies simulating ranks on one model)."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 6)).astype(np.float32)
        y = rng.integers(0, 2, 16)
        model = MLP((6, 4, 2), rng=np.random.default_rng(1))
        loss_fn = nn.CrossEntropyLoss()
        _, g_full = compute_grads(model, loss_fn, x, y)
        _, g_a = compute_grads(model, loss_fn, x[:8], y[:8])
        _, g_b = compute_grads(model, loss_fn, x[8:], y[8:])
        for n in g_full:
            np.testing.assert_allclose(
                (g_a[n] + g_b[n]) / 2, g_full[n], rtol=1e-3, atol=1e-5
            )

    def test_single_rank_adasum_equals_sequential(self):
        """num_ranks=1 Adasum training is plain SGD training."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 6)).astype(np.float32)
        y = rng.integers(0, 2, 64)
        m1 = MLP((6, 8, 2), rng=np.random.default_rng(3))
        m2 = MLP((6, 8, 2), rng=np.random.default_rng(3))
        loss_fn = nn.CrossEntropyLoss()
        config = RunConfig(op="adasum", num_ranks=1, microbatch=8, seed=5)
        tr = ParallelTrainer(m1, loss_fn, lambda ps: SGD(ps, 0.1), x, y, config)
        tr.train_epoch(0)

        opt2 = SGD(m2.parameters(), 0.1)
        from repro.data import BatchIterator, ShardedSampler

        it = BatchIterator(ShardedSampler(64, 1, seed=5), 8)
        for _, (idx,) in it.epoch(0):
            _, grads = compute_grads(m2, loss_fn, x[idx], y[idx])
            for n, p in m2.named_parameters():
                p.grad = grads[n]
            opt2.step()
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-4, atol=1e-6)
