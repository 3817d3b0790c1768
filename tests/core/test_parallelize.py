"""Optimizer-state partitioning tests (paper §4.3 / Table 1 machinery)."""

import numpy as np
import pytest

from repro.core import GradientArena, PartitionedAdasumEngine, make_reducer, partition_layers
from repro.core.distributed_optimizer import DistributedOptimizer
from repro.models import MLP
from repro.optim import Adam


class TestPartitionLayers:
    def test_layers_kept_whole(self):
        sizes = {"a": 100, "b": 50, "c": 30}
        parts = partition_layers(sizes, 2)
        flat = [n for p in parts for n in p]
        assert sorted(flat) == ["a", "b", "c"]

    def test_balanced(self):
        sizes = {f"l{i}": 10 for i in range(8)}
        parts = partition_layers(sizes, 4)
        assert all(len(p) == 2 for p in parts)

    def test_largest_first_balancing(self):
        sizes = {"big": 100, "s1": 30, "s2": 30, "s3": 40}
        parts = partition_layers(sizes, 2)
        loads = [sum(sizes[n] for n in p) for p in parts]
        assert max(loads) == 100  # big alone; the rest packed together

    def test_more_partitions_than_layers(self):
        parts = partition_layers({"a": 5}, 4)
        assert sum(len(p) for p in parts) == 1

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            partition_layers({"a": 1}, 0)


class TestEngine:
    def _engine(self, num_gpus=2, seed=0):
        model = MLP((4, 8, 2), rng=np.random.default_rng(seed))
        opt = Adam(model.parameters(), lr=0.05)
        return model, opt, PartitionedAdasumEngine(
            model, opt, num_gpus=num_gpus, reducer=make_reducer("adasum")
        )

    def _grads(self, model, rng):
        return {
            n: rng.standard_normal(p.shape).astype(np.float32) * 0.1
            for n, p in model.named_parameters()
        }

    def test_partitions_cover_all_layers(self):
        model, _, eng = self._engine(num_gpus=3)
        names = {n for n, _ in model.named_parameters()}
        covered = {n for part in eng.partitions for n in part}
        assert covered == names

    def test_single_node_update_matches_plain_optimizer(self, rng):
        """With no remote nodes, the partitioned update equals one plain
        optimizer step — the partitioning must not change semantics."""
        model_a, _, eng = self._engine(num_gpus=2, seed=1)
        model_b = MLP((4, 8, 2), rng=np.random.default_rng(1))
        opt_b = Adam(model_b.parameters(), lr=0.05)

        grads = self._grads(model_a, rng)
        eng.update(grads)
        for n, p in model_b.named_parameters():
            p.grad = grads[n]
        opt_b.step()
        for (n1, p1), (n2, p2) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-5, atol=1e-7)

    def test_update_with_remote_deltas_matches_unpartitioned(self, rng):
        """Partitioned Figure-3 update == unpartitioned DistributedOptimizer."""
        model_a = MLP((4, 8, 2), rng=np.random.default_rng(2))
        opt_a = Adam(model_a.parameters(), lr=0.05)
        eng = PartitionedAdasumEngine(model_a, opt_a, num_gpus=2, reducer=make_reducer("adasum"))

        model_b = MLP((4, 8, 2), rng=np.random.default_rng(2))
        dist = DistributedOptimizer(
            model_b, lambda ps: Adam(ps, lr=0.05), num_ranks=2, op="adasum"
        )

        local = self._grads(model_a, rng)
        remote = self._grads(model_a, rng)
        # The unpartitioned reference computes both ranks' deltas itself.
        dist.step_arena(GradientArena.from_grad_dicts([local, remote]))
        # For the engine, derive the remote delta with an identical fresh Adam.
        model_c = MLP((4, 8, 2), rng=np.random.default_rng(2))
        opt_c = Adam(model_c.parameters(), lr=0.05)
        starts = {n: p.data.copy() for n, p in model_c.named_parameters()}
        for n, p in model_c.named_parameters():
            p.grad = remote[n]
        opt_c.step()
        remote_delta = {n: p.data - starts[n] for n, p in model_c.named_parameters()}

        eng.update(local, remote_deltas=[remote_delta])
        for (n1, p1), (n2, p2) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-4, atol=1e-6)

    def test_partitioned_state_bytes_less_than_replicated(self, rng):
        model, opt, eng = self._engine(num_gpus=4)
        eng.update(self._grads(model, rng))
        assert eng.partitioned_state_bytes() < eng.replicated_state_bytes()

    def test_memory_savings_scale_with_gpus(self, rng):
        """More local GPUs → smaller per-GPU optimizer-state share."""
        model2, _, eng2 = self._engine(num_gpus=2, seed=5)
        model4, _, eng4 = self._engine(num_gpus=4, seed=5)
        g = self._grads(model2, rng)
        eng2.update(g)
        eng4.update(g)
        assert eng4.partitioned_state_bytes() <= eng2.partitioned_state_bytes()
