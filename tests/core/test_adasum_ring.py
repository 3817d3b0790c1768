"""Ring (linear) Adasum allreduce — the §4.2.3 alternative implementation."""

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    NetworkModel,
    adasum_ring_cost,
    adasum_rvh_cost,
    cluster_allreduce,
)
from repro.core import GradientArena, adasum_linear, adasum_per_layer


def _grads(size, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(size)]


def _ring(grads, boundaries=None, network=None):
    """Rank 0's ring Adasum result and the run's simulated latency."""
    cluster = Cluster(len(grads), network=network)
    results = cluster.run(
        cluster_allreduce, rank_args=[(g, "adasum", "ring", boundaries) for g in grads]
    )
    return results[0], cluster.max_clock()


class TestCorrectness:
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
    def test_matches_linear_reference(self, size):
        grads = _grads(size, 33, seed=size)
        expected = adasum_linear(grads)
        out, _ = _ring(grads)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-6)

    def test_single_rank(self):
        g = _grads(1, 9)[0]
        out, lat = _ring([g])
        np.testing.assert_array_equal(out, g)
        assert lat == 0.0

    def test_non_power_of_two_supported(self):
        """Unlike RVH, the ring variant handles any rank count."""
        grads = _grads(6, 20)
        out, _ = _ring(grads)
        np.testing.assert_allclose(out, adasum_linear(grads), rtol=1e-4, atol=1e-6)

    def test_per_layer_layout(self):
        size = 4
        rng = np.random.default_rng(3)
        dicts = [
            {"a": rng.standard_normal(10).astype(np.float32),
             "b": rng.standard_normal(6).astype(np.float32)}
            for _ in range(size)
        ]
        expected = adasum_per_layer(dicts, tree=False)
        arena = GradientArena.from_grad_dicts(dicts)
        out, _ = _ring(list(arena.data), arena.layout.boundaries())
        back = arena.unpack(out)
        for name in expected:
            np.testing.assert_allclose(back[name], expected[name], rtol=1e-4, atol=1e-6)


class TestCost:
    def test_slower_than_rvh_on_ib(self):
        """§4.2.3: the ring variant loses to RVH on the paper's fabric."""
        net = NetworkModel.infiniband()
        for exp in (14, 20, 24):
            n = 1 << exp
            assert adasum_ring_cost(n, 64, net) > adasum_rvh_cost(n, 64, net)

    def test_simulated_latency_reflects_serial_chain(self):
        net = NetworkModel(alpha=1e-3, beta=1e-6)
        grads = _grads(8, 4096)
        _, latency = _ring(grads, network=net)
        # At least the p-1 serial hops of a full vector each.
        assert latency >= 7 * net.send_cost(4096 * 4) * 0.9

    def test_cost_zero_single_rank(self):
        assert adasum_ring_cost(1024, 1, NetworkModel.infiniband()) == 0.0
