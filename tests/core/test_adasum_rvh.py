"""Algorithm 1 (AdasumRVH) against the sequential tree reference."""

import numpy as np
import pytest

from repro.comm import Cluster, NetworkModel, cluster_allreduce
from repro.core import GradientArena, adasum_per_layer, adasum_tree


def _grads(size, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(size)]


def _rvh_all(grads, boundaries=None, network=None):
    """Every rank's AdasumRVH result and the run's simulated latency."""
    cluster = Cluster(len(grads), network=network)
    results = cluster.run(
        cluster_allreduce, rank_args=[(g, "adasum", "rvh", boundaries) for g in grads]
    )
    return results, cluster.max_clock()


def _rvh(grads, boundaries=None, network=None):
    """Rank 0's AdasumRVH result and the run's simulated latency."""
    results, latency = _rvh_all(grads, boundaries, network)
    return results[0], latency


class TestCorrectness:
    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_matches_tree_reference(self, size):
        grads = _grads(size, 40, seed=size)
        expected = adasum_tree(grads)
        out, _ = _rvh(grads)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("n", [17, 31, 64])
    def test_odd_vector_lengths(self, n):
        grads = _grads(8, n, seed=n)
        expected = adasum_tree(grads)
        out, _ = _rvh(grads)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-6)

    def test_all_ranks_agree(self):
        results, _ = _rvh_all(_grads(8, 24))
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], rtol=1e-5)

    def test_single_rank_identity(self):
        g = _grads(1, 10)[0]
        (out,), _ = _rvh_all([g])
        np.testing.assert_array_equal(out, g)

    def test_power_of_two_required(self):
        with pytest.raises(Exception):
            _rvh_all(_grads(3, 8))

    def test_orthogonal_inputs_sum(self):
        eye = np.eye(4, dtype=np.float32)
        out, _ = _rvh([eye[i] for i in range(4)])
        np.testing.assert_allclose(out, np.ones(4), rtol=1e-5)

    def test_identical_inputs_average(self):
        g = np.array([1.0, -2.0, 3.0, 0.5], dtype=np.float32)
        out, _ = _rvh([g.copy() for _ in range(8)])
        np.testing.assert_allclose(out, g, rtol=1e-5)


class TestPerLayerFusion:
    def test_matches_per_layer_reference(self):
        size = 4
        rng = np.random.default_rng(7)
        dicts = [
            {
                "conv": rng.standard_normal(30).astype(np.float32),
                "fc": rng.standard_normal(18).astype(np.float32),
            }
            for _ in range(size)
        ]
        expected = adasum_per_layer(dicts)

        arena = GradientArena.from_grad_dicts(dicts)
        out, _ = _rvh(list(arena.data), arena.layout.boundaries())
        back = arena.unpack(out)
        for name in expected:
            np.testing.assert_allclose(back[name], expected[name], rtol=1e-4, atol=1e-6)

    def test_layer_boundary_in_odd_place(self):
        """Boundaries that never align with halving splits still work."""
        size = 8
        rng = np.random.default_rng(3)
        dicts = [
            {
                "a": rng.standard_normal(7).astype(np.float32),
                "b": rng.standard_normal(13).astype(np.float32),
                "c": rng.standard_normal(3).astype(np.float32),
            }
            for _ in range(size)
        ]
        expected = adasum_per_layer(dicts)
        arena = GradientArena.from_grad_dicts(dicts)
        out, _ = _rvh(list(arena.data), arena.layout.boundaries())
        back = arena.unpack(out)
        for name in expected:
            np.testing.assert_allclose(back[name], expected[name], rtol=1e-4, atol=1e-6)

    def test_per_layer_differs_from_whole_model(self):
        rng = np.random.default_rng(5)
        dicts = [
            {"a": rng.standard_normal(8).astype(np.float32),
             "b": rng.standard_normal(8).astype(np.float32)}
            for _ in range(4)
        ]
        arena = GradientArena.from_grad_dicts(dicts)
        whole, _ = _rvh(list(arena.data))
        per_layer, _ = _rvh(list(arena.data), arena.layout.boundaries())
        assert not np.allclose(whole, per_layer, rtol=1e-6)


class TestLatencyAccounting:
    def test_latency_positive_with_network(self):
        grads = _grads(8, 1024)
        _, lat = _rvh(grads, network=NetworkModel.infiniband())
        assert lat > 0

    def test_latency_grows_with_message_size(self):
        net = NetworkModel.infiniband()
        _, small = _rvh(_grads(4, 256), network=net)
        _, large = _rvh(_grads(4, 65536), network=net)
        assert large > small
