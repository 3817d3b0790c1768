"""Hypothesis property tests for the collective algorithms.

Random vector sizes, rank counts and payload distributions — every
collective must match the trivial reference reduction.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm import (
    Cluster,
    allgather_doubling,
    allreduce_recursive_doubling,
    allreduce_ring,
    broadcast,
    cluster_allreduce,
    reduce_scatter_halving,
)
from repro.core import adasum_tree

ranks_pow2 = st.sampled_from([2, 4, 8])
ranks_any = st.integers(min_value=1, max_value=7)
sizes = st.integers(min_value=1, max_value=64)
seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _vectors(p, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(n) * scale).astype(np.float32) for _ in range(p)]


class TestRingProperties:
    @settings(max_examples=25, deadline=None)
    @given(ranks_any, sizes, seeds)
    def test_ring_matches_sum(self, p, n, seed):
        vecs = _vectors(p, n, seed)
        results = Cluster(p).run(
            lambda c, v: allreduce_ring(c, v), rank_args=[(v,) for v in vecs]
        )
        expected = np.sum(vecs, axis=0, dtype=np.float64).astype(np.float32)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-3, atol=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(ranks_any, sizes, seeds, st.floats(min_value=1e-3, max_value=1e3))
    def test_ring_scale_invariance(self, p, n, seed, scale):
        vecs = _vectors(p, n, seed, scale=scale)
        results = Cluster(p).run(
            lambda c, v: allreduce_ring(c, v), rank_args=[(v,) for v in vecs]
        )
        expected = np.sum(vecs, axis=0, dtype=np.float64)
        np.testing.assert_allclose(results[0], expected, rtol=1e-3, atol=1e-4 * scale)


class TestHalvingDoublingProperties:
    @settings(max_examples=25, deadline=None)
    @given(ranks_pow2, sizes, seeds)
    def test_halving_then_doubling_is_allreduce(self, p, n, seed):
        vecs = _vectors(p, n, seed)

        def fn(comm, v):
            data, rng_ = reduce_scatter_halving(comm, v)
            return allgather_doubling(comm, data, rng_, v.size)

        results = Cluster(p).run(fn, rank_args=[(v,) for v in vecs])
        expected = np.sum(vecs, axis=0, dtype=np.float64).astype(np.float32)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-3, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(ranks_pow2, sizes, seeds)
    def test_recursive_doubling_matches(self, p, n, seed):
        vecs = _vectors(p, n, seed)
        results = Cluster(p).run(
            lambda c, v: allreduce_recursive_doubling(c, v),
            rank_args=[(v,) for v in vecs],
        )
        expected = np.sum(vecs, axis=0, dtype=np.float64).astype(np.float32)
        np.testing.assert_allclose(results[0], expected, rtol=1e-3, atol=1e-4)


class TestBroadcastProperties:
    @settings(max_examples=25, deadline=None)
    @given(ranks_any, sizes, seeds)
    def test_broadcast_delivers_everywhere(self, p, n, seed):
        rng = np.random.default_rng(seed)
        payload = rng.standard_normal(n).astype(np.float32)
        root = int(rng.integers(0, p))

        def fn(comm):
            mine = payload if comm.rank == root else np.zeros_like(payload)
            return broadcast(comm, mine, root=root)

        for r in Cluster(p).run(fn):
            np.testing.assert_array_equal(r, payload)


def _rvh(vecs):
    """Rank 0's AdasumRVH result over one vector per rank."""
    return Cluster(len(vecs)).run(
        cluster_allreduce, rank_args=[(v, "adasum", "rvh") for v in vecs]
    )[0]


class TestAdasumRVHProperties:
    @settings(max_examples=15, deadline=None)
    @given(ranks_pow2, sizes, seeds)
    def test_rvh_matches_tree(self, p, n, seed):
        vecs = _vectors(p, n, seed)
        expected = adasum_tree(vecs)
        out = _rvh(vecs)
        np.testing.assert_allclose(out, expected, rtol=1e-3, atol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(ranks_pow2, seeds)
    def test_rvh_identical_inputs_average(self, p, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(24).astype(np.float32)
        out = _rvh([g.copy() for _ in range(p)])
        np.testing.assert_allclose(out, g, rtol=1e-4, atol=1e-6)
