"""Collective-algorithm tests: every algorithm vs the trivial reference."""

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    CommError,
    allgather_doubling,
    allreduce_recursive_doubling,
    allreduce_ring,
    broadcast,
    cluster_allreduce,
    reduce_scatter_halving,
)
from repro.core.strategies import ReduceStrategy, get_strategy, registered_cells


def _rank_vectors(size, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(size)]


class TestRingAllreduce:
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
    def test_matches_sum(self, size):
        vecs = _rank_vectors(size, 23)
        expected = np.sum(vecs, axis=0)
        cluster = Cluster(size)
        results = cluster.run(lambda c, v: allreduce_ring(c, v), rank_args=[(v,) for v in vecs])
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-4, atol=1e-5)

    def test_single_rank(self):
        cluster = Cluster(1)
        v = np.arange(5, dtype=np.float32)
        results = cluster.run(lambda c: allreduce_ring(c, v))
        np.testing.assert_array_equal(results[0], v)

    def test_short_vector(self):
        # Vector shorter than rank count: some chunks are empty.
        size = 8
        vecs = _rank_vectors(size, 3)
        cluster = Cluster(size)
        results = cluster.run(lambda c, v: allreduce_ring(c, v), rank_args=[(v,) for v in vecs])
        np.testing.assert_allclose(results[0], np.sum(vecs, axis=0), rtol=1e-4)

    def test_input_not_mutated(self):
        vecs = _rank_vectors(2, 7)
        originals = [v.copy() for v in vecs]
        Cluster(2).run(lambda c, v: allreduce_ring(c, v), rank_args=[(v,) for v in vecs])
        for v, o in zip(vecs, originals):
            np.testing.assert_array_equal(v, o)


class TestRecursiveDoubling:
    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_matches_sum(self, size):
        vecs = _rank_vectors(size, 11)
        expected = np.sum(vecs, axis=0)
        cluster = Cluster(size)
        results = cluster.run(
            lambda c, v: allreduce_recursive_doubling(c, v), rank_args=[(v,) for v in vecs]
        )
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-4, atol=1e-5)

    def test_requires_power_of_two(self):
        cluster = Cluster(3, timeout=2.0)
        vecs = _rank_vectors(3, 4)
        with pytest.raises(Exception):
            cluster.run(
                lambda c, v: allreduce_recursive_doubling(c, v),
                rank_args=[(v,) for v in vecs],
            )


class TestGroupAllreduce:
    def test_disjoint_groups(self):
        size = 8
        vecs = _rank_vectors(size, 6)

        def fn(comm, v):
            group = [0, 1, 2, 3] if comm.rank < 4 else [4, 5, 6, 7]
            return allreduce_recursive_doubling(comm, v, group)

        results = Cluster(size).run(fn, rank_args=[(v,) for v in vecs])
        lo = np.sum(vecs[:4], axis=0)
        hi = np.sum(vecs[4:], axis=0)
        for r in range(4):
            np.testing.assert_allclose(results[r], lo, rtol=1e-4, atol=1e-5)
        for r in range(4, 8):
            np.testing.assert_allclose(results[r], hi, rtol=1e-4, atol=1e-5)

    def test_rank_must_be_member(self):
        cluster = Cluster(2, timeout=2.0)
        with pytest.raises(Exception):
            cluster.run(lambda c: allreduce_recursive_doubling(c, np.zeros(2), [0]))

    def test_singleton_group(self):
        results = Cluster(2).run(
            lambda c: allreduce_recursive_doubling(c, np.full(3, c.rank + 1.0), [c.rank])
        )
        np.testing.assert_allclose(results[0], 1.0)
        np.testing.assert_allclose(results[1], 2.0)


class TestHalvingDoubling:
    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("n", [16, 17, 37])
    def test_reduce_scatter_then_allgather(self, size, n):
        vecs = _rank_vectors(size, n, seed=size * 100 + n)
        expected = np.sum(vecs, axis=0)

        def fn(comm, v):
            data, rng_ = reduce_scatter_halving(comm, v)
            return allgather_doubling(comm, data, rng_, v.size)

        results = Cluster(size).run(fn, rank_args=[(v,) for v in vecs])
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-4, atol=1e-5)

    def test_slices_partition_the_vector(self):
        size, n = 4, 20
        vecs = _rank_vectors(size, n)

        def fn(comm, v):
            _, rng_ = reduce_scatter_halving(comm, v)
            return rng_

        ranges = Cluster(size).run(fn, rank_args=[(v,) for v in vecs])
        covered = sorted(ranges)
        assert covered[0][0] == 0
        assert covered[-1][1] == n
        for (a, b), (c, d) in zip(covered, covered[1:]):
            assert b == c  # contiguous, no overlap

    def test_reduced_slice_values(self):
        size, n = 4, 16
        vecs = _rank_vectors(size, n)
        expected = np.sum(vecs, axis=0)

        def fn(comm, v):
            data, rng_ = reduce_scatter_halving(comm, v)
            return data, rng_

        results = Cluster(size).run(fn, rank_args=[(v,) for v in vecs])
        for data, (lo, hi) in results:
            np.testing.assert_allclose(data, expected[lo:hi], rtol=1e-4, atol=1e-5)


class TestBroadcast:
    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_all_receive_root_data(self, size, root):
        payload = np.arange(9, dtype=np.float32)

        def fn(comm):
            mine = payload if comm.rank == root else np.zeros_like(payload)
            return broadcast(comm, mine, root=root)

        results = Cluster(size).run(fn)
        for r in results:
            np.testing.assert_array_equal(r, payload)

    def test_non_power_of_two(self):
        payload = np.array([7.0])

        def fn(comm):
            mine = payload if comm.rank == 0 else np.zeros(1)
            return broadcast(comm, mine, root=0)

        results = Cluster(5).run(fn)
        for r in results:
            np.testing.assert_array_equal(r, payload)


#: Cells whose only distributed form is the pair schedule the elastic
#: collective replays; every other registered cell has a cluster form.
PAIRWISE_ONLY = {("adasum", "tree"), ("adasum", "tree_any"), ("adasum", "linear")}


class TestClusterAllreduce:
    """``cluster_allreduce`` is the registered cell's ``combine_comm``,
    at every world size the cell accepts."""

    @pytest.mark.parametrize(
        "op,topology",
        [cell for cell in registered_cells() if cell not in PAIRWISE_ONLY],
    )
    def test_every_cluster_form_matches_the_flat_kernel(self, op, topology):
        strategy = get_strategy(op, topology)
        assert type(strategy).combine_comm is not ReduceStrategy.combine_comm
        bounds = [0, 16, 20, 21]
        for n in range(1, 10):
            try:
                strategy.validate_world(n)
            except ValueError:
                continue
            rows = np.stack(_rank_vectors(n, bounds[-1], seed=n))
            expected = strategy.combine_flat(rows.copy(), bounds)
            results = Cluster(n, timeout=10.0).run(
                lambda c, row: cluster_allreduce(c, row, op, topology, bounds),
                rank_args=[(row,) for row in rows],
            )
            for got in results:
                np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5,
                                           err_msg=f"{n} ranks")

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bounds", [None, [0, 16, 20, 21]])
    def test_ring_chain_is_the_linear_kernel_byte_for_byte(self, dtype, bounds):
        """Every hop of the ring chain combines with the registry's
        pairwise kernel, so every rank ends with exactly the bytes of the
        ``(adasum, linear)`` left fold."""
        linear = get_strategy("adasum", "linear")
        for n in range(1, 9):
            rows = np.stack(_rank_vectors(n, 21, seed=n)).astype(dtype)
            expected = linear.combine_flat(rows.copy(), bounds)
            results = Cluster(n, timeout=10.0).run(
                lambda c, row: cluster_allreduce(c, row, "adasum", "ring", bounds),
                rank_args=[(row,) for row in rows],
            )
            for rank, got in enumerate(results):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), f"{n} ranks, rank {rank}"

    def test_average_tree_any_on_three_ranks(self):
        rows = _rank_vectors(3, 7)
        results = Cluster(3).run(
            lambda c, row: cluster_allreduce(c, row, "average", "tree_any"),
            rank_args=[(row,) for row in rows],
        )
        for got in results:
            np.testing.assert_allclose(got, np.mean(rows, axis=0), rtol=1e-5)

    def test_a_cell_without_a_cluster_form_says_so(self):
        with pytest.raises(CommError, match="cluster-collective form"):
            Cluster(2).run(
                lambda c: cluster_allreduce(c, np.ones(3, np.float32), "adasum", "tree")
            )
