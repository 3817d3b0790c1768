"""Executed hierarchical allreduce tests (§4.2.2)."""

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    GroupComm,
    NetworkModel,
    cross_node_peers,
    hierarchical_adasum_allreduce,
    hierarchical_allreduce,
    hierarchical_sum_allreduce,
)
from repro.comm.collectives import allreduce_recursive_doubling
from repro.core import adasum_tree


def _vectors(size, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(size)]


class TestGroupComm:
    def test_rank_mapping(self):
        cluster = Cluster(4)

        def fn(comm):
            if comm.rank in (1, 3):
                sub = GroupComm(comm, [1, 3])
                mine = np.array([float(comm.rank)])
                other = sub.sendrecv(mine, 1 - sub.rank)
                return float(other[0])
            return None

        results = cluster.run(fn)
        assert results[1] == 3.0
        assert results[3] == 1.0

    def test_non_member_rejected(self):
        cluster = Cluster(2)

        def fn(comm):
            if comm.rank == 0:
                GroupComm(comm, [1])

        with pytest.raises(Exception):
            cluster.run(fn)

    def test_cross_node_peers(self):
        assert cross_node_peers(0, 8, 4) == [0, 4]
        assert cross_node_peers(5, 8, 4) == [1, 5]
        assert cross_node_peers(3, 8, 2) == [1, 3, 5, 7]


class TestHierarchicalSum:
    @pytest.mark.parametrize("size,gpn", [(4, 2), (8, 2), (8, 4), (4, 4)])
    @pytest.mark.parametrize("n", [16, 37])
    def test_sum_matches_flat(self, size, gpn, n):
        """With a sum cross-node op, hierarchical == flat allreduce."""
        vecs = _vectors(size, n, seed=size * 10 + n)
        expected = np.sum([v.astype(np.float64) for v in vecs], axis=0)

        def fn(comm, v):
            return hierarchical_allreduce(
                comm, v, gpn,
                cross_node=lambda sub, piece, _: allreduce_recursive_doubling(sub, piece),
            )

        results = Cluster(size).run(fn, rank_args=[(v,) for v in vecs])
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-4, atol=1e-5)

    def test_world_size_must_divide(self):
        cluster = Cluster(3, timeout=2.0)
        with pytest.raises(Exception):
            cluster.run(lambda c: hierarchical_allreduce(
                c, np.zeros(4, dtype=np.float32), 2,
                cross_node=lambda sub, piece, _: piece,
            ))

    def test_single_gpu_per_node_passthrough(self):
        vecs = _vectors(4, 12)
        expected = np.sum([v.astype(np.float64) for v in vecs], axis=0).astype(np.float32)

        def fn(comm, v):
            return hierarchical_allreduce(
                comm, v, 1,
                cross_node=lambda sub, piece, _: allreduce_recursive_doubling(sub, piece),
            )

        results = Cluster(4).run(fn, rank_args=[(v,) for v in vecs])
        np.testing.assert_allclose(results[0], expected, rtol=1e-4)


class TestHierarchicalAdasum:
    @pytest.mark.parametrize("size,gpn", [(4, 2), (8, 2), (8, 4)])
    def test_matches_per_slice_adasum_of_node_sums(self, size, gpn):
        """§4.2.2/§4.3 semantics: sum inside a node, Adasum across nodes,
        applied per local-GPU slice (as the Horovod implementation does —
        each GPU's cross-node reduction is independent)."""
        n = 24
        vecs = _vectors(size, n, seed=size)
        nodes = size // gpn
        node_sums = [
            np.sum([vecs[nd * gpn + i].astype(np.float64) for i in range(gpn)], axis=0)
            for nd in range(nodes)
        ]
        # Expected: per-slice Adasum over the node sums, slices being the
        # reduce-scatter chunks.
        chunks = np.array_split(np.arange(n), gpn)
        expected = np.empty(n, dtype=np.float32)
        for chunk in chunks:
            lo, hi = int(chunk[0]), int(chunk[-1]) + 1
            expected[lo:hi] = adasum_tree(
                [s[lo:hi].astype(np.float32) for s in node_sums]
            )

        results = Cluster(size).run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, gpn),
            rank_args=[(v,) for v in vecs],
        )
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-3, atol=1e-5)

    def test_all_ranks_agree(self):
        vecs = _vectors(8, 30, seed=9)
        results = Cluster(8).run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 4),
            rank_args=[(v,) for v in vecs],
        )
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], rtol=1e-5)

    def test_latency_accounted(self):
        vecs = _vectors(4, 1024, seed=1)
        cluster = Cluster(4, network=NetworkModel.infiniband())
        cluster.run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 2),
            rank_args=[(v,) for v in vecs],
        )
        assert cluster.max_clock() > 0


class TestWireAccounting:
    """Satellite: payloads are data-only, in the input dtype.

    The allgather used to concatenate the ``(lo, hi)`` slice indices
    into every hop's payload — 16 extra float64 wire bytes per hop plus
    a float64 round-trip of the data.  Both stages now compute chunk
    ranges locally, so the traced byte counts are exactly the slice
    data.
    """

    @pytest.mark.parametrize("n", [10, 11, 37])
    def test_exact_total_bytes_sum(self, n):
        # size=4, g=2, 2 nodes: reduce-scatter, cross-node recursive
        # doubling, and allgather each move every element once per rank
        # pair => 6n floats = 24n bytes in total.
        vecs = _vectors(4, n, seed=3)
        cluster = Cluster(4)
        cluster.run(
            lambda c, v: hierarchical_sum_allreduce(c, v, 2),
            rank_args=[(v,) for v in vecs],
        )
        assert cluster.total_bytes() == 24 * n

    def test_every_payload_is_a_bare_chunk(self):
        # n=10 splits into two 5-float chunks, so every message on the
        # wire — both intra stages and the cross-node exchange — must be
        # exactly 20 bytes.  The old metadata smuggling made allgather
        # hops (5 + 2) * 8 = 56 bytes.
        n = 10
        vecs = _vectors(4, n, seed=4)
        cluster = Cluster(4, trace=True)
        cluster.run(
            lambda c, v: hierarchical_sum_allreduce(c, v, 2),
            rank_args=[(v,) for v in vecs],
        )
        sends = [ev for ev in cluster.tracer.events if ev.op == "send"]
        assert sends and {ev.nbytes for ev in sends} == {20}

    def test_adasum_payloads_are_dtype_sized(self):
        vecs = _vectors(4, 24, seed=5)
        cluster = Cluster(4, trace=True)
        cluster.run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 2),
            rank_args=[(v,) for v in vecs],
        )
        sends = [ev for ev in cluster.tracer.events if ev.op == "send"]
        # fp32 data only: every payload is a whole number of floats and
        # no bigger than one 12-element chunk (48 bytes).
        assert sends
        assert all(ev.nbytes % 4 == 0 and ev.nbytes <= 48 for ev in sends)


def _node_sums(vecs, g):
    return [
        (np.sum(np.stack(vecs[k * g:(k + 1) * g]).astype(np.float64), axis=0)
         ).astype(vecs[0].dtype)
        for k in range(len(vecs) // g)
    ]


def _per_slice_reference(vecs, g, boundaries=None):
    """adasum tree over node sums, applied slice-by-slice like the wire."""
    from repro.comm.hierarchical import _chunk_bounds, _rebase_boundaries
    from repro.core.strategies import get_strategy

    n = vecs[0].size
    sums = _node_sums(vecs, g)
    out = np.empty(n, dtype=vecs[0].dtype)
    cell = get_strategy("adasum", "tree_any")
    for lo, hi in _chunk_bounds(n, g):
        rows = np.stack([s[lo:hi] for s in sums])
        out[lo:hi] = cell.combine_flat(rows, _rebase_boundaries(boundaries, lo, hi))
    return out


class TestCrossTopologyAndBoundaries:
    def test_tree_any_cross_bit_exact_non_pow2_nodes(self):
        # 6 ranks, g=2 -> 3 nodes: auto-selects the tree_any cross
        # geometry, which must reproduce per-slice adasum-over-node-sums
        # bit for bit (g=2 keeps the local sum exact: the single
        # reduce-scatter hop ships original fp32 data).
        vecs = _vectors(6, 41, seed=6)
        expected = _per_slice_reference(vecs, 2)
        results = Cluster(6).run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 2),
            rank_args=[(v,) for v in vecs],
        )
        for r in results:
            np.testing.assert_array_equal(r, expected)

    def test_fused_boundaries_respected(self):
        # Fused layout: boundaries subdivide each slice, changing the
        # per-layer Adasum dot products — the result must match the
        # reference computed with the same rebased boundaries, and
        # differ from the boundary-free reduction.
        n = 40
        boundaries = [0, 7, 19, 40]
        vecs = _vectors(6, n, seed=8)
        expected = _per_slice_reference(vecs, 2, boundaries)
        results = Cluster(6).run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 2, boundaries=boundaries),
            rank_args=[(v,) for v in vecs],
        )
        for r in results:
            np.testing.assert_array_equal(r, expected)
        plain = _per_slice_reference(vecs, 2)
        assert not np.array_equal(expected, plain)

    def test_rvh_cross_close_to_reference_with_boundaries(self):
        # Power-of-two node counts use AdasumRVH across nodes; it is
        # numerically (not bitwise) equivalent to the tree reference.
        n = 52
        boundaries = [0, 13, 52]
        vecs = _vectors(8, n, seed=9)
        expected = _per_slice_reference(vecs, 2, boundaries)
        results = Cluster(8).run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 2, boundaries=boundaries),
            rank_args=[(v,) for v in vecs],
        )
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-3, atol=1e-5)

    def test_uneven_chunks_non_divisible_length(self):
        # Vector length not divisible by g: np.array_split-style uneven
        # chunks still reassemble exactly (3 nodes: the tree_any cross).
        vecs = _vectors(6, 13, seed=10)
        expected = _per_slice_reference(vecs, 2)
        results = Cluster(6).run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, 2),
            rank_args=[(v,) for v in vecs],
        )
        for r in results:
            np.testing.assert_array_equal(r, expected)
