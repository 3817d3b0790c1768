"""Executed two-level hierarchical allreduce (paper §4.2.2).

When ``HOROVOD_HIERARCHICAL_ALLREDUCE`` is set, Horovod brackets the
cross-node reduction with an intra-node NCCL reduce-scatter and
allgather: each GPU ends the local reduce-scatter holding the node-sum
of one slice, participates in a cross-node reduction of that slice with
its peers in other nodes, then the slices are allgathered locally.

With a plain sum the result equals a flat allreduce.  With Adasum the
semantics intentionally differ: microbatches *within* a node are summed
(they act as one larger batch) and Adasum is applied *across* nodes —
"we use the GPUs available in a single node to accumulate local
gradients and use the Adasum operation across nodes" (§4.3).  The
reference semantics are therefore::

    adasum_tree([sum(node 0 grads), sum(node 1 grads), ...])

which the equivalence tests assert.

Wire accounting: every message carries exactly the slice data in the
input dtype — no metadata bytes, no widened payloads.  Slice ranges are
never transmitted; both the reduce-scatter and the allgather compute
each peer's chunk bounds locally from the deterministic
``np.array_split`` schedule (:func:`_chunk_bounds`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import (
    allreduce_recursive_doubling,
    allreduce_ring,
    broadcast,
)
from repro.comm.transport import Comm


def _node_group(rank: int, gpus_per_node: int):
    node = rank // gpus_per_node
    base = node * gpus_per_node
    return node, list(range(base, base + gpus_per_node))


def _chunk_bounds(total: int, g: int) -> List[Tuple[int, int]]:
    """The ``(lo, hi)`` ranges of ``np.array_split(np.arange(total), g)``.

    Chunk ``i`` has ``total // g + 1`` elements when ``i < total % g``
    and ``total // g`` otherwise.  Computed arithmetically so the ring
    schedule never needs to ship indices alongside the data.
    """
    base, extra = divmod(total, g)
    bounds = []
    lo = 0
    for i in range(g):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _local_reduce_scatter(comm: Comm, x: np.ndarray, group) -> tuple:
    """Ring reduce-scatter within ``group``; returns (slice, (lo, hi)).

    The vector is split into ``len(group)`` chunks; member ``i`` of the
    group ends up owning the fully summed chunk ``(i + 1) % g``.
    Accumulation is float64; wire payloads stay in the input dtype
    (each hop sends the running partial sum rounded to storage
    precision, as a real fp32 collective would).
    """
    g = len(group)
    pos = group.index(comm.rank)
    flat = x.reshape(-1).astype(np.float64)
    bounds = _chunk_bounds(flat.size, g)
    right = group[(pos + 1) % g]
    left = group[(pos - 1) % g]
    for step in range(g - 1):
        slo, shi = bounds[(pos - step) % g]
        rlo, rhi = bounds[(pos - step - 1) % g]
        comm.send(flat[slo:shi].astype(x.dtype), right)
        incoming = comm.recv(left)
        comm.compute(incoming.nbytes, label="local-sum")
        flat[rlo:rhi] += incoming
    lo, hi = bounds[(pos + 1) % g]
    return flat[lo:hi], (lo, hi)


def _local_allgather(comm: Comm, piece: np.ndarray, group, total: int,
                     dtype) -> np.ndarray:
    """Ring allgather of per-member slices within ``group``.

    Each member starts holding chunk ``(pos + 1) % g``; after ring step
    ``t`` the incoming payload is chunk ``(pos - t) % g``, so its slice
    range is known locally from the split schedule and only the data
    travels — historically the ``(lo, hi)`` indices were concatenated
    into the payload, adding 16 traced wire bytes per hop and a
    float64 round-trip of the indices.
    """
    g = len(group)
    pos = group.index(comm.rank)
    right = group[(pos + 1) % g]
    left = group[(pos - 1) % g]
    bounds = _chunk_bounds(total, g)
    out = np.empty(total, dtype=dtype)
    lo, hi = bounds[(pos + 1) % g]
    out[lo:hi] = piece
    cur = np.ascontiguousarray(out[lo:hi])
    for t in range(g - 1):
        comm.send(cur, right)
        incoming = comm.recv(left)
        ilo, ihi = bounds[(pos - t) % g]
        out[ilo:ihi] = incoming
        cur = incoming
    return out


def _rebase_boundaries(
    boundaries: Optional[Sequence[int]], lo: int, hi: int
) -> Optional[List[int]]:
    """Project fused layer boundaries into the slice ``[lo, hi)``.

    Adasum treats each boundary-delimited range as one "layer" for its
    dot products; a slice sees only the portions of those layers that
    overlap it, so each boundary clips into slice-local coordinates.
    """
    if boundaries is None:
        return None
    clipped = sorted({min(max(int(b) - lo, 0), hi - lo) for b in boundaries})
    if not clipped or clipped[0] != 0:
        clipped.insert(0, 0)
    if clipped[-1] != hi - lo:
        clipped.append(hi - lo)
    return clipped


def hierarchical_allreduce(
    comm: Comm,
    x: np.ndarray,
    gpus_per_node: int,
    cross_node: Callable,
    boundaries: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Two-level allreduce: intra-node sum, cross-node ``cross_node`` op.

    ``cross_node(group_comm, slice, slice_boundaries)`` runs over a
    :class:`GroupComm` spanning the ranks that hold this slice position
    on every node, so any registry cell's ``combine_comm`` (AdasumRVH,
    ...) plugs in unmodified.  Requires ``comm.size % gpus_per_node ==
    0``.  ``boundaries`` (fused layer boundaries over the whole vector)
    are rebased into each rank's slice (``None`` stays ``None``), so
    per-layer Adasum dot products respect tensor-fusion layouts.
    """
    from repro.comm.transport import GroupComm

    if comm.size % gpus_per_node:
        raise ValueError(
            f"world size {comm.size} not divisible by gpus_per_node {gpus_per_node}"
        )
    _, group = _node_group(comm.rank, gpus_per_node)
    flat = np.ascontiguousarray(x).reshape(-1)
    if gpus_per_node == 1:
        piece, slice_range = flat.astype(np.float64), (0, flat.size)
    else:
        piece, slice_range = _local_reduce_scatter(comm, flat, group)

    # Cross-node stage: ranks occupying the same local position on every
    # node hold the same slice indices.
    peers = cross_node_peers(comm.rank, comm.size, gpus_per_node)
    sub = GroupComm(comm, peers)
    lo, hi = slice_range
    reduced = cross_node(
        sub, piece.astype(flat.dtype), _rebase_boundaries(boundaries, lo, hi)
    )

    if gpus_per_node == 1:
        return np.asarray(reduced, dtype=flat.dtype)
    return _local_allgather(
        comm, np.asarray(reduced, dtype=flat.dtype), group, flat.size, flat.dtype
    )


def _cross_node_adasum_tree(sub: Comm, piece: np.ndarray,
                            boundaries: Optional[Sequence[int]] = None) -> np.ndarray:
    """Tree Adasum across the node group: gather-to-root, one
    in-process pow2-block reduction, binomial broadcast back.

    This is the cross-node geometry that survives *any* node count —
    the fallback an elastic hierarchical world drops to when a rank
    kill breaks node symmetry — and it reproduces the registry's
    ``(adasum, tree)`` cell bit for bit over the gathered slices.
    """
    from repro.core.strategies import get_strategy

    if sub.size == 1:
        return piece.copy()
    if sub.rank == 0:
        rows = [piece] + [sub.recv(r) for r in range(1, sub.size)]
        combined = get_strategy("adasum", "tree").combine_flat(
            np.stack(rows), boundaries
        )
        return broadcast(sub, combined)
    sub.send(piece, 0)
    return broadcast(sub, piece)


def hierarchical_adasum_allreduce(
    comm: Comm,
    x: np.ndarray,
    gpus_per_node: int,
    boundaries: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """§4.2.2 packaged: intra-node NCCL-style sum + cross-node Adasum.

    Semantics: node-local gradients are *summed* (acting as one larger
    microbatch per node) and Adasum combines the node sums — but, as in
    the Horovod implementation, each local GPU reduces its slice
    *independently*, so the Adasum dot products are computed per slice
    (the slice plays the role of a "layer"; with tensor fusion the
    slices are further subdivided at the rebased layer boundaries).
    The tests assert equality with per-slice ``adasum_tree`` over the
    node sums.

    The node count picks the cross-node geometry: RVH (Algorithm 1, the
    paper's production choice) at a power of two, the pow2-block
    ``tree`` otherwise — exactly the fallback an elastic world
    needs after losing whole nodes.
    """
    from repro.core.strategies import get_strategy

    if comm.size % gpus_per_node:
        raise ValueError(
            f"world size {comm.size} not divisible by gpus_per_node {gpus_per_node}"
        )
    nodes = comm.size // gpus_per_node
    if nodes & (nodes - 1) == 0:
        cross = get_strategy("adasum", "rvh").combine_comm
    else:
        cross = _cross_node_adasum_tree
    return hierarchical_allreduce(
        comm, x, gpus_per_node, cross_node=cross, boundaries=boundaries
    )


def hierarchical_sum_allreduce(
    comm: Comm, x: np.ndarray, gpus_per_node: int, average: bool = False
) -> np.ndarray:
    """Two-level elementwise allreduce: equals a flat sum (or mean).

    The cross-node stage uses recursive doubling for power-of-two node
    counts and the ring otherwise, so any node geometry reduces.
    """
    nodes = comm.size // max(gpus_per_node, 1)

    def cross(sub, piece, _boundaries):
        if nodes & (nodes - 1):
            return allreduce_ring(sub, piece)
        return allreduce_recursive_doubling(sub, piece)

    out = hierarchical_allreduce(comm, x, gpus_per_node, cross_node=cross)
    if average:
        out = (out / comm.size).astype(out.dtype)
    return out


def cross_node_peers(rank: int, size: int, gpus_per_node: int):
    """Ranks holding this rank's slice position on every node."""
    local = rank % gpus_per_node
    return [n * gpus_per_node + local for n in range(size // gpus_per_node)]
