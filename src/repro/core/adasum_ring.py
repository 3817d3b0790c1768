"""The "ring" (linear) Adasum allreduce (paper §4.2.3).

Besides AdasumRVH, the paper implemented a linear application of the
pairwise operator optimized like a ring allreduce, and found it slower
than both AdasumRVH and NCCL on their fabric — kept here both as the
§4.2.3 ablation and as the alternative the paper suggests "could be
competitive for other architectures".

The algorithm: the accumulated combination travels once around the
ring — rank r receives the running combination of gradients 0..r-1,
combines its own gradient with it (all dot products are local since
both vectors are resident), and forwards the result.  A broadcast from
the last rank distributes the final vector.  Unlike the elementwise
ring allreduce this cannot be chunk-pipelined, because each pairwise
combination needs *whole-vector* dot products before any element can be
produced — the reason the paper's ring variant loses on bandwidth.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import broadcast
from repro.comm.fusion import FusedTensorLayout
from repro.comm.transport import Cluster, Comm
from repro.core.operator import adasum

_EPS = 1e-30


def _combine(
    acc: np.ndarray, g: np.ndarray,
    slices: Optional[Sequence[Tuple[int, int]]],
) -> np.ndarray:
    """Pairwise Adasum, per fused-layer slice when slices are given."""
    if slices is None:
        return adasum(acc, g)
    out = np.empty_like(acc)
    for lo, hi in slices:
        out[lo:hi] = adasum(acc[lo:hi], g[lo:hi])
    return out


def adasum_ring(
    comm: Comm,
    x: np.ndarray,
    layout: Optional[FusedTensorLayout] = None,
) -> np.ndarray:
    """Linear/ring Adasum allreduce; any rank count.

    Equivalent to :func:`repro.core.operator.adasum_linear` over the
    ranks' vectors (validated in tests), with ``2(P-1)`` full-vector
    messages of latency — latency- and bandwidth-suboptimal vs RVH,
    as §4.2.3 reports.
    """
    slices = tuple(layout.slices) if layout is not None else None
    return _ring_flat(comm, x, boundaries=None, _slices=slices)


def _ring_flat(
    comm: Comm,
    row: np.ndarray,
    boundaries: Optional[Sequence[int]] = None,
    _slices: Optional[Tuple[Tuple[int, int], ...]] = None,
) -> np.ndarray:
    """Ring Adasum over a flat arena row, no dict/layout packing.

    ``boundaries`` follows the ``layout.boundaries()`` convention
    (per-tensor offsets, ``len = #tensors + 1``) for per-layer pairwise
    combination, or ``None`` for whole-vector Adasum.  Bit-exact with
    :func:`adasum_ring` given the matching layout.  Reached through
    ``get_strategy("adasum", "ring").combine_comm``.
    """
    if _slices is not None:
        slices = _slices
    elif boundaries is not None:
        bs = list(boundaries)
        slices = tuple(zip(bs[:-1], bs[1:]))
    else:
        slices = None
    flat = np.ascontiguousarray(row).reshape(-1)
    p, r = comm.size, comm.rank
    if p == 1:
        return flat.copy()
    # Accumulation pass: rank 0 -> 1 -> ... -> p-1.
    if r == 0:
        comm.send(flat, 1)
        acc = None
    else:
        incoming = comm.recv(r - 1)
        comm.compute(2 * flat.nbytes, label="adasum-chain")  # dots + combination
        acc = _combine(incoming, flat, slices)
        if r < p - 1:
            comm.send(acc, r + 1)
    # Distribution pass: binomial broadcast from the last rank.
    result = broadcast(comm, acc if r == p - 1 else flat, root=p - 1)
    return result


def allreduce_adasum_ring_cluster(grads, layout=None, network=None):
    """Driver mirroring :func:`repro.core.adasum_rvh.allreduce_adasum_cluster`."""
    size = len(grads)
    cluster = Cluster(size, network=network)
    results = cluster.run(adasum_ring, rank_args=[(g, layout) for g in grads])
    for r in range(1, size):
        if not np.allclose(results[r], results[0], rtol=1e-5, atol=1e-7):
            raise AssertionError(f"rank {r} disagrees after ring Adasum")
    return results[0], cluster.max_clock()


# Moved beside the other analytic network-cost models; re-exported here
# so existing ``from repro.core.adasum_ring import adasum_ring_cost``
# call sites keep working.
from repro.comm.netmodel import adasum_ring_cost  # noqa: E402,F401
