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

from typing import Optional, Sequence

import numpy as np

from repro.comm.collectives import broadcast
from repro.comm.transport import Comm
from repro.core.operator import adasum_flat


def _ring_flat(
    comm: Comm,
    row: np.ndarray,
    boundaries: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Linear/ring Adasum allreduce over a flat arena row; any rank count.

    ``boundaries`` follows the ``layout.boundaries()`` convention
    (per-tensor offsets, ``len = #tensors + 1``) for per-layer pairwise
    combination, or ``None`` for whole-vector Adasum.  Each hop is the
    ``linear`` cell's hop (:func:`adasum_flat`) in its schedule's order,
    so every rank's result is byte for byte that cell's derived
    ``combine_flat`` over the ranks' rows (the in-process replay of the
    same left fold), with ``2(P-1)`` full-vector messages of latency —
    latency- and bandwidth-suboptimal vs RVH, as §4.2.3 reports.
    Reached through ``get_strategy("adasum", "ring").combine_comm``.
    """
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
        acc = adasum_flat(incoming, flat, boundaries)
        if r < p - 1:
            comm.send(acc, r + 1)
    # Distribution pass: binomial broadcast from the last rank.
    result = broadcast(comm, acc if r == p - 1 else flat, root=p - 1)
    return result
