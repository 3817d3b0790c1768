"""Algorithm 1 — recursive vector halving with Adasum (paper Section 4.2.1).

Adasum is not elementwise (it needs whole-gradient dot products and
norms), so it cannot be a plain MPI user-defined reduction.  Algorithm 1
modifies the RVH allreduce: at each recursion level every rank holds
*slices* ``a`` (left neighbor's half) and ``b`` (right neighbor's half)
of a logical vector shared by the ``2·d`` ranks in its group; the ranks
compute partial dot products ``[a·b, a·a, b·b]``, finish them with a
small group allreduce, and apply the Adasum combination locally.

Per-layer support: when fused-layer ``boundaries`` are supplied, the
partial products are computed *per tensor slice* within the owned
range, and the combination uses per-layer scale factors (Sections 3.6 +
4.4.3 — fusion with boundary bookkeeping).

The implementation follows the paper's pseudocode line by line, runs as
``get_strategy("adasum", "rvh").combine_comm``, and is validated
against the sequential :func:`repro.core.operator.adasum_tree`
reference in ``tests/core/test_adasum_rvh.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import allreduce_recursive_doubling
from repro.comm.transport import Comm

_EPS = 1e-30


def _layer_slices(
    boundaries: Optional[Sequence[int]],
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Per-tensor ``(lo, hi)`` slices from boundary offsets (the
    ``layout.boundaries()`` convention: ``len = #tensors + 1``)."""
    if boundaries is None:
        return None
    bs = list(boundaries)
    return tuple(zip(bs[:-1], bs[1:]))


def _layer_ranges(
    local_size: int, start: int, slices: Optional[Sequence[Tuple[int, int]]]
) -> List[Optional[Tuple[int, int]]]:
    """Local (lo, hi) range of each layout tensor within this rank's slice.

    The returned list always has one entry per layout tensor (``None``
    when the tensor does not intersect the slice), so the partial-product
    arrays have identical shape on every rank of a group — a requirement
    for the elementwise group allreduce on line 17 of Algorithm 1.
    """
    if slices is None:
        return [(0, local_size)]
    stop = start + local_size
    ranges: List[Optional[Tuple[int, int]]] = []
    for lo, hi in slices:
        a, b = max(lo, start), min(hi, stop)
        ranges.append((a - start, b - start) if a < b else None)
    return ranges


def _partial_products(
    a: np.ndarray, b: np.ndarray, ranges: Sequence[Optional[Tuple[int, int]]]
) -> np.ndarray:
    """Partial ``[a·b, a·a, b·b]`` per layer slice (zeros when absent)."""
    v = np.zeros((len(ranges), 3), dtype=np.float64)
    for i, rng in enumerate(ranges):
        if rng is None:
            continue
        lo, hi = rng
        aa = a[lo:hi].astype(np.float64, copy=False)
        bb = b[lo:hi].astype(np.float64, copy=False)
        v[i, 0] = aa @ bb
        v[i, 1] = aa @ aa
        v[i, 2] = bb @ bb
    return v


def _apply_combination(
    a: np.ndarray,
    b: np.ndarray,
    v: np.ndarray,
    ranges: Sequence[Optional[Tuple[int, int]]],
) -> np.ndarray:
    """Line 18 of Algorithm 1: ``x' = a(1 - v1/2v2) + b(1 - v1/2v3)``."""
    out = np.empty_like(a)
    for rng, (dot, na, nb) in zip(ranges, v):
        if rng is None:
            continue
        lo, hi = rng
        s1 = 1.0 - dot / (2.0 * na) if na > _EPS else 1.0
        s2 = 1.0 - dot / (2.0 * nb) if nb > _EPS else 1.0
        out[lo:hi] = (
            s1 * a[lo:hi].astype(np.float64, copy=False)
            + s2 * b[lo:hi].astype(np.float64, copy=False)
        ).astype(a.dtype, copy=False)
    return out


def _rvh_flat(
    comm: Comm,
    row: np.ndarray,
    boundaries: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """AdasumRVH(x): the full Algorithm 1 including the allgather phase.

    Requires a power-of-two cluster.  ``row`` is this rank's flat
    gradient buffer (e.g. one :class:`~repro.core.arena.GradientArena`
    row); ``boundaries`` are the per-tensor offsets
    (``layout.boundaries()`` convention) for the per-layer dot
    products, or ``None`` for whole-vector Adasum.  The return value is
    the Adasum-combined vector, identical on every rank.  Reached
    through ``get_strategy("adasum", "rvh").combine_comm``.
    """
    size = comm.size
    if size & (size - 1):
        raise ValueError(f"AdasumRVH requires power-of-two ranks, got {size}")
    flat = np.ascontiguousarray(row).reshape(-1)
    if size == 1:
        return flat.copy()
    return _adasum_rvh_level(
        comm, flat, d=1, start=0, slices=_layer_slices(boundaries)
    )


def _adasum_rvh_level(
    comm: Comm, x: np.ndarray, d: int, start: int,
    slices: Optional[Tuple[Tuple[int, int], ...]],
) -> np.ndarray:
    """One recursion level of Algorithm 1 (lines 2-24).

    ``start`` tracks the absolute offset of ``x`` within the original
    vector so per-layer boundaries can be resolved.  Returns this
    rank's reconstructed full vector for its sub-range (after the
    allgather on lines 22-24).
    """
    rank = comm.rank
    mid = x.size // 2
    # The half-exchange goes through ``sendrecv`` so an active FaultPlan
    # can retransmit dropped halves without algorithm-level changes.
    if (rank // d) % 2 == 0:  # Left neighbor (lines 3-7)
        nghr = rank + d
        a = x[:mid]
        b = comm.sendrecv(x[mid:], nghr)  # swap halves: keep left, get theirs
        my_start = start
    else:  # Right neighbor (lines 8-13)
        nghr = rank - d
        a = comm.sendrecv(x[:mid], nghr)  # swap halves: keep right, get theirs
        b = x[mid:]
        my_start = start + mid

    d2 = 2 * d
    # Lines 15-17: partial dot products finished via group allreduce.
    ranges = _layer_ranges(a.size, my_start, slices)
    v = _partial_products(a, b, ranges)
    comm.compute(3 * a.nbytes, label="dot-products")
    group = [(rank // d2) * d2 + i for i in range(d2)]
    v = allreduce_recursive_doubling(comm, v, group)
    # Line 18: apply the Adasum combination on the owned half.
    xp = _apply_combination(a, b, v, ranges)
    comm.compute(2 * xp.nbytes, label="adasum-combine")

    # Line 19-21: recurse until all ranks share slices of one vector.
    if d2 < comm.size:
        xp = _adasum_rvh_level(comm, xp, d2, my_start, slices)

    # Lines 22-24: allgather phase — exchange halves on the way out.
    y = comm.sendrecv(xp, nghr)
    if (rank // d) % 2 == 0:
        return np.concatenate([xp, y])
    return np.concatenate([y, xp])
