"""The elastic reduction, run as a real collective on the simulated transport.

The non-elastic trainer reduces arena rows with in-process kernels
(:meth:`GradientReducer.reduce_arena`); the elastic runtime must instead
run the reduction *through the cluster*, because the synchronization
point is where failures bite: an injected kill, a hang, or a straggler
delay all surface inside :meth:`Cluster.run` here and nowhere else.

Bit-exactness contract (tested in ``tests/elastic/test_collective.py``):

* Adasum tree mode runs pairwise divide-and-conquer over the
  participants — rank ``lo`` combines its subtree with the subtree
  received from rank ``lo + p`` via the registry's pairwise Adasum —
  which reproduces ``get_strategy("adasum", "tree_any")`` (and therefore
  the reference ``adasum_tree`` for power-of-two counts) bit for bit,
  because both recursions split at the same point and
  ``adasum_flat``'s float64 accumulation is deterministic.
* Sum / Average / linear-Adasum gather the participant rows to the
  subgroup root in rank order and apply the reducer's own
  ``reduce_flat`` on the stacked rows — trivially identical to the
  in-process path.

Only the subgroup root ends up with the combined row (the supervisor
applies it centrally); a broadcast would only add simulated latency.

Wire compression (``wire_format``): when the supervisor has already
round-tripped the rows through the wire codec stack
(``wire_codecs``, :mod:`repro.comm.codec`), every element is exactly
what a receiver would decode, so a rank's *original* contribution can
be sent in encoded form and decoded exactly — fewer bytes on the wire
(and proportionally less simulated transmission cost) with zero extra
precision loss.  The codec-backed format *verifies* the round trip and
falls back to raw float32 when the row is off-grid, so the
bit-exactness contract holds by construction.  Combined partials at
interior tree hops are never grid-resident, so they stay fp32:
compression applies to leaf hops only (every send in gather mode, the
bottom level in tree mode), mirroring fp16-wire/fp32-accumulate mixed
precision (§4.4.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.transport import Cluster, GroupComm
from repro.core.operator import largest_pow2_below
from repro.core.strategies import GradientReducer, get_strategy


def _send_encoded(sub, row: np.ndarray, dst: int, wire, bounds) -> None:
    """Send an original (grid-resident) contribution, compressed when a
    wire format is active; the costed size is the encoded payload's."""
    if wire is None:
        sub.send(row, dst)
        return
    payload, nbytes = wire.encode(row, bounds)
    sub.send(payload, dst, nbytes=nbytes)


def _recv_decoded(sub, src: int, wire) -> np.ndarray:
    """Receive and decode a contribution; raw fp32 passes through."""
    payload = sub.recv(src)
    return payload if wire is None else wire.decode(payload)


def _tree_combine(
    sub, acc: np.ndarray, bounds, lo: int, hi: int, pairwise,
    wire=None, wire_bounds=None,
) -> np.ndarray:
    """Divide-and-conquer Adasum over subgroup ranks [lo, hi).

    Every rank walks the same recursion but acts only in its own half;
    afterwards subgroup rank ``lo`` holds ``adasum_tree_any`` of the
    participants' rows.  Non-power-of-two spans split at the largest
    power of two below ``n``, exactly like
    :func:`~repro.core.operator.adasum_tree_any`.  ``pairwise`` is the
    registry's ``combine_pair``, resolved once per collective.
    """
    n = hi - lo
    if n <= 1:
        return acc
    p = n // 2 if n & (n - 1) == 0 else largest_pow2_below(n)
    if sub.rank < lo + p:
        acc = _tree_combine(sub, acc, bounds, lo, lo + p, pairwise, wire, wire_bounds)
        if sub.rank == lo:
            other = _recv_decoded(sub, lo + p, wire)
            sub.compute(acc.nbytes, label="adasum")
            pairwise(acc, other, bounds, out=acc)
    else:
        acc = _tree_combine(sub, acc, bounds, lo + p, hi, pairwise, wire, wire_bounds)
        if sub.rank == lo + p:
            # Leaf hop (single-rank subtree): the payload is this rank's
            # original row, exactly representable in encoded form.
            # Interior hops carry combined partials and stay fp32.
            if hi - (lo + p) == 1:
                _send_encoded(sub, acc, lo, wire, wire_bounds)
            else:
                sub.send(acc, lo)
    return acc


def cluster_reduce(
    cluster: Cluster,
    data: np.ndarray,
    boundaries: Optional[Sequence[int]],
    reducer: GradientReducer,
    participants: Optional[Sequence[int]] = None,
    wire_format=None,
) -> np.ndarray:
    """Reduce ``data`` rows over ``cluster``; returns the combined row.

    ``data`` is the ``(world, size)`` arena buffer of the current world
    (``cluster.size`` rows).  ``participants`` restricts the reduction
    to a subset of local ranks (straggler drops, empty tail batches);
    non-participants run no communication at all.  Failures inside the
    collective propagate as the :class:`CommError` of
    :meth:`Cluster.run` for the supervisor to classify.

    Both shapes (the tree and the gather) only ever send from a higher
    subgroup rank to a lower one, so descending rank order is a
    topological order of the sends and the collective runs as an
    ordered replay (:meth:`Cluster.run` with ``order=``) — no rank
    threads.

    ``wire_format`` enables lossless compression of original-row sends
    (see module docstring): pass the wire format of the codec stack the
    rows were already round-tripped through
    (:meth:`CodecPipeline.leaf_format`), or ``None`` for raw fp32.
    """
    if data.shape[0] != cluster.size:
        raise ValueError(
            f"data has {data.shape[0]} rows for a {cluster.size}-rank cluster"
        )
    participants = (
        sorted(participants) if participants is not None else list(range(cluster.size))
    )
    if not participants:
        raise ValueError("need at least one participant")
    part_set = set(participants)
    adasum_tree_mode = getattr(reducer, "name", None) == "adasum" and getattr(
        reducer, "tree", False
    )
    # Whole-model Adasum ignores layer boundaries (one flat block).
    bounds = boundaries if getattr(reducer, "per_layer", True) else None
    pairwise = (
        get_strategy("adasum", "tree_any").combine_pair if adasum_tree_mode else None
    )

    def fn(comm):
        if comm.rank not in part_set:
            return None
        acc = data[comm.rank].copy()
        if len(participants) == 1:
            return acc
        sub = GroupComm(comm, participants, presorted=True)
        if adasum_tree_mode:
            acc = _tree_combine(
                sub, acc, bounds, 0, sub.size, pairwise, wire_format, boundaries
            )
            return acc if sub.rank == 0 else None
        # Gather rows to the subgroup root, reduce with the in-process
        # kernel (rank order matches the row-stack order exactly).
        # Every gathered row is an original contribution: all sends
        # compress.
        if sub.rank == 0:
            rows: List[np.ndarray] = [acc]
            for src in range(1, sub.size):
                rows.append(_recv_decoded(sub, src, wire_format))
            sub.compute(acc.nbytes * (sub.size - 1), label=reducer.name)
            return reducer.reduce_flat(np.stack(rows), boundaries)
        _send_encoded(sub, acc, 0, wire_format, boundaries)
        return None

    results = cluster.run(fn, order=range(cluster.size - 1, -1, -1))
    combined = results[participants[0]]
    assert combined is not None, "subgroup root returned no reduction"
    return combined
