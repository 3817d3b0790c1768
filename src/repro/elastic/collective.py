"""The elastic reduction, run as a real collective on the simulated transport.

The non-elastic trainer reduces arena rows with in-process kernels
(:meth:`GradientReducer.reduce_arena`); the elastic runtime must instead
run the reduction *through the cluster*, because the synchronization
point is where failures bite: an injected kill, a hang, or a straggler
delay all surface inside :meth:`Cluster.run` here and nowhere else.

Bit-exactness contract (tested in ``tests/elastic/test_collective.py``):
the collective replays the cell's own pair schedule
(:meth:`~repro.core.strategies.ReduceStrategy.pair_schedule`) over the
participants — the schedule the process backend's rank workers replay —
each hop a send from ``src`` to ``dst`` and the cell's ``pair_combine``
there, then ``finalize_pair`` at the root.  The cell's ``combine_flat``
is derived from the same hops, replayed in process, so the two agree
byte for byte for every op and topology that has a schedule.  Only a
cell without one (``rvh``) gathers the participant rows to the subgroup
root in rank order and applies the reducer's own ``reduce_flat`` on the
stacked rows.

Only the subgroup root ends up with the combined row (the supervisor
applies it centrally); a broadcast would only add simulated latency.

Wire bytes (``leaf_nbytes``): with a codec stack (``wire_codecs``,
:mod:`repro.comm.codec`) the rows were already round-tripped by the
pipeline, so each holds exactly what a receiver would decode.  A send
carries the row itself, and a send of a row that has absorbed nothing
yet (every send of the gather, every leaf hop of a tree) is charged
the stack's modeled per-row bytes (:meth:`CodecPipeline.wire_nbytes`).
Combined partials at interior tree hops are never grid-resident, so
they are charged at raw fp32, mirroring fp16-wire/fp32-accumulate
mixed precision (§4.4.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.transport import Cluster, GroupComm
from repro.core.strategies import StrategyReducer


def cluster_reduce(
    cluster: Cluster,
    data: np.ndarray,
    boundaries: Optional[Sequence[int]],
    reducer: StrategyReducer,
    participants: Optional[Sequence[int]] = None,
    leaf_nbytes: Optional[int] = None,
) -> np.ndarray:
    """Reduce ``data`` rows over ``cluster``; returns the combined row.

    ``data`` is the ``(world, size)`` arena buffer of the current world
    (``cluster.size`` rows).  ``participants`` restricts the reduction
    to a subset of local ranks (straggler drops, empty tail batches);
    non-participants run no communication at all.  Failures inside the
    collective propagate as the :class:`CommError` of
    :meth:`Cluster.run` for the supervisor to classify.

    Both shapes (the schedule replay and the gather) only ever send from
    a higher subgroup rank to a lower one, so descending rank order is a
    topological order of the sends and the collective runs as an
    ordered replay (:meth:`Cluster.run` with ``order=``) — no rank
    threads.

    ``leaf_nbytes`` is the costed size of a send of an original row
    (see module docstring): the per-row modeled bytes of the codec stack
    the rows were round-tripped through, or ``None`` for raw fp32.
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
    n = len(participants)
    strategy = reducer.strategy
    # Whole-model reduction ignores layer boundaries (one flat block).
    bounds = boundaries if reducer.per_layer else None
    levels = strategy.pair_schedule(n)
    if levels is not None:
        # Each position's hops in schedule order: the rows it absorbs,
        # then (every position but the root) where it sends its own.
        absorbs: List[list] = [[] for _ in range(n)]
        send_to: List[Optional[int]] = [None] * n
        for level in levels:
            for dst, src, kind in level:
                absorbs[dst].append((src, kind))
                send_to[src] = dst

    def fn(comm):
        if comm.rank not in part_set:
            return None
        acc = data[comm.rank].copy()
        if n == 1:
            return acc
        sub = GroupComm(comm, participants, presorted=True)
        if levels is None:
            # No schedule: gather the rows to the subgroup root and
            # reduce them with the in-process kernel (rank order matches
            # the row-stack order).  Every gathered row is original.
            if sub.rank == 0:
                rows: List[np.ndarray] = [acc]
                for src in range(1, sub.size):
                    rows.append(sub.recv(src))
                sub.compute(acc.nbytes * (sub.size - 1), label=strategy.op)
                return reducer.reduce_flat(np.stack(rows), boundaries)
            sub.send(acc, 0, nbytes=leaf_nbytes)
            return None
        me = sub.rank
        for src, kind in absorbs[me]:
            other = sub.recv(src)
            sub.compute(acc.nbytes, label=strategy.op)
            strategy.pair_combine(kind, acc, other, bounds, out=acc)
        dst = send_to[me]
        if dst is None:
            return strategy.finalize_pair(acc, n)
        # A partial that absorbed others is charged as fp32.
        sub.send(acc, dst, nbytes=None if absorbs[me] else leaf_nbytes)
        return None

    results = cluster.run(fn, order=range(cluster.size - 1, -1, -1))
    combined = results[participants[0]]
    assert combined is not None, "subgroup root returned no reduction"
    return combined
