"""Collective operations over the simulated transport.

These are the baseline algorithms the paper compares against and builds
on: the ring allreduce used for synchronous SGD (and by NCCL for large
messages), recursive doubling for small messages, and the
reduce-scatter/allgather pair of the recursive-vector-halving scheme
that Algorithm 1 modifies.  All run verbatim over :class:`Comm`
handles, so the same code path is used for correctness tests and for
simulated-latency measurements.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.comm.transport import Comm


def _require_power_of_two(size: int, what: str) -> int:
    levels = size.bit_length() - 1
    if 1 << levels != size:
        raise ValueError(f"{what} requires a power-of-two rank count, got {size}")
    return levels


def allreduce_ring(comm: Comm, x: np.ndarray) -> np.ndarray:
    """Ring allreduce: reduce-scatter ring then allgather ring.

    Works for any rank count; the vector is split into ``size`` chunks.
    """
    p, r = comm.size, comm.rank
    if p == 1:
        return x.copy()
    x = x.copy()
    chunks = np.array_split(np.arange(x.size), p)
    flat = x.reshape(-1)
    right = (r + 1) % p
    left = (r - 1) % p
    # Reduce-scatter: after p-1 steps, rank r owns the fully reduced chunk r+1.
    for step in range(p - 1):
        send_idx = (r - step) % p
        recv_idx = (r - step - 1) % p
        comm.send(flat[chunks[send_idx]], right)
        incoming = comm.recv(left)
        comm.compute(incoming.nbytes, label="reduce")
        flat[chunks[recv_idx]] = flat[chunks[recv_idx]] + incoming
    # Allgather: circulate the reduced chunks.
    for step in range(p - 1):
        send_idx = (r - step + 1) % p
        recv_idx = (r - step) % p
        comm.send(flat[chunks[send_idx]], right)
        flat[chunks[recv_idx]] = comm.recv(left)
    return x


def allreduce_recursive_doubling(
    comm: Comm, x: np.ndarray, group: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Recursive-doubling allreduce: log p full-vector exchanges.

    Latency-optimal for small messages.  ``group`` (global ranks, this
    rank included, power-of-two sized) restricts the sum to those
    ranks — the ``ALLREDUCE(v, +, group)`` primitive on line 17 of the
    paper's Algorithm 1, which finishes the partial dot products; the
    default is every rank, which must then be a power of two.
    """
    group = range(comm.size) if group is None else sorted(group)
    if comm.rank not in group:
        raise ValueError(f"rank {comm.rank} not in group {list(group)}")
    levels = _require_power_of_two(len(group), "recursive doubling")
    pos = group.index(comm.rank)
    x = x.copy()
    for level in range(levels):
        peer = group[pos ^ (1 << level)]
        incoming = comm.sendrecv(x, peer)
        comm.compute(incoming.nbytes)
        x = x + incoming
    return x


def reduce_scatter_halving(comm: Comm, x: np.ndarray):
    """Recursive-vector-halving reduce-scatter.

    Returns ``(slice_data, slice_range)`` where ``slice_range`` is the
    ``(start, stop)`` index range of the full vector this rank ends up
    owning (fully reduced).  Requires power-of-two ranks.
    """
    levels = _require_power_of_two(comm.size, "vector halving")
    rank = comm.rank
    data = x.reshape(-1).copy()
    start, stop = 0, data.size
    d = 1
    for _ in range(levels):
        mid = start + (stop - start) // 2
        if (rank // d) % 2 == 0:  # left neighbor: keeps the left half
            peer = rank + d
            comm.send(data[mid - start :], peer)
            incoming = comm.recv(peer)
            data = data[: mid - start]
            comm.compute(incoming.nbytes)
            data = data + incoming
            stop = mid
        else:  # right neighbor: keeps the right half
            peer = rank - d
            comm.send(data[: mid - start], peer)
            incoming = comm.recv(peer)
            data = data[mid - start :]
            comm.compute(incoming.nbytes)
            data = data + incoming
            start = mid
        d *= 2
    return data, (start, stop)


def allgather_doubling(comm: Comm, data: np.ndarray, slice_range, total_size: int) -> np.ndarray:
    """Recursive-doubling allgather, inverse of the halving reduce-scatter."""
    levels = _require_power_of_two(comm.size, "vector doubling")
    rank = comm.rank
    start, stop = slice_range
    out = np.empty(total_size, dtype=data.dtype)
    out[start:stop] = data
    d = comm.size // 2
    for _ in range(levels):
        peer_is_right = (rank // d) % 2 == 0
        peer = rank + d if peer_is_right else rank - d
        comm.send(out[start:stop], peer)
        incoming = comm.recv(peer)
        if peer_is_right:
            out[stop : stop + incoming.size] = incoming
            stop += incoming.size
        else:
            out[start - incoming.size : start] = incoming
            start -= incoming.size
        d //= 2
    return out


def cluster_allreduce(
    comm: Comm,
    x: np.ndarray,
    op: str = "sum",
    topology: str = "ring",
    boundaries: Sequence[int] = None,
    gpus_per_node: int = None,
) -> np.ndarray:
    """Declarative cluster allreduce: the registered ``(op, topology)``
    cell's cluster form, ``get_strategy(op, topology).combine_comm``.

    Every cell that has one runs here — AdasumRVH, the Adasum ring
    chain, the elementwise sum / average collectives (ring, recursive
    doubling, vector halving) and the two-level ``hierarchical`` cells
    with ``gpus_per_node`` ranks per node; per-layer ``boundaries``
    reach the Adasum dot products.  This is the entry point the CLI
    ``trace`` command drives, so every traced collective goes through
    the same registry as training.
    """
    # Lazy import: repro.comm.__init__ imports this module, and the
    # strategies module imports repro.comm.transport back.
    from repro.core.strategies import get_strategy

    strategy = get_strategy(op, topology).bind(gpus_per_node=gpus_per_node)
    return strategy.combine_comm(comm, x, boundaries)


def broadcast(comm: Comm, x: np.ndarray, root: int = 0) -> np.ndarray:
    """Binomial-tree broadcast from ``root`` (classic MPI algorithm)."""
    size = comm.size
    if size == 1:
        return x.copy()
    rel = (comm.rank - root) % size
    data = x.copy() if comm.rank == root else None
    # Phase 1: every non-root rank receives exactly once.
    mask = 1
    while mask < size:
        if rel & mask:
            src = ((rel - mask) + root) % size
            data = comm.recv(src)
            break
        mask <<= 1
    # Phase 2: forward down the tree.
    mask >>= 1
    while mask > 0:
        if rel + mask < size:
            dst = (rel + mask + root) % size
            comm.send(data, dst)
        mask >>= 1
    assert data is not None, f"broadcast failed to reach rank {comm.rank}"
    return data
