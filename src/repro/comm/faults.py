"""Deterministic fault injection for the simulated cluster.

A :class:`FaultPlan` attached to a :class:`~repro.comm.transport.Cluster`
perturbs the transport without touching algorithm code, so every
collective (ring, RVH, AdasumRVH, hierarchical two-level) can be
exercised under the conditions the delayed/asynchronous-aggregation
literature studies (stragglers, message loss, rank death):

* **delays** — a straggler rank pays a multiplier on every message it
  sends (simulated clock only; results are unchanged);
* **drops** — the first ``count`` transmission attempts on a (src, dst)
  link are lost in transit.  ``Comm.send`` retransmits up to
  ``max_retries`` times with exponential ``backoff`` charged to the
  simulated clock, preserving FIFO order (the retry completes before
  the send returns, so later messages can never overtake a retried
  one — "reorder-safe");
* **kills** — a rank raises :class:`RankKilledError` at its N-th
  communication operation, mid-collective, and the cluster's abort
  machinery turns that into a prompt diagnostic
  :class:`~repro.comm.transport.CommError` for every other rank.

All state is reset at the start of every :meth:`Cluster.run`, so a plan
can be reused across runs deterministically.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple


class RankKilledError(RuntimeError):
    """Raised inside a simulated rank killed by a :class:`FaultPlan`.

    ``rank`` identifies the killed rank so supervisors (the elastic
    runtime) can react without parsing the message.
    """

    def __init__(self, message: str, rank: Optional[int] = None):
        super().__init__(message)
        self.rank = rank


class FaultPlan:
    """A deterministic schedule of injected faults.

    Parameters
    ----------
    max_retries:
        Default retransmission budget for dropped messages (per send).
    backoff:
        Base simulated-seconds penalty before a retransmission; attempt
        ``k`` waits ``backoff * 2**(k-1)``.
    """

    def __init__(self, max_retries: int = 0, backoff: float = 0.0):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.max_retries = max_retries
        self.backoff = backoff
        self._delays: Dict[int, float] = {}
        self._drops: Dict[Tuple[int, int], int] = {}
        self._kills: Dict[int, int] = {}
        self._drops_left: Dict[Tuple[int, int], int] = {}
        self._ops_done: Dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Plan construction (chainable)
    # ------------------------------------------------------------------
    def delay_rank(self, rank: int, factor: float) -> "FaultPlan":
        """Multiply the send cost of every message ``rank`` transmits."""
        if factor <= 0:
            raise ValueError("delay factor must be > 0")
        self._delays[rank] = float(factor)
        return self

    def drop_messages(self, src: int, dst: int, count: int = 1) -> "FaultPlan":
        """Lose the first ``count`` transmission attempts on (src, dst)."""
        if count < 1:
            raise ValueError("drop count must be >= 1")
        self._drops[(src, dst)] = self._drops.get((src, dst), 0) + count
        self._drops_left[(src, dst)] = self._drops[(src, dst)]
        return self

    def kill_rank(self, rank: int, after_ops: int = 0) -> "FaultPlan":
        """Kill ``rank`` on its ``after_ops + 1``-th comm op (send/recv)."""
        if after_ops < 0:
            raise ValueError("after_ops must be >= 0")
        self._kills[rank] = after_ops
        return self

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore per-run state (drop budgets, op counters)."""
        with self._lock:
            self._drops_left = dict(self._drops)
            self._ops_done = {}

    def delay_factor(self, rank: int) -> float:
        return self._delays.get(rank, 1.0)

    def consume_drop(self, src: int, dst: int) -> bool:
        """True when this transmission attempt is lost (budget consumed)."""
        key = (src, dst)
        with self._lock:
            left = self._drops_left.get(key, 0)
            if left > 0:
                self._drops_left[key] = left - 1
                return True
        return False

    def on_op(self, rank: int, op: str, clock: float) -> None:
        """Count one comm op; raise :class:`RankKilledError` when due."""
        if rank not in self._kills:
            return
        with self._lock:
            done = self._ops_done.get(rank, 0)
            if done >= self._kills[rank]:
                raise RankKilledError(
                    f"rank {rank} killed by fault plan at comm op #{done + 1} "
                    f"({op}, simulated t={clock:.6g})",
                    rank=rank,
                )
            self._ops_done[rank] = done + 1
