"""Opt-in per-rank communication tracing for the simulated cluster.

When a :class:`CommTracer` is attached to a
:class:`~repro.comm.transport.Cluster`, every clock-advancing operation
(send, dropped transmission attempt, recv, compute, advance) is
recorded with its simulated start/end timestamps and payload size.
Recording is strictly observational: the tracer never touches clocks,
queues, or cost accounting, so enabling it cannot perturb the cost
model — the invariants

* ``tracer.total_bytes() == cluster.total_bytes()``
* ``tracer.max_clock()   == cluster.max_clock()``

hold exactly after any run (asserted in ``tests/comm/test_tracing.py``
and ``benchmarks/bench_fig4_rvh_latency.py``).

The trace exports to the Chrome ``chrome://tracing`` / Perfetto JSON
format (one ``pid`` per cluster, one ``tid`` per rank, timestamps in
simulated microseconds) and to per-rank summary statistics.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Dict, List, Optional

#: Ops whose ``nbytes`` count toward transmitted-byte totals.  Dropped
#: attempts are included: the sender paid for them (see FaultPlan).
_WIRE_OPS = ("send", "drop")


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One clock-advancing operation on one simulated rank.

    ``t0``/``t1`` are simulated seconds (``t1 >= t0``); ``peer`` is the
    global rank on the other side of a point-to-point op, ``None`` for
    local ops.
    """

    rank: int
    op: str
    t0: float
    t1: float
    nbytes: int = 0
    peer: Optional[int] = None
    label: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class CommTracer:
    """Thread-safe recorder of :class:`TraceEvent` streams per rank."""

    def __init__(self) -> None:
        self._events: Dict[int, List[TraceEvent]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording (called from rank threads)
    # ------------------------------------------------------------------
    def record(
        self,
        rank: int,
        op: str,
        t0: float,
        t1: float,
        nbytes: int = 0,
        peer: Optional[int] = None,
        label: Optional[str] = None,
    ) -> None:
        ev = TraceEvent(rank, op, t0, t1, int(nbytes), peer, label)
        with self._lock:
            self._events.setdefault(rank, []).append(ev)

    def reset(self) -> None:
        with self._lock:
            self._events = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """All events, ordered by rank then recording order."""
        with self._lock:
            return [ev for r in sorted(self._events) for ev in self._events[r]]

    def per_rank(self, rank: int) -> List[TraceEvent]:
        with self._lock:
            return list(self._events.get(rank, []))

    def total_bytes(self) -> int:
        """Bytes transmitted (successful sends + dropped attempts)."""
        return sum(ev.nbytes for ev in self.events if ev.op in _WIRE_OPS)

    def max_clock(self) -> float:
        """Largest simulated timestamp observed (0.0 for an empty trace)."""
        evs = self.events
        return max((ev.t1 for ev in evs), default=0.0)

    def summary(self) -> Dict[str, Any]:
        """Per-rank and aggregate statistics of the recorded trace."""
        ranks: Dict[int, Dict[str, Any]] = {}
        for ev in self.events:
            s = ranks.setdefault(
                ev.rank,
                {"events": 0, "sends": 0, "recvs": 0, "drops": 0,
                 "bytes_sent": 0, "compute_s": 0.0, "clock": 0.0},
            )
            s["events"] += 1
            if ev.op in _WIRE_OPS:
                s["bytes_sent"] += ev.nbytes
                s["sends"] += ev.op == "send"
                s["drops"] += ev.op == "drop"
            elif ev.op == "recv":
                s["recvs"] += 1
            elif ev.op == "compute":
                s["compute_s"] += ev.duration
            s["clock"] = max(s["clock"], ev.t1)
        return {
            "ranks": ranks,
            "total_bytes": sum(s["bytes_sent"] for s in ranks.values()),
            "max_clock": max((s["clock"] for s in ranks.values()), default=0.0),
            "total_events": sum(s["events"] for s in ranks.values()),
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome/Perfetto trace: complete ("X") events, µs timestamps."""
        trace_events = []
        for ev in self.events:
            args: Dict[str, Any] = {"nbytes": ev.nbytes}
            if ev.peer is not None:
                args["peer"] = ev.peer
            if ev.label:
                args["label"] = ev.label
            trace_events.append({
                "name": ev.label or ev.op,
                "cat": "comm" if ev.op in ("send", "recv", "drop") else "local",
                "ph": "X",
                "pid": 0,
                "tid": ev.rank,
                "ts": ev.t0 * 1e6,
                "dur": ev.duration * 1e6,
                "args": args,
            })
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.comm simulated cluster"},
        }

    def save_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
