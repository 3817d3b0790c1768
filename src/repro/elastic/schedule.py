"""Step-indexed fault schedules for elastic runs.

A :class:`~repro.comm.faults.FaultPlan` speaks *local* ranks and lives
for one :meth:`Cluster.run`; an elastic run spans many worlds whose
local numbering shifts every time membership changes.  The
:class:`ElasticSchedule` is the stable layer above: faults are keyed by
training step and *global* rank id, and :meth:`plan_for` translates the
faults due at a step into a fresh ``FaultPlan`` for whatever world
exists then (dead or evicted ranks are silently skipped).

Kills and drops are one-shot: after the step that triggered them is
attempted, :meth:`consume` retires them so the post-recovery retry of
the same step does not re-fire the same fault forever.  Delays persist
over a step interval (that is what makes a straggler).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.comm.faults import FaultPlan

from repro.elastic.membership import Membership


class ElasticSchedule:
    """A deterministic, step-indexed schedule of faults for one run."""

    def __init__(self, max_retries: int = 0, backoff: float = 0.0):
        self.max_retries = max_retries
        self.backoff = backoff
        self._kills: Dict[int, List[Tuple[int, int]]] = {}   # step -> [(g, after_ops)]
        self._drops: Dict[int, List[Tuple[int, int, int]]] = {}  # step -> [(src_g, dst_g, n)]
        self._delays: List[Tuple[int, float, int, Optional[int]]] = []  # (g, factor, from, until)

    # ------------------------------------------------------------------
    # Construction (chainable)
    # ------------------------------------------------------------------
    def kill(self, step: int, global_rank: int, after_ops: int = 0) -> "ElasticSchedule":
        """Kill ``global_rank`` during the reduction of ``step``."""
        self._kills.setdefault(step, []).append((global_rank, after_ops))
        return self

    def drop(self, step: int, src: int, dst: int, count: int = 1) -> "ElasticSchedule":
        """Lose ``count`` messages on global link (src, dst) at ``step``."""
        self._drops.setdefault(step, []).append((src, dst, count))
        return self

    def delay(
        self,
        global_rank: int,
        factor: float,
        from_step: int = 0,
        until_step: Optional[int] = None,
    ) -> "ElasticSchedule":
        """Multiply ``global_rank``'s send costs on steps
        ``[from_step, until_step)`` (open-ended when ``until_step`` is
        None) — a straggler."""
        if factor <= 0:
            raise ValueError("delay factor must be > 0")
        self._delays.append((global_rank, float(factor), from_step, until_step))
        return self

    # ------------------------------------------------------------------
    # Supervisor hooks
    # ------------------------------------------------------------------
    def plan_for(self, step: int, membership: Membership) -> Optional[FaultPlan]:
        """The ``FaultPlan`` (local ranks) for ``step``, or None if clean."""
        plan = FaultPlan(max_retries=self.max_retries, backoff=self.backoff)
        dirty = False
        for g, after_ops in self._kills.get(step, []):
            if g in membership:
                plan.kill_rank(membership.local_of(g), after_ops=after_ops)
                dirty = True
        for src, dst, count in self._drops.get(step, []):
            if src in membership and dst in membership:
                plan.drop_messages(
                    membership.local_of(src), membership.local_of(dst), count=count
                )
                dirty = True
        for g, factor, lo, hi in self._delays:
            if g in membership and lo <= step and (hi is None or step < hi):
                plan.delay_rank(membership.local_of(g), factor)
                dirty = True
        return plan if dirty else None

    def consume(self, step: int) -> None:
        """Retire the one-shot faults of ``step`` after its attempt."""
        self._kills.pop(step, None)
        self._drops.pop(step, None)
