"""Failure classification for the elastic supervisor.

Turns the :class:`~repro.comm.transport.CommError` a failed
:meth:`Cluster.run` raises into a structured verdict: *which* ranks are
gone and *why* (killed vs hung vs a plain software error).  The
classifier reads only the structured attributes PR 1/this PR attached
to the error chain (``rank_errors``, ``hung_ranks``,
``CommTimeoutError.peer``, ``RankKilledError.rank``) — never the
message text.

Stragglers are deliberately *not* an error kind: a slow rank completes
its step, so it never surfaces here.  The supervisor detects stragglers
from communication-trace send rates after successful steps (see
:class:`StragglerPolicy`).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

from repro.comm.faults import RankKilledError
from repro.comm.transport import CommTimeoutError


class FailureKind(enum.Enum):
    """What took the run down."""

    KILL = "kill"          # rank(s) died to an injected/real kill
    HANG = "hang"          # rank(s) stopped making progress
    ERROR = "error"        # rank(s) raised an ordinary exception


@dataclasses.dataclass
class FailureReport:
    """Classifier verdict: the failure kind and the ranks to evict.

    ``dead_local_ranks`` are indices in the world that failed (the
    cluster that raised); the supervisor translates them to global ids
    via its :class:`~repro.elastic.membership.Membership`.
    """

    kind: FailureKind
    dead_local_ranks: List[int]
    detail: str
    exception: Optional[BaseException] = None

    def __str__(self) -> str:
        return f"{self.kind.value}: ranks {self.dead_local_ranks} ({self.detail})"


def classify_failure(exc: BaseException) -> FailureReport:
    """Classify a :meth:`Cluster.run` failure into a :class:`FailureReport`.

    Priority order mirrors evidence strength:

    1. an explicit :class:`RankKilledError` names its victim — KILL;
    2. a thread that never exited (``hung_ranks``) is hung by
       definition — HANG;
    3. ranks whose waits timed out are *victims*; the suspect is the
       peer they were waiting on, unless that peer itself timed out
       (then everyone stuck is suspect) — HANG;
    4. anything else is a plain ERROR on the ranks that raised.
    """
    # Direct (non-aggregated) originating exceptions first.
    if isinstance(exc, RankKilledError):
        rank = exc.rank if exc.rank is not None else -1
        return FailureReport(FailureKind.KILL, [rank], str(exc), exc)

    rank_errors = dict(getattr(exc, "rank_errors", {}) or {})
    hung = list(getattr(exc, "hung_ranks", []) or [])

    killed = sorted(
        e.rank if isinstance(e, RankKilledError) and e.rank is not None else r
        for r, e in rank_errors.items()
        if isinstance(e, RankKilledError)
    )
    if killed:
        return FailureReport(
            FailureKind.KILL, killed, f"killed by fault plan: {killed}", exc
        )

    if hung:
        return FailureReport(
            FailureKind.HANG, sorted(hung), f"threads never exited: {sorted(hung)}", exc
        )

    timeouts = {
        r: e for r, e in rank_errors.items() if isinstance(e, CommTimeoutError)
    }
    if timeouts:
        blocked = set(timeouts)
        suspects = sorted(
            {e.peer for e in timeouts.values() if e.peer is not None} - blocked
        )
        if suspects:
            return FailureReport(
                FailureKind.HANG,
                suspects,
                f"ranks {sorted(blocked)} timed out waiting on {suspects}",
                exc,
            )
        return FailureReport(
            FailureKind.HANG,
            sorted(blocked),
            f"ranks {sorted(blocked)} timed out with no live suspect",
            exc,
        )

    if rank_errors:
        dead = sorted(rank_errors)
        return FailureReport(
            FailureKind.ERROR,
            dead,
            "; ".join(f"rank {r}: {type(e).__name__}" for r, e in sorted(rank_errors.items())),
            exc,
        )

    # A CommError with no structured attributes (e.g. a send that gave
    # up after exhausting drop retries) — no specific rank to evict.
    kind = FailureKind.HANG if isinstance(exc, CommTimeoutError) else FailureKind.ERROR
    return FailureReport(kind, [], str(exc), exc)


@dataclasses.dataclass
class StragglerPolicy:
    """What to do about a rank that is slow but alive.

    ``wait`` (the default) is synchronous training's answer: every step
    takes as long as the slowest rank.  ``drop`` excludes a detected
    straggler from the next ``drop_steps`` reductions (its samples are
    still consumed locally, and the reduction renormalizes naturally
    over the participants), then re-admits it to probe whether the
    slowness persisted — the delayed-aggregation compromise.

    Detection compares per-rank mean send *rates* (bytes per simulated
    second) from the step's communication trace: a rank whose rate is
    ``factor``× slower than the median is flagged.  Rates need a
    nonzero-cost :class:`~repro.comm.netmodel.NetworkModel`; with a
    free network every send is instantaneous and nothing is flagged.
    """

    mode: str = "wait"            # "wait" | "drop"
    factor: float = 4.0           # slower-than-median threshold
    drop_steps: int = 5           # reductions to sit out before re-probing

    def __post_init__(self):
        if self.mode not in ("wait", "drop"):
            raise ValueError(f"unknown straggler mode {self.mode!r}")
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1")
        if self.drop_steps < 1:
            raise ValueError("drop_steps must be >= 1")

    def detect(self, send_rates: dict) -> List[int]:
        """Ranks whose mean send rate is ``factor``× below the median.

        ``send_rates`` maps rank → bytes/simulated-second (ranks with no
        sends this step are absent and never flagged).
        """
        if self.mode != "drop" or len(send_rates) < 3:
            return []
        rates = sorted(send_rates.values())
        median = rates[len(rates) // 2]
        if median <= 0:
            return []
        return sorted(
            r for r, rate in send_rates.items() if rate * self.factor < median
        )
