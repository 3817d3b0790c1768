"""Rank-pool accounting for the multi-tenant control plane.

The :class:`RankLedger` is the single source of truth for which job
holds which pool rank.  Pool ranks are physical slots ``0..pool_size-1``
— distinct from a trainer's internal global ids, which are logical and
job-local.  The ledger only ever *moves* ranks (free ↔ held, held →
held via a loan); :meth:`check` asserts the conservation invariant
after every scheduler mutation.

A :class:`Loan` records a preemption transfer: ``count`` ranks move
from a victim (the *lender*) to a high-priority arrival (the
*borrower*).  Loans settle when the borrower finishes — back to the
lender if it is still alive, otherwise to the free pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Loan:
    """One rank transfer from a preempted lender to a borrower.

    ``mode`` records how the lender freed the ranks: ``"shrink"`` (it
    kept running at reduced width through ``ElasticTrainer.lend_ranks``)
    or ``"pause"`` (it suspended entirely and the ranks came out of its
    idle reserve).  ``returned_to`` is filled at settlement.
    """

    loan_id: int
    lender: str
    borrower: str
    ranks: Tuple[int, ...]
    mode: str
    t_start: float
    t_end: Optional[float] = None
    returned_to: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.t_end is None


class RankLedger:
    """Tracks ownership of every pool rank: free, or held by one job."""

    def __init__(self, pool_size: int):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._free: List[int] = list(range(pool_size))
        self._held: Dict[str, List[int]] = {}
        self.loans: List[Loan] = []
        self._next_loan_id = 0

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._free)

    def held(self, job: str) -> List[int]:
        return sorted(self._held.get(job, []))

    # ------------------------------------------------------------------
    def allocate(self, job: str, count: int) -> List[int]:
        """Move ``count`` free ranks (lowest ids first) to ``job``."""
        if count < 1:
            raise ValueError("must allocate at least one rank")
        if count > len(self._free):
            raise ValueError(
                f"cannot allocate {count} ranks; only {len(self._free)} free"
            )
        self._free.sort()
        ranks, self._free = self._free[:count], self._free[count:]
        self._held.setdefault(job, []).extend(ranks)
        self._held[job].sort()
        return ranks

    def release_all(self, job: str) -> List[int]:
        """Return every rank ``job`` holds to the free pool.

        Ranks the job *lent out* are not here — they sit in borrowers'
        holdings until their loans settle.
        """
        ranks = self._held.pop(job, [])
        self._free.extend(ranks)
        self._free.sort()
        return sorted(ranks)

    # ------------------------------------------------------------------
    def lend(
        self, lender: str, borrower: str, count: int, mode: str, t: float
    ) -> Loan:
        """Transfer ``count`` of the lender's ranks to the borrower."""
        if mode not in ("shrink", "pause"):
            raise ValueError(f"unknown loan mode {mode!r}")
        held = self._held.get(lender, [])
        if count < 1 or count > len(held):
            raise ValueError(
                f"{lender!r} cannot lend {count} of its {len(held)} ranks"
            )
        ranks, self._held[lender] = held[-count:], held[:-count]
        self._held.setdefault(borrower, []).extend(ranks)
        self._held[borrower].sort()
        loan = Loan(
            loan_id=self._next_loan_id,
            lender=lender,
            borrower=borrower,
            ranks=tuple(ranks),
            mode=mode,
            t_start=t,
        )
        self._next_loan_id += 1
        self.loans.append(loan)
        return loan

    def settle(self, loan: Loan, t: float, to_lender: bool) -> List[int]:
        """Close a loan: ranks leave the borrower, back to lender or pool."""
        if not loan.active:
            raise ValueError(f"loan {loan.loan_id} already settled")
        held = self._held.get(loan.borrower, [])
        missing = [r for r in loan.ranks if r not in held]
        if missing:
            raise ValueError(
                f"borrower {loan.borrower!r} no longer holds ranks {missing}"
            )
        self._held[loan.borrower] = [r for r in held if r not in loan.ranks]
        if to_lender:
            self._held.setdefault(loan.lender, []).extend(loan.ranks)
            self._held[loan.lender].sort()
            loan.returned_to = "lender"
        else:
            self._free.extend(loan.ranks)
            self._free.sort()
            loan.returned_to = "pool"
        loan.t_end = t
        return list(loan.ranks)

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Assert conservation: every pool rank exists exactly once."""
        seen = sorted(
            self._free + [r for ranks in self._held.values() for r in ranks]
        )
        if seen != list(range(self.pool_size)):
            raise RuntimeError(
                f"rank ledger corrupt: pool of {self.pool_size} but "
                f"accounted ranks are {seen}"
            )
