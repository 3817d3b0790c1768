"""In-process simulated cluster: threads + blocking queues + virtual clocks.

Each simulated rank runs a user function in its own thread and talks to
peers through a :class:`Comm` handle offering blocking ``send``/``recv``
(the SEND/RECV primitives of the paper's Algorithm 1).  Every rank
carries a virtual clock advanced by the α–β :class:`NetworkModel`; a
receive synchronizes the receiver's clock with the message's arrival
time, so ``max(clock)`` after a collective is its simulated latency.

Robustness contract (``tests/comm/test_hang_detection.py``): the only
blocking wait is a mailbox receive, and all of one :meth:`Cluster.run`'s
receives share one wall-clock deadline.  A rank blocked past the
deadline raises a diagnostic :class:`CommError` naming itself, its
blocking op, its peer, and its simulated clock; the first failure on
any rank aborts every other blocked rank promptly.  ``run`` never
returns partial results: an unjoined thread is itself a
:class:`CommError`.  Runs are generation-tagged so a stale thread left
over from a timed-out run can never touch a later run's queues.

A collective whose sends form an acyclic graph needs none of that: its
author passes ``order=`` to :meth:`Cluster.run` and the ranks run to
completion one after another on the calling thread, with the same
:class:`Comm` accounting and no waiting at all (an empty mailbox is an
immediate :class:`CommOrderError`).  Cyclic collectives — ring, RVH —
stay on threads.

Fault injection (:class:`~repro.comm.faults.FaultPlan`) and opt-in
tracing (:class:`~repro.comm.tracing.CommTracer`) hook in here; see
``docs/simulator.md``.
"""

from __future__ import annotations

import atexit
import collections
import multiprocessing
import pickle
import queue
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.faults import FaultPlan, RankKilledError
from repro.comm.netmodel import NetworkModel
from repro.comm.tracing import CommTracer

#: Wall-clock granularity at which blocked receives notice an abort.
_POLL_SECONDS = 0.02


class CommError(RuntimeError):
    """Raised when a simulated run fails (stuck ranks identified).

    Structured attributes let callers (the elastic runtime's failure
    classifier) react without string-matching the message:

    * ``rank_errors`` — maps rank → the exception that rank raised on
      its own (kills, timeouts, user errors); ranks that merely echoed
      the abort of another rank's failure are excluded.
    * ``hung_ranks`` — ranks whose threads never exited the run.
    """

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.rank_errors: Dict[int, BaseException] = {}
        self.hung_ranks: List[int] = []

    @property
    def killed_ranks(self) -> List[int]:
        """Ranks that died to an injected :class:`RankKilledError`."""
        return sorted(
            r for r, e in self.rank_errors.items() if isinstance(e, RankKilledError)
        )

    @property
    def timeout_ranks(self) -> List[int]:
        """Ranks whose blocking wait hit the run deadline."""
        return sorted(
            r for r, e in self.rank_errors.items() if isinstance(e, CommTimeoutError)
        )


class CommTimeoutError(CommError):
    """A blocking wait exceeded the run deadline (diagnostics attached).

    ``rank``/``op``/``peer`` identify the blocked wait structurally
    (``peer`` is ``None`` for a process-transport collect).
    """

    def __init__(
        self,
        message: str = "",
        rank: Optional[int] = None,
        op: Optional[str] = None,
        peer: Optional[int] = None,
    ):
        super().__init__(message)
        self.rank = rank
        self.op = op
        self.peer = peer


class CommOrderError(CommError):
    """An ordered run reached a wait that nothing earlier can satisfy.

    Raised at once — never after a deadline — by a ``recv`` whose
    mailbox is empty in :meth:`Cluster.run` with ``order=``: every rank
    that could have satisfied the wait has either already run or is
    declared to run later, so the declared order is not a topological
    order of the collective's sends.  ``rank``/``op``/``peer`` identify
    the wait.
    """

    def __init__(self, message: str, rank: int, op: str, peer: int):
        super().__init__(message)
        self.rank = rank
        self.op = op
        self.peer = peer


class _AbortError(RuntimeError):
    """Internal: this rank was unblocked because another rank failed."""


class _StaleRankError(RuntimeError):
    """Internal: a leftover thread from a previous run touched the cluster."""


class _Message:
    """Envelope carrying a payload plus its simulated arrival time."""

    __slots__ = ("payload", "arrival", "nbytes")

    def __init__(self, payload: Any, arrival: float, nbytes: int):
        self.payload = payload
        self.arrival = arrival
        self.nbytes = nbytes


class Comm:
    """Per-rank communicator handle.

    Attributes
    ----------
    rank, size:
        This rank's index and the cluster size.
    clock:
        Simulated elapsed seconds on this rank.
    bytes_sent:
        Total payload bytes this rank has transmitted (retransmissions
        of dropped messages included — the wire carried them).
    """

    def __init__(self, rank: int, size: int, cluster: "Cluster", ordered: bool = False):
        self.rank = rank
        self.size = size
        self._cluster = cluster
        self._generation = cluster._generation
        self._ordered = ordered
        self.clock: float = 0.0
        self.bytes_sent: int = 0
        self.messages_sent: int = 0

    # ------------------------------------------------------------------
    def _check_alive(self, op: str) -> None:
        """Generation guard + fault-plan kill check before any comm op."""
        cluster = self._cluster
        if self._generation != cluster._generation:
            raise _StaleRankError(
                f"rank {self.rank}: thread from run generation {self._generation} "
                f"is stale (cluster is on generation {cluster._generation})"
            )
        if cluster.faults is not None:
            cluster.faults.on_op(self.rank, op, self.clock)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, payload: np.ndarray, dst: int, nbytes: Optional[int] = None) -> None:
        """Send ``payload`` to rank ``dst`` (non-blocking, buffered).

        ``nbytes`` overrides the costed message size (used to model
        large transfers while shipping small placeholder arrays).

        Under an active :class:`FaultPlan` a transmission attempt may be
        dropped; the send then retries up to the plan's ``max_retries``
        times, charging the plan's exponential ``backoff`` simulated
        seconds before each retransmission.  FIFO order is preserved
        because the retry completes before this call returns.
        """
        if not 0 <= dst < self.size or dst == self.rank:
            raise ValueError(f"rank {self.rank}: invalid destination {dst}")
        self._check_alive("send")
        size_bytes = int(nbytes) if nbytes is not None else int(np.asarray(payload).nbytes)
        cluster = self._cluster
        net = cluster.network
        # Two-level networks price each (src, dst) pair by link class
        # (intra- vs inter-node); single-level models cost all pairs
        # identically through send_cost.
        pair_cost = getattr(net, "pair_send_cost", None)
        plan = cluster.faults
        factor = plan.delay_factor(self.rank) if plan is not None else 1.0
        max_retries = plan.max_retries if plan is not None else 0
        retry_backoff = plan.backoff if plan is not None else 0.0
        attempt = 0
        while True:
            attempt += 1
            t0 = self.clock
            if pair_cost is not None:
                self.clock += pair_cost(size_bytes, self.rank, dst) * factor
            else:
                self.clock += net.send_cost(size_bytes) * factor
            self.bytes_sent += size_bytes
            self.messages_sent += 1
            if plan is None or not plan.consume_drop(self.rank, dst):
                break
            # This attempt was lost in transit.
            cluster._trace(self.rank, "drop", t0, self.clock, size_bytes, peer=dst)
            if attempt > max_retries:
                raise CommError(
                    f"rank {self.rank}: message to rank {dst} ({size_bytes} bytes) "
                    f"dropped; gave up after {attempt} attempt(s) "
                    f"(retries={max_retries}) at simulated t={self.clock:.6g}"
                )
            self.clock += retry_backoff * (2 ** (attempt - 1))
        cluster._deliver(
            self, dst, _Message(payload, arrival=self.clock, nbytes=size_bytes)
        )
        cluster._trace(self.rank, "send", t0, self.clock, size_bytes, peer=dst)

    def recv(self, src: int) -> np.ndarray:
        """Blocking receive from rank ``src``; advances the clock.

        Blocks at most until the run deadline; a timeout raises a
        :class:`CommTimeoutError` naming this rank, the expected source,
        this rank's simulated clock, and every other blocked rank.  In
        an ordered run nothing blocks: a message not already delivered
        raises :class:`CommOrderError` at once.
        """
        if not 0 <= src < self.size or src == self.rank:
            raise ValueError(f"rank {self.rank}: invalid source {src}")
        self._check_alive("recv")
        t0 = self.clock
        msg = self._cluster._wait_recv(self, src)
        self.clock = max(self.clock, msg.arrival)
        self._cluster._trace(self.rank, "recv", t0, self.clock, msg.nbytes, peer=src)
        return msg.payload

    def sendrecv(
        self, payload: np.ndarray, peer: int, nbytes: Optional[int] = None
    ) -> np.ndarray:
        """Exchange with ``peer`` (send then receive)."""
        self.send(payload, peer, nbytes=nbytes)
        return self.recv(peer)

    # ------------------------------------------------------------------
    # Local cost accounting
    # ------------------------------------------------------------------
    def compute(self, nbytes: int, label: Optional[str] = None) -> None:
        """Charge local reduction arithmetic over ``nbytes`` to the clock.

        ``label`` names the arithmetic phase in traces (e.g.
        ``"dot-products"``); it has no effect on the cost model.
        """
        t0 = self.clock
        self.clock += self._cluster.network.reduce_cost(int(nbytes))
        self._cluster._trace(self.rank, "compute", t0, self.clock, int(nbytes),
                             label=label)

    def advance(self, seconds: float) -> None:
        """Advance the clock by an externally-modeled cost (e.g. compute)."""
        t0 = self.clock
        self.clock += seconds
        self._cluster._trace(self.rank, "advance", t0, self.clock)


class GroupComm:
    """A sub-communicator view over a subset of ranks.

    Presents the :class:`Comm` interface with ``rank``/``size`` local to
    ``group`` (a sorted list of global ranks), translating peers to
    global ranks underneath.  This is what lets single-level collectives
    (ring, RVH, AdasumRVH) run unmodified inside the cross-node stage of
    a hierarchical allreduce — including the cost counters the
    benchmarks read.
    """

    def __init__(self, base: Comm, group, presorted: bool = False):
        # ``presorted``: the caller sorted one list for all its ranks.
        if not presorted:
            group = sorted(group)
        if base.rank not in group:
            raise ValueError(f"rank {base.rank} not in group {group}")
        self._base = base
        self._group = group
        self.rank = group.index(base.rank)
        self.size = len(group)

    @property
    def clock(self) -> float:
        return self._base.clock

    @property
    def bytes_sent(self) -> int:
        return self._base.bytes_sent

    @property
    def messages_sent(self) -> int:
        return self._base.messages_sent

    def send(self, payload, dst: int, nbytes=None) -> None:
        self._base.send(payload, self._group[dst], nbytes=nbytes)

    def recv(self, src: int):
        return self._base.recv(self._group[src])

    def sendrecv(self, payload, peer: int, nbytes=None):
        self.send(payload, peer, nbytes=nbytes)
        return self.recv(peer)

    def compute(self, nbytes: int, label: Optional[str] = None) -> None:
        self._base.compute(nbytes, label=label)

    def advance(self, seconds: float) -> None:
        self._base.advance(seconds)


class Cluster:
    """A simulated cluster of ``size`` ranks.

    Parameters
    ----------
    size:
        Number of ranks.
    network:
        α–β model used to cost every message; defaults to zero-cost
        (pure functional execution).
    timeout:
        Wall-clock budget (seconds) shared by *all* blocking waits of
        one :meth:`run` — the hang-detection deadline.
    faults:
        Optional :class:`FaultPlan` injecting delays, drops, and kills.
    trace:
        When true, attach a :class:`CommTracer` recording every op.
    """

    def __init__(
        self,
        size: int,
        network: Optional[NetworkModel] = None,
        timeout: float = 60.0,
        faults: Optional[FaultPlan] = None,
        trace: bool = False,
    ):
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        self.size = size
        self.network = network or NetworkModel(alpha=0.0, beta=0.0, gamma=0.0, name="free")
        self.timeout = timeout
        self.faults = faults
        self.tracer: Optional[CommTracer] = CommTracer() if trace else None
        self._generation = 0
        self._queues: Dict[Tuple[int, int], queue.Queue] = {}
        self._queues_lock = threading.Lock()
        # Ordered runs are single-threaded: plain deques stand in for
        # the blocking queues.
        self._inbox: Dict[Tuple[int, int], collections.deque] = (
            collections.defaultdict(collections.deque)
        )
        self._state_lock = threading.Lock()
        self._blocked: Dict[int, Tuple[str, int, float]] = {}
        self._abort = threading.Event()
        self._abort_reason: Optional[Tuple[int, BaseException]] = None
        self._deadline = time.monotonic() + timeout
        self.comms: List[Comm] = []

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace(self, rank, op, t0, t1, nbytes=0, peer=None, label=None) -> None:
        if self.tracer is not None:
            self.tracer.record(rank, op, t0, t1, nbytes, peer=peer, label=label)

    # ------------------------------------------------------------------
    # Mailboxes (always under the queues lock — a stale daemon thread
    # from a timed-out run must never race a new run's reset)
    # ------------------------------------------------------------------
    def _mailbox(self, src: int, dst: int) -> queue.Queue:
        with self._queues_lock:
            return self._queues.setdefault((src, dst), queue.Queue())

    def _deliver(self, comm: Comm, dst: int, msg: _Message) -> None:
        if comm._generation != self._generation:
            raise _StaleRankError(
                f"rank {comm.rank}: stale send from generation "
                f"{comm._generation} discarded"
            )
        if comm._ordered:
            self._inbox[comm.rank, dst].append(msg)
        else:
            self._mailbox(comm.rank, dst).put(msg)

    # ------------------------------------------------------------------
    # Blocked-rank bookkeeping (hang diagnostics)
    # ------------------------------------------------------------------
    def _set_blocked(self, rank: int, op: str, peer: int, clock: float) -> None:
        with self._state_lock:
            self._blocked[rank] = (op, peer, clock)

    def _clear_blocked(self, rank: int) -> None:
        with self._state_lock:
            self._blocked.pop(rank, None)

    def _stuck_snapshot(self) -> str:
        """Human-readable list of every currently blocked rank."""
        with self._state_lock:
            entries = sorted(self._blocked.items())
        if not entries:
            return "no ranks blocked in comm ops"
        parts = []
        for rank, (op, peer, clock) in entries:
            parts.append(
                f"rank {rank} blocked on {op}(peer={peer}) since simulated t={clock:.6g}"
            )
        return "; ".join(parts)

    def _abort_context(self, rank: int, op: str, clock: float) -> str:
        reason = self._abort_reason
        cause = (
            f"rank {reason[0]} failed: {reason[1]!r}" if reason is not None
            else "the run was aborted"
        )
        return (
            f"rank {rank}: aborted while blocked on {op} at simulated "
            f"t={clock:.6g} because {cause}"
        )

    def _trigger_abort(self, rank: int, exc: BaseException) -> None:
        """Record the first failure and wake every blocked rank."""
        with self._state_lock:
            if self._abort_reason is None:
                self._abort_reason = (rank, exc)
            self._abort.set()

    # ------------------------------------------------------------------
    # Blocking primitives (all share the run deadline)
    # ------------------------------------------------------------------
    def _ordered_recv_failed(self, comm: Comm, src: int) -> Exception:
        """The error for a receive an ordered run cannot satisfy.

        After an earlier rank's failure the empty mailbox is that
        failure's echo (exactly what the abort wake-up is to a blocked
        thread); with no failure on record the declared order itself is
        wrong.
        """
        where = f"recv(src={src})"
        if self._abort_reason is not None:
            return _AbortError(self._abort_context(comm.rank, where, comm.clock))
        return CommOrderError(
            f"rank {comm.rank}: {where} cannot complete in an ordered run at "
            f"simulated t={comm.clock:.6g}: rank {src} has sent nothing and "
            f"every rank declared before rank {comm.rank} already ran — the "
            f"order is not a topological order of the sends",
            rank=comm.rank, op="recv", peer=src,
        )

    def _wait_recv(self, comm: Comm, src: int) -> _Message:
        if comm._ordered:
            box = self._inbox.get((src, comm.rank))
            if box:
                return box.popleft()
            raise self._ordered_recv_failed(comm, src)
        q = self._mailbox(src, comm.rank)
        op = f"recv(src={src})"
        self._set_blocked(comm.rank, "recv", src, comm.clock)
        try:
            while True:
                if comm._generation != self._generation:
                    raise _StaleRankError(
                        f"rank {comm.rank}: stale {op} from generation "
                        f"{comm._generation} abandoned"
                    )
                if self._abort.is_set():
                    raise _AbortError(self._abort_context(comm.rank, op, comm.clock))
                remaining = self._deadline - time.monotonic()
                if remaining <= 0:
                    raise CommTimeoutError(
                        f"rank {comm.rank}: recv from rank {src} timed out after "
                        f"{self.timeout:.3g}s wall clock (simulated "
                        f"t={comm.clock:.6g}); {self._stuck_snapshot()}",
                        rank=comm.rank, op="recv", peer=src,
                    )
                try:
                    return q.get(timeout=min(_POLL_SECONDS, remaining))
                except queue.Empty:
                    continue
        finally:
            self._clear_blocked(comm.rank)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        rank_args: Optional[Sequence[tuple]] = None,
        order: Optional[Sequence[int]] = None,
    ) -> List[Any]:
        """Run ``fn(comm, *args)`` on every rank; return per-rank results.

        ``rank_args[r]`` supplies extra positional arguments for rank
        ``r``.  Any failure — a rank exception, an injected kill, a
        blocking wait past the deadline, or a thread that never exits —
        raises :class:`CommError` identifying every affected rank.
        Partial results are never returned.

        ``order`` (a permutation of the ranks) replaces the rank threads
        with an ordered replay on the calling thread; it is for the
        collective's author to declare, and only for a collective whose
        sends form an acyclic graph that ``order`` sorts topologically
        (see :meth:`_run_ordered` and ``docs/simulator.md``).
        """
        if rank_args is None:
            rank_args = [()] * self.size
        if len(rank_args) != self.size:
            raise ValueError(f"need {self.size} argument tuples, got {len(rank_args)}")

        # New generation: stale threads from a previous (timed-out) run
        # see the bump and abandon; their queue references are to the
        # old objects replaced below.
        self._generation += 1
        generation = self._generation
        if self.faults is not None:
            self.faults.reset()
        if order is not None:
            return self._run_ordered(fn, rank_args, order)
        with self._queues_lock:
            self._queues = {}
        with self._state_lock:
            self._blocked = {}
            self._abort = threading.Event()
            self._abort_reason = None
        self._deadline = time.monotonic() + self.timeout

        results: List[Any] = [None] * self.size
        errors: List[Tuple[int, BaseException]] = []
        self.comms = [Comm(r, self.size, self) for r in range(self.size)]

        def runner(rank: int) -> None:
            try:
                results[rank] = fn(self.comms[rank], *rank_args[rank])
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors.append((rank, exc))
                if generation == self._generation:
                    self._trigger_abort(rank, exc)

        if self.size == 1:
            runner(0)
        else:
            threads = [
                threading.Thread(target=runner, args=(r,), daemon=True, name=f"rank-{r}")
                for r in range(self.size)
            ]
            for t in threads:
                t.start()
            # Blocked ranks give up at the deadline on their own; the
            # grace period only covers unwinding, so a thread still
            # alive afterwards is hung outside the comm layer.
            grace = max(0.5, 0.1 * self.timeout)
            join_by = self._deadline + grace
            for t in threads:
                t.join(timeout=max(0.0, join_by - time.monotonic()))
            alive = [t for t in threads if t.is_alive()]
            if alive:
                hung = sorted(int(t.name.split("-", 1)[1]) for t in alive)
                self._trigger_abort(hung[0], CommTimeoutError("rank never exited"))
                msg = (
                    f"Cluster.run: rank(s) {hung} never exited within "
                    f"{self.timeout + grace:.3g}s ({self._stuck_snapshot()}; "
                    f"ranks hung outside comm ops cannot be interrupted); "
                    f"partial results discarded"
                )
                if errors:
                    agg = self._aggregate_error(errors)
                    msg += "; " + str(agg)
                    hung_err = CommError(msg)
                    hung_err.rank_errors = dict(agg.rank_errors)
                    hung_err.__cause__ = agg.__cause__
                else:
                    hung_err = CommError(msg)
                hung_err.hung_ranks = list(hung)
                raise hung_err
        if errors:
            raise self._aggregate_error(errors)
        return results

    def _run_ordered(
        self, fn: Callable[..., Any], rank_args: Sequence[tuple], order: Sequence[int]
    ) -> List[Any]:
        """Run the ranks to completion one after another, in ``order``.

        Sends are buffered, so a rank that only receives from ranks
        declared before it never has to wait: each ``recv`` takes its
        message straight from the mailbox, and an empty mailbox is an
        immediate error (:meth:`_ordered_recv_failed`), never a wait for
        the deadline.  Clocks, byte counters, fault-plan op counters and
        tracer records are per-rank state advanced by the same
        :class:`Comm` code as under threads, so results, ``max_clock()``,
        ``total_bytes()`` and each rank's trace sequence are those of
        the threaded run.

        Every rank runs even after one fails — a rank downstream of the
        failure stops at its first empty mailbox — so two kills due in
        one run are both reported, and the report does not depend on
        thread scheduling.  ``timeout`` does not apply: nothing waits.
        """
        if sorted(order) != list(range(self.size)):
            raise ValueError(
                f"order must be a permutation of range({self.size}), got {list(order)}"
            )
        self._inbox.clear()
        self._abort_reason = None
        results: List[Any] = [None] * self.size
        errors: List[Tuple[int, BaseException]] = []
        self.comms = [Comm(r, self.size, self, ordered=True) for r in range(self.size)]
        for rank in order:
            try:
                results[rank] = fn(self.comms[rank], *rank_args[rank])
            except Exception as exc:  # noqa: BLE001 - reported to caller
                errors.append((rank, exc))
                if self._abort_reason is None:
                    self._abort_reason = (rank, exc)
        if errors:
            try:
                raise self._aggregate_error(errors)
            finally:
                # Each exception's traceback holds this frame; drop the
                # frame's references back to them so a handled failure
                # (and the arena rows its frames pin) is freed with its
                # last reference, not by some later cyclic GC.
                errors.clear()
                self._abort_reason = None
        return results

    def _aggregate_error(self, errors: List[Tuple[int, BaseException]]) -> CommError:
        """One CommError naming every failed/stuck rank, worst first."""
        errors = sorted(errors, key=lambda e: e[0])
        primary = [(r, e) for r, e in errors
                   if not isinstance(e, (_AbortError, _StaleRankError))]
        lines = []
        for rank, exc in errors:
            if isinstance(exc, (CommError, RankKilledError, _AbortError, _StaleRankError)):
                lines.append(str(exc))  # already self-describing, names the rank
            else:
                lines.append(f"rank {rank} failed: {exc!r}")
        err = CommError("; ".join(lines))
        err.rank_errors = {r: e for r, e in primary}
        cause = (primary[0][1] if primary else errors[0][1])
        err.__cause__ = cause.__cause__ if isinstance(cause, CommError) and cause.__cause__ else cause
        return err

    # ------------------------------------------------------------------
    def max_clock(self) -> float:
        """Simulated latency of the last :meth:`run` (max over ranks)."""
        return max(c.clock for c in self.comms)

    def total_bytes(self) -> int:
        """Total bytes moved during the last :meth:`run`."""
        return sum(c.bytes_sent for c in self.comms)


# ======================================================================
# Process-per-rank transport (the non-simulated backend)
# ======================================================================

def default_start_method() -> str:
    """Preferred ``multiprocessing`` start method for rank workers.

    ``fork`` when the platform offers it (workers inherit the imported
    interpreter — startup in milliseconds, and
    :func:`repro.tensor.reset_process_state` runs in every child so no
    stale kernel cache survives the fork); ``spawn`` otherwise.  The
    bootstrap path is spawn-safe by construction — everything a worker
    needs is picklable — so callers may force ``spawn`` for bit-for-bit
    parity with platforms that have nothing else.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _describe_exception(exc: BaseException) -> Tuple[str, str, str]:
    return (type(exc).__name__, str(exc), traceback.format_exc())


def _transport_worker_main(rank: int, conn, bootstrap, spec) -> None:
    """Entry point of one rank worker (top-level: spawn-picklable).

    Bootstrap order matters: per-process kernel/allocator state is reset
    *before* user code runs, so neither a forked copy of the parent's
    GEMM verdict cache nor an untuned spawned heap leaks into gradient
    computation (see :func:`repro.tensor.reset_process_state`), and the
    worker pins its own BLAS pool to one thread
    (:func:`repro.tensor.pin_blas_threads`).
    """
    from repro.tensor import pin_blas_threads, reset_process_state, tune_allocator

    reset_process_state()
    tune_allocator()
    pin_blas_threads()
    handler = None
    try:
        handler = bootstrap(rank, spec)
        conn.send_bytes(pickle.dumps(("ready", rank)))
        while True:
            msg = pickle.loads(conn.recv_bytes())
            if msg[0] == "__shutdown__":
                break
            try:
                reply = ("ok", handler(msg))
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                reply = ("error", _describe_exception(exc))
            conn.send_bytes(pickle.dumps(reply))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    except BaseException as exc:  # bootstrap failed: report once
        try:
            conn.send_bytes(pickle.dumps(("error", _describe_exception(exc))))
        except OSError:
            pass
    finally:
        if handler is not None and hasattr(handler, "close"):
            try:
                handler.close()
            except Exception:
                pass
        conn.close()


class ProcessTransport:
    """Process-per-rank execution: pipe control plane, shared-memory data plane.

    Each rank is a real OS process started via ``fork``/``spawn``.  The
    parent exchanges only *small control messages* (step indices, loss
    scalars, shutdown) over per-rank duplex pipes; gradient payloads
    never cross a pipe — both sides map the same
    :class:`~repro.core.arena.SharedGradientArena` segments, which is
    the zero-copy data plane.

    The contract mirrors :class:`Cluster`: every blocking collect shares
    one wall-clock deadline per round, a timeout raises a diagnostic
    :class:`CommTimeoutError` naming the blocked rank and every other
    outstanding one, a dead worker raises :class:`CommError` with
    structured ``rank_errors``, and an attached :class:`FaultPlan`'s
    kills terminate the real worker process (the elastic supervisor
    classifies, evicts, and respawns exactly as it does for simulated
    ranks).  Control-plane bytes are counted exactly (pickled frame
    sizes) and reported to an optional :class:`CommTracer` on a
    wall-clock timeline.

    Parameters
    ----------
    num_ranks:
        Worker count (one process per rank).
    bootstrap:
        Picklable ``f(rank, spec) -> handler``; runs once inside the
        worker after :func:`repro.tensor.reset_process_state`.  The
        returned ``handler(msg)`` serves each control message; if it has
        a ``close()`` it is called at shutdown.
    spec:
        Picklable bootstrap argument (model bytes, segment names, ...).
    timeout:
        Wall-clock deadline shared by each round of collects — the
        hang-detection budget, as in :class:`Cluster`.
    faults:
        Optional :class:`FaultPlan`; ``kill_rank`` schedules terminate
        the worker's OS process at dispatch time.  (Delays and drops
        model *simulated* wires and do not apply to a real transport.)
    tracer:
        Optional :class:`CommTracer` recording control-plane traffic.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default
        :func:`default_start_method`.
    """

    def __init__(
        self,
        num_ranks: int,
        bootstrap: Callable,
        spec: Any,
        timeout: float = 60.0,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[CommTracer] = None,
        start_method: Optional[str] = None,
    ):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.timeout = timeout
        self.faults = faults
        if faults is not None:
            faults.reset()
        self.tracer = tracer
        self.start_method = start_method or default_start_method()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self._ops_dispatched: Dict[int, int] = {r: 0 for r in range(num_ranks)}
        self._closed = False
        ctx = multiprocessing.get_context(self.start_method)
        self._procs: List = []
        self._conns: List = []
        for rank in range(num_ranks):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_transport_worker_main,
                args=(rank, child_conn, bootstrap, spec),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._atexit = self.shutdown
        atexit.register(self._atexit)
        # Ready handshake under the deadline: a worker that fails to
        # bootstrap (or import) is reported before the first step.
        deadline = time.monotonic() + timeout
        for rank in range(num_ranks):
            reply = self._collect_one(rank, deadline, op="bootstrap")
            if reply != ("ready", rank):
                self.shutdown()
                raise CommError(
                    f"rank {rank}: unexpected bootstrap reply {reply!r}"
                )

    # ------------------------------------------------------------------
    def _trace(self, rank, op, t0, t1, nbytes) -> None:
        if self.tracer is not None:
            self.tracer.record(rank, op, t0, t1, nbytes, peer=rank)

    def _send(self, rank: int, msg: Any) -> None:
        frame = pickle.dumps(msg)
        t0 = time.perf_counter()
        try:
            self._conns[rank].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead_worker_error(rank, exc)
        self.bytes_sent += len(frame)
        self.messages_sent += 1
        self._trace(rank, "send", t0, time.perf_counter(), len(frame))

    def _dead_worker_error(self, rank: int, cause: BaseException) -> CommError:
        code = self._procs[rank].exitcode
        err = CommError(
            f"rank {rank}: worker process died (exitcode={code}) — {cause!r}"
        )
        err.rank_errors = {rank: cause}
        err.__cause__ = cause
        return err

    def _collect_one(self, rank: int, deadline: float, op: str = "step") -> Any:
        conn = self._conns[rank]
        t0 = time.perf_counter()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommTimeoutError(
                    f"rank {rank}: {op} reply timed out after "
                    f"{self.timeout:.3g}s wall clock; worker "
                    f"{'alive' if self._procs[rank].is_alive() else 'dead'}",
                    rank=rank, op=op, peer=None,
                )
            try:
                if conn.poll(min(_POLL_SECONDS, remaining)):
                    frame = conn.recv_bytes()
                    break
            except (EOFError, OSError) as exc:
                raise self._dead_worker_error(rank, exc)
            if not self._procs[rank].is_alive():
                raise self._dead_worker_error(
                    rank, RuntimeError("worker exited without replying")
                )
        self.bytes_received += len(frame)
        self._trace(rank, "recv", t0, time.perf_counter(), len(frame))
        reply = pickle.loads(frame)
        if reply[0] == "error":
            type_name, message, tb = reply[1]
            remote = RuntimeError(f"{type_name}: {message}")
            if type_name == "RankKilledError":
                remote = RankKilledError(message, rank=rank)
            err = CommError(
                f"rank {rank} failed in worker: {type_name}: {message}\n{tb}"
            )
            err.rank_errors = {rank: remote}
            raise err
        return reply[1] if reply[0] == "ok" else reply

    def _kill_worker(self, rank: int) -> None:
        proc = self._procs[rank]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)

    # ------------------------------------------------------------------
    def call(
        self,
        payloads: Sequence[Any],
        ranks: Optional[Sequence[int]] = None,
        op: str = "step",
        consult: Optional[Sequence[int]] = None,
    ) -> List[Any]:
        """One parallel round: dispatch ``payloads[i]`` to ``ranks[i]``,
        collect every reply in rank order under a shared deadline.

        An attached fault plan is consulted per dispatch: a due kill
        terminates that worker's OS process first, so the round fails
        exactly the way a real dead rank would — the collect raises
        :class:`CommError` with structured ``rank_errors``.

        ``op`` labels the round for fault accounting and error messages
        (the worker-parallel reduce uses ``"combine"``); the fault
        plan's per-rank op counter advances regardless of the label, so
        a kill scheduled ``after_ops=k`` lands on a rank's ``k``-th
        round whether that round is a compute step or a combine level.
        ``consult`` lists additional participant ranks that receive no
        payload this round (e.g. the passive source side of an in-place
        pair combine) but still advance their fault counters — a due
        kill there also terminates the worker and fails the round, so
        "rank died while its peer read its row" surfaces as the same
        structured error as any other dead rank.
        """
        if self._closed:
            raise CommError("ProcessTransport is shut down")
        ranks = list(range(len(payloads))) if ranks is None else list(ranks)
        if len(ranks) != len(payloads):
            raise ValueError(f"{len(payloads)} payloads for {len(ranks)} ranks")
        killed: Dict[int, BaseException] = {}
        targets = set(ranks)
        for rank in consult or ():
            if rank in targets or self.faults is None:
                continue
            self._ops_dispatched[rank] += 1
            try:
                self.faults.on_op(rank, op, 0.0)
            except RankKilledError as exc:
                exc.rank = rank
                self._kill_worker(rank)
                killed[rank] = exc
        for rank, payload in zip(ranks, payloads):
            if self.faults is not None:
                self._ops_dispatched[rank] += 1
                try:
                    self.faults.on_op(rank, op, 0.0)
                except RankKilledError as exc:
                    exc.rank = rank
                    self._kill_worker(rank)
                    killed[rank] = exc
                    continue
            self._send(rank, payload)
        deadline = time.monotonic() + self.timeout
        results: List[Any] = []
        errors: Dict[int, BaseException] = dict(killed)
        for rank in ranks:
            if rank in killed:
                results.append(None)
                continue
            try:
                results.append(self._collect_one(rank, deadline, op=op))
            except CommError as exc:
                errors.update(exc.rank_errors or {rank: exc})
                results.append(None)
        if errors:
            parts = [f"rank {r}: {e!r}" for r, e in sorted(errors.items())]
            err = CommError("; ".join(parts))
            err.rank_errors = errors
            raise err
        return results

    def alive_ranks(self) -> List[int]:
        return [r for r, p in enumerate(self._procs) if p.is_alive()]

    # ------------------------------------------------------------------
    def shutdown(self, grace: float = 5.0) -> None:
        """Stop every worker (idempotent): polite shutdown, then terminate.

        Registered with ``atexit`` so an abandoned transport can never
        strand worker processes (which would in turn strand their
        shared-memory attachments).
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit)
        for rank, conn in enumerate(self._conns):
            try:
                conn.send_bytes(pickle.dumps(("__shutdown__",)))
            except (BrokenPipeError, OSError):
                pass
        join_by = time.monotonic() + grace
        for proc in self._procs:
            proc.join(timeout=max(0.0, join_by - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcessTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.shutdown()
        except Exception:
            pass
