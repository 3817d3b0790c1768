"""The elastic training supervisor.

``ElasticTrainer`` does not implement a training step: every attempt
calls the same :func:`~repro.train.trainer.phased_step` over the same
rank executor as :class:`~repro.train.trainer.ParallelTrainer`.  What
it owns is everything *around* the step — the reduce callable (the
per-step reduction runs as a real collective on a simulated
:class:`~repro.comm.transport.Cluster`, under the step's fault plan),
the commit, snapshots, membership and rank loans — and when the
collective fails (a killed rank, a hang), it recovers instead of
aborting:

1. **classify** the failure from the structured error attributes
   (:func:`~repro.elastic.failures.classify_failure`);
2. **evict** the dead ranks from the :class:`Membership`;
3. **rewind** model, optimizer states, fp16 scaler, and data cursor to
   the in-memory last-good-step :class:`WorldSnapshot`;
4. **rebuild** the world for the new size — fresh cluster, a
   ``DistributedOptimizer`` over the config's own cell at the survivor
   count (``RunConfig.validate_for_pool`` admitted only cells that
   reduce every size the world can shrink to, such as ``tree``), a
   rank executor over a re-shaped gradient arena, and per-rank
   optimizer states re-partitioned from the snapshot by global id;
5. **retry** the interrupted step: the uncommitted cursor region is
   re-dealt over the survivors, so every sample is still visited
   exactly once per epoch.

A rebuild resets the wire codecs' error-feedback residuals to zero (a
safe state — pending error mass is dropped, never double-applied) and,
under ``execution="processes"``, tears down the worker pool and its
shared segments and respawns both at the new size.  Nothing is applied
before the step's one whole-row collective or every combine round
(``reduce_mode="workers"``, where scheduled kills bite at combine
dispatch) has succeeded, so a failed step always rolls back with the
model untouched.

Failure-free elastic runs are bit-identical to ``ParallelTrainer`` with
the same seed (same serial gradient order, same dealt batches when the
effective batch divides the dataset, and a transport collective that
reproduces the registry's tree Adasum exactly) — asserted in
``tests/elastic/test_elastic_trainer.py``.

Stragglers never raise; they are detected after successful steps by
comparing per-rank send rates from the communication trace, and a
``drop`` :class:`StragglerPolicy` excludes them from the next few
reductions (their samples still advance the data budget) before
re-probing.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.faults import RankKilledError
from repro.comm.transport import Cluster, CommError
from repro.core.config import RunConfig
from repro.core.distributed_optimizer import DistributedOptimizer
from repro.data.sampler import ElasticBatchIterator
from repro.nn.module import Module
from repro.tensor import tune_allocator
from repro.train.checkpoint import (
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.train.trainer import (
    build_rank_executor,
    check_open,
    compute_grads_into,  # unused: the benchmark's train.compute_grads boundary
    phased_step,
)

from repro.elastic.collective import cluster_reduce
from repro.elastic.failures import FailureReport, StragglerPolicy, classify_failure
from repro.elastic.membership import Membership
from repro.elastic.state import (
    WorldSnapshot,
    pack_dist_state,
    restore_dist_state,
)


class ElasticTrainer:
    """Failure-surviving data-parallel training over the simulated cluster.

    Built from a :class:`~repro.core.config.RunConfig` alone, whose
    fields are documented there; the trainer keeps ``config`` and checks
    it with ``config.validate_for_pool(config.num_ranks)``, so it runs
    the config's own cell at every world size.  The keywords are its
    own:

    straggler:
        :class:`StragglerPolicy`; default waits (pure synchronous).
    snapshot_every:
        Committed steps between in-memory snapshots (1 = every step;
        larger values trade rollback distance for snapshot cost).
    checkpoint_path / checkpoint_every:
        Optional on-disk checkpointing cadence (committed steps).
    """

    def __init__(
        self,
        model: Module,
        loss_fn: Callable,
        optimizer_factory: Callable,
        x: np.ndarray,
        y: np.ndarray,
        config: RunConfig,
        *,
        straggler: Optional[StragglerPolicy] = None,
        snapshot_every: int = 1,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
    ):
        config.validate_for_pool(config.num_ranks)
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        tune_allocator()
        self.config = config
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer_factory = optimizer_factory
        self.x, self.y = x, y
        self.straggler = straggler or StragglerPolicy()
        self.snapshot_every = snapshot_every
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.executor = None

        self.membership = Membership(config.num_ranks)
        self.iterator = ElasticBatchIterator(
            len(x), config.microbatch, config.num_ranks, seed=config.seed,
            drop_tail=False,
        )
        self.global_step = 0
        self.commits = 0
        self.sim_time = 0.0
        self.epoch_visited: List[int] = []
        self.recoveries: List[Dict] = []
        self.recovery_seconds: List[float] = []
        self._epoch_losses: List[float] = []
        self._dropped: Dict[int, int] = {}   # global rank -> drop steps left
        self._recovering_since: Optional[float] = None
        self._snapshot: Optional[WorldSnapshot] = None
        # Rank-loan state: optimizer states of loaned-out ranks (post-
        # optimizer mode keeps per-rank Adam/SGD slots that must survive
        # the loan), and the paused flag (execution resources released).
        self._loan_stash: Dict[int, dict] = {}
        self._paused = False
        self.loan_events: List[Dict] = []

        self._build_world()
        self._take_snapshot()

    @classmethod
    def from_config(
        cls,
        model: Module,
        loss_fn: Callable,
        optimizer_factory: Callable,
        x: np.ndarray,
        y: np.ndarray,
        config: RunConfig,
        **kwargs,
    ) -> "ElasticTrainer":
        """The constructor, under the name the benchmark harness times."""
        return cls(model, loss_fn, optimizer_factory, x, y, config, **kwargs)

    # ------------------------------------------------------------------
    # World lifecycle
    # ------------------------------------------------------------------
    def _teardown_execution(self) -> None:
        """Release the current world's execution resources (idempotent).

        Under ``execution="processes"`` a world owns real OS state —
        rank worker processes and shared-memory segments — which must be
        reclaimed *before* a new world is built: an N→M rebuild respawns
        the pool at the new size over freshly-sized segments, and the
        old segments must not survive as ``/dev/shm`` leaks.

        The rank workers also hold the live per-rank optimizer slots and
        error-feedback residual rows.  A healthy pool copies them back
        into ``dist_opt`` on its way out (``executor.close()``), which
        is what :meth:`pause` and :meth:`close` rely on; a pool whose
        step failed does not — the rollback restores the snapshot onto a
        fresh optimizer, and the next pool is built from that.  The
        optimizer's arena-bound buffers go too: its Figure-3 mirror
        holds the arena's rows, so a paused world would keep the arena.
        """
        if self.executor is not None:
            executor, self.executor = self.executor, None
            executor.close()
            self.dist_opt.release_arena()

    def _build_world(self, state: Optional[Dict] = None) -> None:
        """(Re)build cluster, optimizer, and executor for the current
        membership; ``state`` (a :func:`pack_dist_state` copy) is loaded
        onto the new optimizer, re-partitioned by global id."""
        self._teardown_execution()
        size = self.membership.size
        # Only the drop policy's straggler detector reads the trace.
        self.cluster = Cluster(
            size, network=self.config.network, timeout=self.config.timeout,
            trace=self.straggler.mode == "drop",
        )
        self.dist_opt = DistributedOptimizer(
            self.model, self.optimizer_factory, self.config, num_ranks=size
        )
        if state is not None:
            self._loan_stash = restore_dist_state(
                self.dist_opt, self.membership, state
            )
        self._build_execution()
        self.iterator.reshard(size)
        self._paused = False

    def _build_execution(self) -> None:
        """(Re)build the rank executor at the current size.

        Split from :meth:`_build_world` so :meth:`resume` can reattach
        execution resources (worker pool, shared segments) without
        touching the optimizer or cluster — the pause/resume round trip
        is then bit-exact by construction.
        """
        self.executor = build_rank_executor(
            self.model, self.loss_fn, self.dist_opt, self.x, self.y, self.config
        )

    @property
    def arena(self):
        """The current world's gradient arena (``None`` while paused)."""
        return None if self.executor is None else self.executor.arena

    def close(self) -> None:
        """End the run: free everything it allocated (idempotent).

        Rank workers stop (a healthy pool hands its optimizer state back
        first) and every shared segment is unlinked; the executor with
        its arena, the optimizer's arena-bound buffers, the training set
        and the in-memory snapshot are dropped.  What outlives the run
        stays readable: ``model``, ``dist_opt`` with its optimizer
        state, the counters and the records (``global_step``,
        ``recoveries``, ``recovery_seconds``, ``loan_events``,
        ``epoch_visited``), and :meth:`save_checkpoint` still writes.
        A closed trainer no longer steps.  :meth:`pause` releases only
        the execution layer: it keeps the data and the snapshot
        :meth:`resume` needs.
        """
        self._teardown_execution()
        self.x = self.y = None
        self._snapshot = None

    def __enter__(self) -> "ElasticTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def num_ranks(self) -> int:
        return self.membership.size

    @property
    def effective_batch(self) -> int:
        return self.config.microbatch * self.membership.size

    def steps_per_epoch(self) -> int:
        return self.iterator.steps_per_epoch()

    @property
    def paused(self) -> bool:
        """True while execution resources are released (see :meth:`pause`)."""
        return self._paused

    # ------------------------------------------------------------------
    # Rank loans / pause-resume (the scheduler's preemption hooks)
    # ------------------------------------------------------------------
    def lend_ranks(self, count: int) -> List[int]:
        """Voluntarily shrink the world by ``count`` ranks (a rank loan).

        The scheduler's preemption primitive: at a commit boundary the
        world reshards from N to ``N - count`` through the same rebuild
        path a failure takes — the cursor-based iterator re-deals only
        the not-yet-committed samples over the smaller world, so the
        exactly-once contract holds across the loan.  Unlike a failure,
        nothing rolls back (the current step is committed) and the lent
        ranks' optimizer states are stashed so :meth:`reclaim_ranks`
        restores them bit-for-bit.  Returns the lent global ids.
        """
        check_open(self)
        if self._paused:
            raise RuntimeError("cannot lend ranks while paused")
        if count < 1:
            raise ValueError("must lend at least one rank")
        floor = self.config.min_ranks
        if self.membership.size - count < floor:
            raise ValueError(
                f"lending {count} of {self.membership.size} ranks would "
                f"shrink below min_ranks={floor}"
            )
        state = self._pack_state()
        lent = self.membership.lend(count)
        self._build_world(state)
        self._take_snapshot()
        self.loan_events.append(
            {"step": self.global_step, "kind": "lend", "ranks": lent,
             "world_size": self.membership.size}
        )
        return lent

    def reclaim_ranks(self, count: Optional[int] = None) -> List[int]:
        """Grow the world back as a loan returns (default: all loans).

        The inverse of :meth:`lend_ranks`: reclaimed ranks rejoin the
        world with the optimizer states they left with, the iterator
        re-deals the remaining epoch over the grown world, and a fresh
        snapshot is taken.  Returns the reclaimed global ids.
        """
        check_open(self)
        if self._paused:
            raise RuntimeError("cannot reclaim ranks while paused")
        if not self.membership.loaned:
            return []
        state = self._pack_state()
        returned = self.membership.reclaim(count)
        if not returned:
            return []
        self._build_world(state)
        self._take_snapshot()
        self.loan_events.append(
            {"step": self.global_step, "kind": "reclaim", "ranks": returned,
             "world_size": self.membership.size}
        )
        return returned

    def pause(self) -> None:
        """Release execution resources and refuse to step until resumed.

        The full-preemption half of a rank loan: worker processes stop
        and every shared-memory segment this world owns is unlinked, but
        model, optimizer, cluster, and data cursor stay in memory — the
        stopping workers hand their optimizer slots and residual rows
        back to ``dist_opt`` first — and :meth:`resume` rebuilds only
        the execution layer from them, so a pause/resume round trip is
        bit-identical to never pausing.  Idempotent.
        """
        if self._paused:
            return
        self._teardown_execution()
        self._paused = True
        self.loan_events.append(
            {"step": self.global_step, "kind": "pause",
             "world_size": self.membership.size}
        )

    def resume(self) -> None:
        """Rebuild the execution layer after :meth:`pause` (idempotent)."""
        check_open(self)
        if not self._paused:
            return
        self._build_execution()
        self._paused = False
        self.loan_events.append(
            {"step": self.global_step, "kind": "resume",
             "world_size": self.membership.size}
        )

    # ------------------------------------------------------------------
    # Snapshot / rollback
    # ------------------------------------------------------------------
    def _pack_state(self) -> Dict:
        """Optimizer-side state by global id, loan stash included
        (pulled from the rank workers when they hold it)."""
        return pack_dist_state(self.dist_opt, self.membership, self._loan_stash)

    def _take_snapshot(self) -> None:
        self._snapshot = WorldSnapshot(
            params={n: p.data.copy() for n, p in self.model.named_parameters()},
            buffers={n: np.array(b, copy=True) for n, b in self.model.named_buffers()},
            optimizer_state=self._pack_state(),
            iterator=self.iterator.state(),
            global_step=self.global_step,
            commits=self.commits,
            visited_len=len(self.epoch_visited),
            losses_len=len(self._epoch_losses),
            sim_time=self.sim_time,
        )

    def _rollback_and_rebuild(self) -> None:
        snap = self._snapshot
        assert snap is not None, "no snapshot to roll back to"
        params = dict(self.model.named_parameters())
        for name, arr in snap.params.items():
            np.copyto(params[name].data, arr)
        buffers = dict(self.model.named_buffers())
        for name, arr in snap.buffers.items():
            np.copyto(buffers[name], arr)
        self.model.zero_grad()
        self.iterator.restore(snap.iterator)
        self.global_step = snap.global_step
        self.commits = snap.commits
        self.sim_time = snap.sim_time
        del self.epoch_visited[snap.visited_len:]
        del self._epoch_losses[snap.losses_len:]
        self._build_world(snap.optimizer_state)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _handle_failure(self, exc: BaseException) -> FailureReport:
        report = classify_failure(exc)
        size = self.membership.size
        dead_global = sorted(
            self.membership.global_of(r)
            for r in report.dead_local_ranks
            if 0 <= r < size
        )
        if not dead_global:
            raise exc  # unclassifiable: nothing safe to evict
        if size - len(dead_global) < self.config.min_ranks:
            raise exc  # recovery would shrink below the floor
        if self._recovering_since is None:
            self._recovering_since = time.perf_counter()
        removed = self.membership.remove(dead_global)
        self._dropped = {
            g: left for g, left in self._dropped.items() if g in self.membership
        }
        self.recoveries.append(
            {
                "step": self.global_step,
                "kind": report.kind.value,
                "dead_global_ranks": removed,
                "world_size": self.membership.size,
                "detail": report.detail,
            }
        )
        self._rollback_and_rebuild()
        return report

    # ------------------------------------------------------------------
    # Straggler policy
    # ------------------------------------------------------------------
    def _participants(self, active: Sequence[int]) -> List[int]:
        """Active ranks minus currently-dropped stragglers (never empty)."""
        excluded = {
            self.membership.local_of(g)
            for g in self._dropped
            if g in self.membership
        }
        kept = [r for r in active if r not in excluded]
        return kept or list(active)

    def _update_stragglers(self) -> None:
        """Detect stragglers from the step's trace; age drop counters."""
        for g in list(self._dropped):
            self._dropped[g] -= 1
            if self._dropped[g] <= 0:
                del self._dropped[g]  # re-probe next step
        if self.straggler.mode != "drop":
            return
        rates: Dict[int, float] = {}
        for rank in range(self.membership.size):
            sends = [
                ev for ev in self.cluster.tracer.per_rank(rank) if ev.op == "send"
            ]
            secs = sum(ev.duration for ev in sends)
            nbytes = sum(ev.nbytes for ev in sends)
            if secs > 0 and nbytes > 0:
                rates[rank] = nbytes / secs
        for local in self.straggler.detect(rates):
            g = self.membership.global_of(local)
            self._dropped[g] = self.straggler.drop_steps

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_epoch(self, epoch: int, max_steps: Optional[int] = None) -> float:
        """One elastic epoch; returns the mean committed-step loss.

        Survives any number of recoverable failures; each failed step is
        retried over the shrunk world with the same data cursor.
        """
        self.begin_epoch(epoch)
        return self._run_epoch(max_steps)

    def begin_epoch(self, epoch: int) -> None:
        """Reset the cursor onto ``epoch``'s permutation (step-at-a-time API).

        For callers that drive steps individually (:meth:`train_step`)
        instead of through :meth:`train_epoch` — the multi-tenant
        scheduler interleaves many jobs' steps, so each job's epoch
        lifecycle is managed from outside.
        """
        check_open(self)
        self.iterator.begin_epoch(epoch)
        self._open_epoch()

    def train_step(self) -> float:
        """One committed elastic step (recoverable); returns its mean loss.

        The single-step half of :meth:`train_epoch`: call
        :meth:`begin_epoch` first, then step while
        ``iterator.has_next()``.  Raises ``RuntimeError`` while paused
        and once closed.
        """
        check_open(self)
        if self._paused:
            raise RuntimeError("trainer is paused; resume() before stepping")
        if not self.iterator.has_next():
            raise ValueError("epoch exhausted; call begin_epoch first")
        return self._step_with_recovery()

    def finish_epoch(self, max_steps: Optional[int] = None) -> float:
        """Continue the *current* epoch from the cursor to its end.

        For resuming mid-epoch after :meth:`restore_from_checkpoint`:
        unlike :meth:`train_epoch` the permutation cursor is not reset,
        so only the samples the saving run had not yet committed are
        visited.
        """
        check_open(self)
        self._open_epoch()
        return self._run_epoch(max_steps)

    def _open_epoch(self) -> None:
        self.epoch_visited = []
        self._epoch_losses = []
        self._take_snapshot()

    def _run_epoch(self, max_steps: Optional[int]) -> float:
        while self.iterator.has_next() and (
            max_steps is None or len(self._epoch_losses) < max_steps
        ):
            self._step_with_recovery()
        return (
            float(np.mean(self._epoch_losses)) if self._epoch_losses else float("nan")
        )

    def _step_with_recovery(self) -> float:
        attempts = 0
        while True:
            try:
                return self._attempt_step()
            except (CommError, RankKilledError) as exc:
                if self.config.faults is not None:
                    # One-shot faults fired (or died with their target);
                    # the retry must not re-kill the same step forever.
                    self.config.faults.consume(self.global_step)
                attempts += 1
                if attempts > self.membership.initial_size:
                    raise
                self._handle_failure(exc)

    def _attempt_step(self) -> float:
        """One attempt at the next step: the shared :func:`phased_step`
        over the live ranks, then — only if it returned — the commit."""
        indices = self.iterator.next_step()
        active = [r for r in range(self.membership.size) if len(indices[r])]
        losses = phased_step(
            self.executor, self.dist_opt, [indices[r] for r in active],
            ranks=active, participants=self._participants(active),
            reduce_fn=self._reduce, step=self.global_step,
        )

        # Commit: only now do the step's samples count as visited.
        self.iterator.commit()
        for r in active:
            self.epoch_visited.extend(indices[r].tolist())
        self.global_step += 1
        self.commits += 1
        mean_loss = float(np.mean(losses))
        self._epoch_losses.append(mean_loss)
        if self._recovering_since is not None:
            self.recovery_seconds.append(time.perf_counter() - self._recovering_since)
            self._recovering_since = None
        if self.commits % self.snapshot_every == 0:
            self._take_snapshot()
        if (
            self.checkpoint_path is not None
            and self.checkpoint_every is not None
            and self.commits % self.checkpoint_every == 0
        ):
            self.save_checkpoint()
        return mean_loss

    def _reduce(self, arena, ctx: Dict) -> np.ndarray:
        """Phase 2 of the step, where faults bite: reduce the prepared
        rows of ``ctx["ranks"]`` under this step's fault plan.

        Either the collective on the simulated cluster or the
        worker-parallel in-shm tree reduce.  A failure propagates out of
        :func:`phased_step` before anything is applied, so the
        supervisor rolls back with the model untouched.
        """
        step_id = self.global_step
        size = self.membership.size
        participants = ctx["ranks"]
        schedule = self.config.faults
        plan = (
            schedule.plan_for(step_id, self.membership)
            if schedule is not None else None
        )
        if self.config.reduce_mode == "workers":
            # Scheduled kills attach to the real transport for the
            # duration of the combine rounds: a due kill terminates the
            # worker's OS process at (or between) combine dispatches and
            # the round fails with structured rank_errors — recovery is
            # identical to a failed cluster collective.  No simulated
            # clock advances here (the reduce is real wall-clock work),
            # and straggler detection needs cluster traces, so both are
            # cluster-path only.
            transport = self.executor.transport
            transport.faults = plan
            try:
                combined = self.executor.worker_reduce(participants)
            finally:
                transport.faults = None
        else:
            self.cluster.faults = plan
            # The tracer holds one step's events: the straggler detector
            # reads nothing older.
            if self.cluster.tracer is not None:
                self.cluster.tracer.reset()
            try:
                combined = self._run_collective(participants, ctx["leaf_nbytes"])
            finally:
                self.cluster.faults = None
            self._update_stragglers()
        if schedule is not None:
            schedule.consume(step_id)
        # Drop-and-renormalize: Adasum and Average renormalize by
        # construction (they combine, not accumulate); an op whose
        # result scales with the world (a sum) is scaled back up to the
        # full world's magnitude.
        strategy = self.dist_opt.reducer.strategy
        if strategy.scales_with_world and len(participants) < size:
            combined = (combined * (size / len(participants))).astype(
                combined.dtype
            )
        return combined

    def _run_collective(
        self, participants: Sequence[int], leaf_nbytes: Optional[int]
    ) -> np.ndarray:
        """Phase-2 reduction on the cluster: one whole-row collective.

        Only the combined row comes back — nothing is applied here, so a
        failure abandons the step with the model untouched (the
        supervisor rolls back and retries).  ``leaf_nbytes`` is the
        costed size of an original row's send (``None``: raw fp32).
        The collective's ``max_clock()`` is added to ``sim_time``.
        """
        arena = self.arena
        combined = cluster_reduce(
            self.cluster, arena.data, arena.layout.boundaries(),
            self.dist_opt.reducer, participants, leaf_nbytes=leaf_nbytes,
        )
        self.sim_time += self.cluster.max_clock()
        return combined

    # ------------------------------------------------------------------
    # Disk checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(self, path=None) -> None:
        """Write a resumable on-disk checkpoint (model + optimizer + cursor)."""
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        extra = {
            "elastic": {
                "iterator": self.iterator.state(),
                "global_step": self.global_step,
                "commits": self.commits,
                "global_ranks": list(self.membership),
                "initial_size": self.membership.initial_size,
                "sim_time": self.sim_time,
            }
        }
        save_checkpoint(path, self.model, dist_opt=self.dist_opt, extra=extra)

    def restore_from_checkpoint(self, path) -> dict:
        """Resume from a checkpoint written by :meth:`save_checkpoint`.

        The checkpoint may come from a *larger* world: per-rank optimizer
        states are re-partitioned onto the current membership by global
        id (``rank_map``), the cursor resumes mid-epoch, and a fresh
        in-memory snapshot is taken so the next failure rolls back here.
        """
        meta = read_checkpoint_meta(path)
        saved = meta.get("extra", {}).get("elastic")
        if saved is None:
            raise ValueError(f"{path} is not an elastic checkpoint")
        rank_map = None
        if self.dist_opt.post_optimizer_mode:
            saved_globals = list(saved["global_ranks"])
            if all(g in saved_globals for g in self.membership):
                # Same logical world (possibly shrunk): match by id.
                rank_map = self.membership.rank_map_from(saved_globals)
            else:
                # Fresh world with different ids (e.g. restarted process
                # resuming a survivor checkpoint): map positionally,
                # wrapping if this world is larger than the saved one.
                n_saved = len(saved_globals)
                rank_map = [i % n_saved for i in range(self.membership.size)]
        load_checkpoint(path, self.model, dist_opt=self.dist_opt, rank_map=rank_map)
        self.iterator.restore(saved["iterator"])
        self.iterator.reshard(self.membership.size)
        self.global_step = int(saved["global_step"])
        self.commits = int(saved["commits"])
        self.sim_time = float(saved["sim_time"])
        self._take_snapshot()
        return saved
