"""The data-parallel training simulator.

``ParallelTrainer`` drives one shared model replica through the update
rule of a ``DistributedOptimizer``: at each step it computes every
simulated rank's gradient on the *same* starting weights (which is
exactly what real synchronous data-parallel ranks do, since they are
kept identical between steps) and hands the filled gradient arena to
the distributed optimizer for reduction and application.

Instrumentation hooks (the :class:`~repro.core.OrthogonalityProbe` of
Figure 1, loss meters) plug in without touching the training loop.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.tracing import CommTracer
from repro.comm.transport import ProcessTransport
from repro.core.arena import GradientArena, SharedGradientArena
from repro.core.config import validate_execution_strategy
from repro.core.distributed_optimizer import DistributedOptimizer
from repro.core.orthogonality import OrthogonalityProbe
from repro.core.overlap import OverlapScheduler, build_fused_engine
from repro.data.sampler import BatchIterator, ShardedSampler
from repro.nn.module import Module
from repro.tensor import set_kernel_specialization, tune_allocator
from repro.train.metrics import Meter
from repro.train.simclock import TrainingTimeModel


def compute_grads(
    model: Module,
    loss_fn: Callable,
    xb: np.ndarray,
    yb: np.ndarray,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Forward + backward; returns ``(loss_value, {layer: grad copy})``."""
    model.zero_grad()
    logits = model(xb)
    loss = loss_fn(logits, yb)
    loss.backward()
    grads = {
        name: np.array(p.grad, copy=True) for name, p in model.named_parameters()
    }
    return float(loss.data), grads


def compute_grads_into(
    model: Module,
    loss_fn: Callable,
    xb: np.ndarray,
    yb: np.ndarray,
    out: Mapping[str, np.ndarray],
    accumulate: bool = False,
) -> float:
    """Forward + backward writing gradients into preallocated buffers.

    The zero-copy variant of :func:`compute_grads`: ``out`` maps layer
    names to destination arrays (typically
    :meth:`~repro.core.arena.GradientArena.views`).  With
    ``accumulate=True`` gradients add into the destinations instead of
    overwriting (local gradient accumulation).  Returns the loss value.
    """
    model.zero_grad()
    logits = model(xb)
    loss = loss_fn(logits, yb)
    loss.backward()
    for name, p in model.named_parameters():
        dest = out[name]
        if accumulate:
            dest += p.grad
        else:
            np.copyto(dest, p.grad)
    return float(loss.data)


class _ProcessRankWorker:
    """One rank's state inside a worker process (never crosses the pipe).

    Built by :func:`_process_rank_bootstrap` from a picklable spec.  The
    worker attaches to the parent's shared gradient arena (its own row
    is the gradient destination) and to a one-row parameter arena the
    parent refreshes before every dispatch, so model replicas stay
    byte-identical across processes without any per-step serialization.

    Besides ``("step", indices)`` the worker serves ``("combine", src,
    kind, final, n)`` — one scheduled hop of the worker-parallel tree
    reduce: combine this rank's arena row with rank ``src``'s row in
    place via the registry strategy named by the spec's
    :class:`~repro.core.strategies.CombineSpec`, applying
    ``finalize_pair`` when this is the schedule's root hop.  The
    strategy resolves lazily (first combine) from the local registry, so
    nothing of the parent's reducer ever crosses the pipe.
    """

    def __init__(self, rank: int, spec: Dict):
        from repro.tensor import set_kernel_specialization as _set_spec

        self.rank = rank
        layout = spec["layout"]
        self.grads = SharedGradientArena.attach(
            spec["grad_segment"], layout, spec["num_ranks"], dtype=spec["grad_dtype"]
        )
        self.params = SharedGradientArena.attach(
            spec["param_segment"], layout, 1, dtype=spec["param_dtype"]
        )
        self.model = spec["model"]
        self.loss_fn = spec["loss_fn"]
        self.x = spec["x"]
        self.y = spec["y"]
        self.microbatch = spec["microbatch"]
        self.accumulation = spec["accumulation"]
        self.combine = spec.get("combine_spec")
        self._strategy = None
        self._boundaries = None
        # Match the parent's train_step-scoped specialization setting so
        # both sides run the exact same kernels (bit-exactness contract).
        _set_spec(spec["specialize_kernels"])

    def _combine(self, src: int, kind: str, final: bool, n: int) -> int:
        if self._strategy is None:
            if self.combine is None:
                raise ValueError(
                    f"rank {self.rank}: no combine spec configured for "
                    "worker-parallel reduce"
                )
            self._strategy = self.combine.resolve()
            self._boundaries = (
                self.grads.layout.boundaries() if self.combine.per_layer else None
            )
        acc = self.grads.row(self.rank)
        other = self.grads.row(src)
        self._strategy.pair_combine(kind, acc, other, self._boundaries, out=acc)
        if final:
            self._strategy.finalize_pair(acc, n)
        self.grads.bump_progress(self.rank)
        return int(self.grads.progress[self.rank])

    def __call__(self, msg) -> float:
        if msg[0] == "combine":
            return self._combine(*msg[1:])
        if msg[0] != "step":
            raise ValueError(f"unknown control message {msg[0]!r}")
        idx = msg[1]
        pviews = self.params.views(0)
        for name, p in self.model.named_parameters():
            np.copyto(p.data, pviews[name])
        views = self.grads.views(self.rank)
        if self.accumulation == 1:
            return compute_grads_into(
                self.model, self.loss_fn, self.x[idx], self.y[idx], views
            )
        losses = []
        for k in range(self.accumulation):
            sub = idx[k * self.microbatch : (k + 1) * self.microbatch]
            losses.append(
                compute_grads_into(
                    self.model, self.loss_fn, self.x[sub], self.y[sub], views,
                    accumulate=k > 0,
                )
            )
        row = self.grads.row(self.rank)
        np.multiply(row, 1.0 / self.accumulation, out=row)
        return float(np.mean(losses))

    def close(self) -> None:
        self.grads.close()
        self.params.close()


def _process_rank_bootstrap(rank: int, spec: Dict) -> _ProcessRankWorker:
    """Top-level (spawn-picklable) bootstrap handed to the transport."""
    return _ProcessRankWorker(rank, spec)


class ProcessRankExecutor:
    """Parent-side driver of the process-per-rank execution backend.

    Owns the one-row *parameter* arena (the broadcast channel: parent
    writes current weights, every worker reads them before computing)
    and a :class:`~repro.comm.transport.ProcessTransport` whose workers
    attach to the trainer's shared *gradient* arena.  A step is two
    shared-memory writes and ``2 * world`` tiny pipe messages: params
    out, ``("step", indices)`` per rank, loss floats back — gradient
    payloads never serialize.

    With ``reduce_mode="workers"`` the executor also owns phase 2: the
    parent stops reducing and instead drives the strategy's level-by-
    level pair schedule over the pipes (:meth:`worker_reduce`) — at each
    tree level the surviving worker of every pair combines its peer's
    arena row into its own, in shared memory, in place.  The parent only
    sequences levels and collects acks, so the ``log2(world)`` combines
    of a level run concurrently across worker processes.

    Parameters mirror the slice of :class:`ParallelTrainer` state the
    workers need; ``faults``/``tracer``/``timeout``/``start_method``
    forward to the transport.  ``combine_spec`` (a picklable
    :class:`~repro.core.strategies.CombineSpec`) names the reduction
    cell the workers replay; required when ``reduce_mode="workers"``.
    """

    def __init__(
        self,
        model: Module,
        loss_fn: Callable,
        x: np.ndarray,
        y: np.ndarray,
        microbatch: int,
        accumulation: int,
        arena: SharedGradientArena,
        specialize_kernels: bool = True,
        timeout: float = 60.0,
        faults=None,
        tracer: Optional[CommTracer] = None,
        start_method: Optional[str] = None,
        reduce_mode: str = "parent",
        combine_spec=None,
    ):
        if not isinstance(arena, SharedGradientArena):
            raise TypeError(
                "ProcessRankExecutor needs a SharedGradientArena; got "
                f"{type(arena).__name__}"
            )
        if reduce_mode not in ("parent", "workers"):
            raise ValueError(
                f"reduce_mode must be 'parent' or 'workers', got {reduce_mode!r}"
            )
        if reduce_mode == "workers" and combine_spec is None:
            raise ValueError("reduce_mode='workers' needs a combine_spec")
        self.reduce_mode = reduce_mode
        self.combine_spec = combine_spec
        self.model = model
        self.arena = arena
        dtypes = {p.data.dtype for _, p in model.named_parameters()}
        if len(dtypes) != 1:
            raise ValueError(
                f"mixed parameter dtypes {sorted(map(str, dtypes))} cannot "
                "share one parameter-broadcast arena"
            )
        self.param_arena = SharedGradientArena(
            arena.layout, 1, dtype=dtypes.pop()
        )
        self._pviews = self.param_arena.views(0)
        spec = {
            "model": model,
            "loss_fn": loss_fn,
            "x": x,
            "y": y,
            "layout": arena.layout,
            "grad_segment": arena.name,
            "param_segment": self.param_arena.name,
            "num_ranks": arena.num_ranks,
            "grad_dtype": arena.dtype,
            "param_dtype": self.param_arena.dtype,
            "microbatch": microbatch,
            "accumulation": accumulation,
            "specialize_kernels": specialize_kernels,
            "combine_spec": combine_spec,
        }
        self.transport = ProcessTransport(
            arena.num_ranks,
            _process_rank_bootstrap,
            spec,
            timeout=timeout,
            faults=faults,
            tracer=tracer,
            start_method=start_method,
        )

    def compute(
        self,
        rank_indices: Sequence[np.ndarray],
        ranks: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Run one step's forward/backward on every listed rank.

        Publishes current parameters to shared memory, dispatches per-
        rank sample indices, and returns losses in dispatch order;
        gradients are already sitting in the arena rows when this
        returns.  ``ranks`` names the target rank (= arena row) per
        payload for partial-world steps; default ``0..len-1``.
        """
        for name, p in self.model.named_parameters():
            np.copyto(self._pviews[name], p.data)
        payloads = [("step", np.asarray(idx)) for idx in rank_indices]
        ranks = list(range(len(payloads))) if ranks is None else list(ranks)
        return self.transport.call(payloads, ranks=ranks)

    def worker_reduce(self, participants: Optional[Sequence[int]] = None) -> np.ndarray:
        """Drive one worker-parallel tree reduce over the arena rows.

        Replays the combine spec's level-ordered pair schedule: at each
        level every ``(dst, src)`` pair's *dst* worker combines *src*'s
        row into its own in place, and the level's remaining
        participants are listed as ``consult`` ranks so an injected kill
        of a passive peer still fails the round with structured
        ``rank_errors``.  Levels are separated by a full ack barrier
        (the pipe reply), which is what makes a row safe to read at the
        next level.  ``participants`` selects the rows taking part
        (default all, in rank order); schedule position ``i`` maps to
        ``participants[i]``, so non-power-of-two subsets decompose
        through the strategy's own ``tree_any`` blocks.

        Returns the combined flat buffer — ``participants[0]``'s row,
        rewritten in place, byte-identical to
        ``reducer.reduce_arena(arena)`` on the same rows.  A failure at
        any level raises before anything is applied to the model, so a
        failed combine leaves training state untouched.
        """
        if self.combine_spec is None:
            raise ValueError("worker_reduce needs a combine_spec")
        parts = (
            list(range(self.arena.num_ranks)) if participants is None
            else list(participants)
        )
        n = len(parts)
        root = self.arena.row(parts[0])
        if n == 1:
            return root
        levels = self.combine_spec.schedule(n)
        if levels is None:
            raise ValueError(
                f"strategy ({self.combine_spec.op!r}, "
                f"{self.combine_spec.topology!r}) has no pair schedule; "
                "use reduce_mode='parent'"
            )
        self.arena.reset_progress()
        last = len(levels) - 1
        for depth, level in enumerate(levels):
            ranks = [parts[dst] for dst, _src, _kind in level]
            payloads = [
                ("combine", parts[src], kind, depth == last and dst == 0, n)
                for dst, src, kind in level
            ]
            passive = [r for r in parts if r not in set(ranks)]
            self.transport.call(payloads, ranks=ranks, op="combine", consult=passive)
        return root

    def close(self) -> None:
        """Stop the workers and unlink the parameter segment (idempotent).

        The unlink runs even when the shutdown raises (e.g. collecting a
        worker that died mid-combine): the parameter segment must never
        outlive the executor however the step ended.
        """
        try:
            self.transport.shutdown()
        finally:
            self.param_arena.unlink()

    def __enter__(self) -> "ProcessRankExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ParallelTrainer:
    """Simulates ``num_ranks`` data-parallel workers over one model.

    Parameters
    ----------
    model:
        Shared replica (identical across simulated ranks).
    loss_fn:
        ``loss_fn(logits, targets) -> scalar Tensor``.
    dist_opt:
        Update rule (Sum / Average / Adasum, pre/post-optimizer).
    x, y:
        Full training set; sharded across ranks per epoch.
    microbatch:
        Per-rank examples per step.  The *effective batch* is
        ``microbatch * num_ranks (* local accumulation if used)``.
    accumulation:
        Microbatches locally accumulated (summed) before reduction —
        plain gradient accumulation, not the local-SGD variant.
    probe:
        Optional orthogonality probe sampled on raw per-rank gradients.
    seed:
        Shuffling seed.
    tracer:
        Optional :class:`~repro.comm.tracing.CommTracer`; each step
        records one ``compute`` and one ``allreduce`` event per
        simulated rank (gradient bytes attached), timestamped on a
        simulated clock.
    time_model:
        Optional :class:`~repro.train.simclock.TrainingTimeModel` that
        stamps trace durations; without it events are zero-duration
        (ordering only).
    execution:
        Rank execution backend — ``"serial"`` (default: a loop in this
        process) or ``"processes"`` (one OS process per rank writing
        gradients into a :class:`~repro.core.arena.SharedGradientArena`;
        sidesteps the GIL entirely — see :class:`ProcessRankExecutor`).
        Under either backend each rank writes only its own arena row and
        the reduction runs after a barrier in fixed rank order, so
        results are bit-identical to serial execution.  The process
        backend rejects models whose forward pass mutates shared state
        in a rank-order-dependent way (registered buffers such as
        BatchNorm running stats, or active Dropout consuming a shared
        RNG), since serial execution orders those effects.
    start_method, comm_timeout, faults, comm_tracer:
        Process-backend knobs forwarded to the
        :class:`~repro.comm.transport.ProcessTransport`: multiprocessing
        start method (default fork where available), per-round collect
        deadline, fault plan whose kills terminate real worker
        processes, and a wall-clock tracer of control-plane traffic.
    reduce_mode:
        Who runs phase 2 under ``execution="processes"`` —
        ``"parent"`` (default: the parent reduces the arena rows
        single-threaded) or ``"workers"`` (the worker processes run the
        strategy's pair-combine schedule in parallel over shared
        memory; see :meth:`ProcessRankExecutor.worker_reduce`).  The two
        modes are bit-identical; ``"workers"`` wins on multicore hosts
        once the model is large enough (see docs/performance.md).
        Requires the processes backend and a strategy with a pair
        schedule (every registered cell except Adasum-RVH).
    specialize_kernels:
        Allow validated single-GEMM conv kernels inside ``train_step``
        (on by default; scoped to the step and restored after).  The
        specialized kernels are accepted per shape only after a
        byte-identity probe against the einsum reference, but probing
        itself perturbs allocator state, which on some geometries
        changes the bytes of *unrelated* contractions later in the
        process.  Pass ``False`` when a training run must replay a
        historical byte-for-byte trajectory.
    overlap:
        Overlap gradient reduction with backprop via an
        :class:`~repro.core.overlap.OverlapScheduler`: arena buckets
        launch on a comm worker as their gradients complete (grad-ready
        hooks, or a registered fused compute engine whose first step is
        byte-validated against the serial path before it is trusted).
        Results are bit-identical to the phased path.  Falls back to
        phased stepping automatically when an orthogonality probe is
        attached (it needs raw per-rank gradients before the Figure-3
        delta rewrite) or when ``accumulation > 1``.  Mutually
        exclusive with ``execution="processes"``.
    bucket_cap_mb:
        Overlap fusion bucket size cap (see
        :class:`~repro.comm.bucketing.BucketPlan`).
    overlap_tracer:
        Optional :class:`~repro.comm.tracing.CommTracer` recording the
        wall-clock overlap timeline (compute lane vs comm-worker lane);
        keep it distinct from ``tracer``, whose clock is simulated.
    """

    def __init__(
        self,
        model: Module,
        loss_fn: Callable,
        dist_opt: DistributedOptimizer,
        x: np.ndarray,
        y: np.ndarray,
        microbatch: int,
        accumulation: int = 1,
        probe: Optional[OrthogonalityProbe] = None,
        seed: int = 0,
        tracer: Optional[CommTracer] = None,
        time_model: Optional[TrainingTimeModel] = None,
        specialize_kernels: bool = True,
        overlap: bool = False,
        bucket_cap_mb: float = 1.0,
        overlap_tracer: Optional[CommTracer] = None,
        execution: str = "serial",
        start_method: Optional[str] = None,
        comm_timeout: float = 60.0,
        faults=None,
        comm_tracer: Optional[CommTracer] = None,
        reduce_mode: str = "parent",
    ):
        if accumulation < 1:
            raise ValueError("accumulation must be >= 1")
        execution = validate_execution_strategy(overlap, execution)
        self.execution = execution
        if reduce_mode not in ("parent", "workers"):
            raise ValueError(
                f"reduce_mode must be 'parent' or 'workers', got {reduce_mode!r}"
            )
        combine_spec = None
        if reduce_mode == "workers":
            if execution != "processes":
                raise ValueError(
                    "reduce_mode='workers' needs execution='processes' "
                    f"(got {execution!r}): only worker processes can run "
                    "pair combines in parallel over shared memory"
                )
            combine_spec = dist_opt.reducer.combine_spec()
            if combine_spec.schedule(dist_opt.num_ranks) is None:
                raise ValueError(
                    f"strategy ({combine_spec.op!r}, {combine_spec.topology!r}) "
                    "has no pair-combine schedule; use reduce_mode='parent'"
                )
        self.reduce_mode = reduce_mode
        tune_allocator()
        self.model = model
        self.loss_fn = loss_fn
        self.dist_opt = dist_opt
        self.x, self.y = x, y
        self.microbatch = microbatch
        self.accumulation = accumulation
        self.probe = probe
        self.num_ranks = dist_opt.num_ranks
        self.sampler = ShardedSampler(len(x), self.num_ranks, seed=seed)
        self.iterator = BatchIterator(self.sampler, microbatch * accumulation)
        self.loss_meter = Meter("loss")
        self.global_step = 0
        self.tracer = tracer
        self.time_model = time_model
        self.sim_time = 0.0
        # Wall-clock phase accounting (compute vs reduce) for the bench
        # snapshot's per-phase sub-timings; phased steps only (the
        # overlap path interleaves the two phases by design).
        self.phase_seconds: Dict[str, float] = {"compute": 0.0, "reduce": 0.0}
        self.phase_steps = 0
        # Flat-buffer gradient pipeline: every rank's gradients live in
        # one preallocated contiguous row; reduction runs flat kernels.
        # The process backend places the rows in OS shared memory so
        # worker processes write them directly (zero-copy data plane).
        arena_cls = SharedGradientArena if execution == "processes" else GradientArena
        self.arena = arena_cls.from_model(model, self.num_ranks)
        # Opt the hot training loop into validated kernel specialization
        # (scoped to train_step; see docs/performance.md for why this is
        # not on globally).
        self.specialize_kernels = specialize_kernels
        # Backprop/communication overlap (opt-in).  The probe needs raw
        # per-rank gradients before the delta rewrite and accumulation
        # rescales rows after backward, so both force the phased path.
        self.overlap = overlap
        self._overlap_active = overlap and accumulation == 1 and probe is None
        self._sched: Optional[OverlapScheduler] = None
        self._fused = None
        self._fused_validated: Optional[bool] = None
        if self._overlap_active:
            self._sched = OverlapScheduler(
                dist_opt, self.arena, bucket_cap_mb=bucket_cap_mb,
                tracer=overlap_tracer,
            )
            self._fused = build_fused_engine(model, self.num_ranks)
        self._proc_executor: Optional[ProcessRankExecutor] = None
        if execution == "processes":
            self._check_parallel_safe(model)
            self._proc_executor = ProcessRankExecutor(
                model, loss_fn, self.x, self.y, microbatch, accumulation,
                self.arena,
                specialize_kernels=specialize_kernels,
                timeout=comm_timeout,
                faults=faults,
                tracer=comm_tracer,
                start_method=start_method,
                reduce_mode=reduce_mode,
                combine_spec=combine_spec,
            )

    @classmethod
    def from_config(
        cls,
        model: Module,
        loss_fn: Callable,
        optimizer_factory: Callable,
        x: np.ndarray,
        y: np.ndarray,
        config,
        **kwargs,
    ) -> "ParallelTrainer":
        """Build the trainer (and its optimizer) from a
        :class:`repro.core.config.RunConfig`.

        The config supplies the reduction strategy, world size,
        microbatch, seed, and execution strategy
        (``overlap`` / ``execution`` / ``bucket_cap_mb``); remaining
        trainer keywords (``accumulation``, ``probe``, tracers, ...)
        pass through ``kwargs``.
        """
        dist_opt = DistributedOptimizer.from_config(model, optimizer_factory, config)
        kwargs.setdefault("seed", config.seed)
        kwargs.setdefault("overlap", config.overlap)
        kwargs.setdefault("execution", config.execution)
        if config.execution == "processes":
            kwargs.setdefault("comm_timeout", config.timeout)
            kwargs.setdefault("faults", config.faults)
            kwargs.setdefault("reduce_mode", config.reduce_mode)
        if config.bucket_cap_mb is not None:
            kwargs.setdefault("bucket_cap_mb", config.bucket_cap_mb)
        return cls(model, loss_fn, dist_opt, x, y, config.microbatch, **kwargs)

    @staticmethod
    def _check_parallel_safe(model: Module) -> None:
        """Reject models whose forward pass has rank-order-dependent effects."""
        if any(True for _ in model.named_buffers()):
            raise ValueError(
                'execution="processes" requires a model without registered '
                "buffers: running stats update in rank order under serial "
                "execution, which concurrent ranks cannot reproduce"
            )
        for mod in model.modules():
            if type(mod).__name__ == "Dropout" and getattr(mod, "p", 0.0) > 0.0:
                raise ValueError(
                    'execution="processes" requires inactive dropout '
                    "(p == 0): serial ranks consume the dropout RNG in rank "
                    "order, which concurrent ranks cannot reproduce"
                )

    @property
    def effective_batch(self) -> int:
        return self.microbatch * self.accumulation * self.num_ranks

    def steps_per_epoch(self) -> int:
        return self.iterator.steps_per_epoch()

    def close(self) -> None:
        """Release execution-backend resources (idempotent).

        The overlap comm worker is joined, rank worker processes are
        shut down, and every shared-memory segment this trainer owns is
        unlinked — the arena module's atexit sweep is only the
        last-resort backstop for callers that never get here (aborts,
        test crashes).
        """
        try:
            if self._sched is not None:
                self._sched.close()
            if self._proc_executor is not None:
                self._proc_executor.close()
                self._proc_executor = None
        finally:
            # Must run even when the executor shutdown raises — a worker
            # crash mid-combine cannot be allowed to strand the gradient
            # segment in /dev/shm.
            if isinstance(self.arena, SharedGradientArena):
                self.arena.unlink()

    def __enter__(self) -> "ParallelTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def train_epoch(self, epoch: int, max_steps: Optional[int] = None) -> float:
        """One epoch of simulated data-parallel training; returns mean loss."""
        losses = []
        for step, rank_indices in self.iterator.epoch(epoch):
            if max_steps is not None and step >= max_steps:
                break
            loss = self.train_step(rank_indices)
            losses.append(loss)
        return float(np.mean(losses)) if losses else float("nan")

    def train_step(self, rank_indices: Sequence[np.ndarray]) -> float:
        """One synchronous update from per-rank sample indices."""
        if len(rank_indices) != self.num_ranks:
            raise ValueError(
                f"train_step needs one index array per rank: expected "
                f"{self.num_ranks}, got {len(rank_indices)}"
            )
        prior = set_kernel_specialization(self.specialize_kernels)
        try:
            return self._train_step(rank_indices)
        finally:
            set_kernel_specialization(prior)

    def _train_step(self, rank_indices: Sequence[np.ndarray]) -> float:
        if self._overlap_active:
            return self._train_step_overlap(rank_indices)
        t0 = time.perf_counter()
        if self._proc_executor is not None:
            losses = self._proc_executor.compute(rank_indices)
        else:
            losses = [
                self._rank_gradient(rank, idx)
                for rank, idx in enumerate(rank_indices)
            ]
        t1 = time.perf_counter()
        # Zero-copy per-rank views for instrumentation; the reduction
        # itself runs flat over the arena rows.
        grad_dicts = [self.arena.views(rank) for rank in range(self.num_ranks)]
        if self.probe is not None:
            self.probe.record(grad_dicts, step=self.global_step)
        if self.tracer is not None:
            self._trace_step(grad_dicts)
        t2 = time.perf_counter()
        if self.reduce_mode == "workers":
            self.dist_opt.step_arena(
                self.arena,
                reduce_fn=lambda arena: self._proc_executor.worker_reduce(),
            )
        else:
            self.dist_opt.step_arena(self.arena)
        t3 = time.perf_counter()
        self.phase_seconds["compute"] += t1 - t0
        self.phase_seconds["reduce"] += t3 - t2
        self.phase_steps += 1
        self.global_step += 1
        mean_loss = float(np.mean(losses))
        self.loss_meter.update(mean_loss)
        return mean_loss

    def _train_step_overlap(self, rank_indices: Sequence[np.ndarray]) -> float:
        """One step with bucket reductions overlapping the backward passes."""
        xb = [self.x[idx] for idx in rank_indices]
        yb = [self.y[idx] for idx in rank_indices]
        if self._fused is not None and self._fused_validated is None:
            self._validate_fused(xb, yb)
        if self._fused is not None and self._fused_validated:
            xcat = np.concatenate(xb)
            ycat = np.concatenate(yb)
            views = [self.arena.views(r) for r in range(self.num_ranks)]
            compute = lambda ready: self._fused.step(xcat, ycat, views, ready_cb=ready)
        else:
            compute = lambda ready: self._overlap_compute_serial(xb, yb, ready)
        losses = self._sched.step(compute)
        if self.tracer is not None:
            self._trace_step([self.arena.views(r) for r in range(self.num_ranks)])
        self.global_step += 1
        mean_loss = float(np.mean(losses))
        self.loss_meter.update(mean_loss)
        return mean_loss

    def _overlap_compute_serial(self, xb, yb, mark_ready) -> List[float]:
        """Serial per-rank backward passes with grad-ready hooks.

        Each completing gradient is copied into the rank's arena view
        as backward produces it; the last rank's hook marks the
        parameter ready so its bucket can launch while that rank's
        backward is still finishing earlier layers.
        """
        model, losses = self.model, []
        last_rank = len(xb) - 1
        try:
            for rank in range(len(xb)):
                views = self.arena.views(rank)
                if rank == last_rank:
                    def hook(name, p, _v=views):
                        np.copyto(_v[name], p.grad)
                        mark_ready(name)
                else:
                    def hook(name, p, _v=views):
                        np.copyto(_v[name], p.grad)
                model.register_grad_ready_hook(hook)
                model.zero_grad()
                loss = self.loss_fn(model(xb[rank]), yb[rank])
                loss.backward()
                losses.append(float(loss.data))
        finally:
            model.clear_grad_ready_hooks()
        return losses

    def _validate_fused(self, xb, yb) -> None:
        """Byte-validate the fused engine against serial autograd (once).

        Runs both compute paths on the first overlap batch and compares
        every arena row byte for byte; any mismatch permanently demotes
        the engine in favor of the hook-driven serial path.  One-time
        cost of one extra fused forward/backward.
        """
        xcat = np.concatenate(xb)
        ycat = np.concatenate(yb)
        views = [self.arena.views(r) for r in range(self.num_ranks)]
        try:
            fused_losses = self._fused.step(xcat, ycat, views, ready_cb=None)
        except (ValueError, TypeError):
            self._fused_validated = False
            return
        fused_rows = self.arena.data.copy()
        serial_losses = [
            compute_grads_into(self.model, self.loss_fn, xb[r], yb[r],
                               self.arena.views(r))
            for r in range(self.num_ranks)
        ]
        self._fused_validated = bool(
            np.array_equal(
                fused_rows.view(np.uint8), self.arena.data.view(np.uint8)
            )
            and fused_losses == serial_losses
        )

    def _trace_step(self, grad_dicts: Sequence[Dict[str, np.ndarray]]) -> None:
        """Record one compute + one allreduce event per simulated rank.

        All ranks are synchronous, so they share the step's simulated
        timeline; durations come from ``time_model`` when present.  The
        allreduce event carries the *encoded* per-rank bytes when a
        wire-codec stack is active — what actually crosses the wire —
        while the compute event keeps the raw gradient size.
        """
        tm = self.time_model
        compute_s = (
            tm.seconds_per_example * self.microbatch * self.accumulation
            if tm is not None else 0.0
        )
        comm_s = tm.allreduce_seconds() if tm is not None else 0.0
        t0 = self.sim_time
        t1 = t0 + compute_s
        t2 = t1 + comm_s
        wire_bytes = self.dist_opt.wire_row_nbytes(self.arena)
        for rank, grads in enumerate(grad_dicts):
            grad_bytes = sum(int(g.nbytes) for g in grads.values())
            self.tracer.record(rank, "compute", t0, t1, grad_bytes,
                               label=f"step-{self.global_step}")
            self.tracer.record(rank, "allreduce", t1, t2, wire_bytes,
                               label=self.dist_opt.op.value)
        self.sim_time = t2

    def _rank_gradient(self, rank: int, idx: np.ndarray) -> float:
        """One rank's (possibly accumulated) local gradient, written
        straight into the rank's arena row; returns the loss."""
        views = self.arena.views(rank)
        if self.accumulation == 1:
            return compute_grads_into(
                self.model, self.loss_fn, self.x[idx], self.y[idx], views
            )
        losses = []
        for k in range(self.accumulation):
            sub = idx[k * self.microbatch : (k + 1) * self.microbatch]
            losses.append(
                compute_grads_into(
                    self.model, self.loss_fn, self.x[sub], self.y[sub], views,
                    accumulate=k > 0,
                )
            )
        # Scale in place on the flat row — no per-layer dict of scaled
        # copies; NumPy's promotion keeps float32 * python-float exact.
        row = self.arena.row(rank)
        np.multiply(row, 1.0 / self.accumulation, out=row)
        return float(np.mean(losses))
