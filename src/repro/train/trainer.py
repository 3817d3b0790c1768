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

import contextlib
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.comm.faults import FaultPlan
from repro.comm.tracing import CommTracer
from repro.comm.transport import CommError, ProcessTransport
from repro.core.arena import (
    GradientArena,
    RankRows,
    SharedGradientArena,
    leaked_shared_segments,
)
from repro.core.config import RunConfig
from repro.core.distributed_optimizer import DistributedOptimizer, optimizer_delta
from repro.core.orthogonality import OrthogonalityProbe
from repro.core.overlap import FlatOptimizerMirror, OverlapScheduler, build_fused_engine
from repro.data.sampler import BatchIterator, ShardedSampler
from repro.nn import Module, rank_order_hazard
from repro.tensor import (
    RankBlocksError,
    rank_blocks,
    set_kernel_specialization,
    tune_allocator,
)


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
    out: Union[Mapping[str, np.ndarray], Sequence[Mapping[str, np.ndarray]]],
    accumulate: bool = False,
    on_ready: Optional[Callable[[str], None]] = None,
) -> Union[float, List[float]]:
    """Forward + backward writing gradients into preallocated buffers.

    The zero-copy variant of :func:`compute_grads`: ``out`` maps layer
    names to destination arrays (typically
    :meth:`~repro.core.arena.GradientArena.views`).  With
    ``accumulate=True`` gradients add into the destinations instead of
    overwriting (local gradient accumulation).  With ``on_ready``
    (overwriting only) each gradient is copied the moment backward
    completes it and ``on_ready(name)`` reports it, instead of all of
    them after backward — same bytes, earlier.  Returns the loss value.

    Given a *sequence* of ``R >= 2`` such mappings (one per rank, e.g.
    arena views of ``R`` rows), ``xb``/``yb`` hold the ranks' equal
    microbatches stacked along axis 0 and the pass runs once, inside
    :func:`~repro.tensor.rank_blocks`: rank ``r``'s gradients land in
    ``out[r]`` (``on_ready`` fires once per parameter, when every rank's
    gradient for it has landed) and the ``R`` losses are returned.  A
    model that mixes blocks in a way rank-stacked autograd cannot see
    (a parameter used through a generic op, a loss that is not
    block-aware) raises :class:`~repro.tensor.RankBlocksError`; one that
    mixes them silently (a cross-batch statistic) gets wrong bytes, which
    is why :class:`FusedRankExecutor` byte-checks this against the
    per-rank loop before trusting it.
    """
    if accumulate and on_ready is not None:
        raise ValueError(
            "compute_grads_into: on_ready reports overwritten gradients; "
            "accumulate=True cannot report readiness"
        )
    if not isinstance(out, Mapping):
        if accumulate:
            raise ValueError("compute_grads_into over rank views overwrites them")
        return _compute_rank_blocks(model, loss_fn, xb, yb, RankRows.of(out), on_ready)
    if on_ready is not None:
        def hook(name, p):
            np.copyto(out[name], p.grad)
            on_ready(name)

        model.register_grad_ready_hook(hook)
    model.zero_grad()
    try:
        loss = loss_fn(model(xb), yb)
        loss.backward()
    finally:
        if on_ready is not None:
            model.clear_grad_ready_hooks()
    if on_ready is None:
        for name, p in model.named_parameters():
            dest = out[name]
            if accumulate:
                dest += p.grad
            else:
                np.copyto(dest, p.grad)
    return float(loss.data)


def _compute_rank_blocks(
    model: Module,
    loss_fn: Callable,
    xb: np.ndarray,
    yb: np.ndarray,
    dests: RankRows,
    on_ready: Optional[Callable[[str], None]],
) -> List[float]:
    """:func:`compute_grads_into` over ``len(dests)`` stacked rank blocks.

    Each parameter's ``(R, *shape)`` gradient lands with
    :meth:`RankRows.land <repro.core.arena.RankRows.land>`: one write
    per run of consecutive arena rows when ``dests`` came from
    :meth:`GradientArena.rank_rows
    <repro.core.arena.GradientArena.rank_rows>`, one per rank for any
    other sequence of mappings.
    """
    blocks = len(dests)
    if blocks < 2 or len(xb) % blocks:
        raise ValueError(
            "compute_grads_into over rank blocks needs >= 2 rank views and "
            f"a batch of equal blocks (got {blocks} views, {len(xb)} samples)"
        )
    land = dests.land
    if on_ready is not None:
        def hook(name, p):
            land(name, p.grad)
            on_ready(name)

        model.register_grad_ready_hook(hook)
    model.zero_grad()
    try:
        with rank_blocks(blocks):
            loss = loss_fn(model(xb), yb)
            if loss.shape != (blocks,):
                raise RankBlocksError(
                    f"loss of shape {loss.shape} is not one value per rank "
                    f"block ({blocks},): the loss function is not block-aware"
                )
            loss.backward(np.ones(blocks, dtype=loss.dtype))
    finally:
        if on_ready is not None:
            model.clear_grad_ready_hooks()
    if on_ready is None:
        for name, p in model.named_parameters():
            land(name, p.grad)
    return loss.data.tolist()


@contextlib.contextmanager
def _specialized_kernels() -> Iterator[None]:
    """Allow validated single-GEMM conv kernels for the enclosed step.

    Scoped, not global: the specialized kernels are accepted per shape
    only after a byte-identity probe against the einsum reference, but
    probing itself perturbs allocator state (see docs/performance.md),
    so code outside a training step keeps the conservative default.
    """
    prior = set_kernel_specialization(True)
    try:
        yield
    finally:
        set_kernel_specialization(prior)


class SerialRankExecutor:
    """The in-process rank backend: a loop over ranks in this process.

    Same surface as :class:`ProcessRankExecutor` — ``arena``,
    :meth:`compute`, :meth:`close` — so the step (:func:`phased_step`)
    never branches on the backend.  Each rank's (possibly accumulated)
    gradient is written straight into its arena row.
    """

    def __init__(
        self,
        model: Module,
        loss_fn: Callable,
        x: np.ndarray,
        y: np.ndarray,
        microbatch: int,
        accumulation: int,
        arena: GradientArena,
    ):
        self.model = model
        self.loss_fn = loss_fn
        self.x, self.y = x, y
        self.microbatch = microbatch
        self.accumulation = accumulation
        self.arena = arena

    def compute(
        self,
        rank_indices: Sequence[np.ndarray],
        ranks: Optional[Sequence[int]] = None,
        on_ready: Optional[Callable[[str], None]] = None,
    ) -> List[float]:
        """Forward/backward for every listed rank, in order; returns losses.

        ``ranks`` names the arena row per index array for partial-world
        steps; default ``0..len-1``.  ``on_ready(name)``, when given,
        fires as the last listed rank's backward completes each
        parameter's gradient — the moment every row holds it — so a
        bucket plan can reduce a layer while earlier layers are still
        backpropagating.  Accumulated gradients are rescaled after the
        last microbatch, so ``accumulation > 1`` reports no readiness.
        """
        ranks = range(len(rank_indices)) if ranks is None else ranks
        *head, last = zip(ranks, rank_indices)
        losses = [self._rank_gradient(rank, idx) for rank, idx in head]
        losses.append(
            self._rank_gradient(*last, on_ready if self.accumulation == 1 else None)
        )
        return losses

    def _rank_gradient(self, rank: int, idx: np.ndarray, on_ready=None) -> float:
        views = self.arena.views(rank)
        if self.accumulation == 1:
            return compute_grads_into(
                self.model, self.loss_fn, self.x[idx], self.y[idx], views,
                on_ready=on_ready,
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

    def close(self) -> None:
        """Nothing to release: the arena is ordinary process memory."""


class StackedAutograd:
    """The generic rank-fused engine: rank-stacked autograd.

    One :func:`compute_grads_into` over the listed ranks' stacked
    microbatches, inside :func:`~repro.tensor.rank_blocks` — the model's
    own forward and the tensor library's backward, with every GEMM that
    touches a parameter run per rank block.  What every rank-order-free
    model without a registered engine computes through, behind
    :class:`FusedRankExecutor`'s byte validation.  One rank is the plain
    loop already, so it serves calls of two ranks or more.
    """

    min_blocks = 2

    def __init__(self, model: Module, loss_fn: Callable):
        self.model = model
        self.loss_fn = loss_fn

    def step(self, x, y, rank_views, ready_cb=None) -> List[float]:
        return compute_grads_into(
            self.model, self.loss_fn, x, y, rank_views, on_ready=ready_cb
        )


class FusedRankExecutor(SerialRankExecutor):
    """The serial backend plus a rank-fused engine.

    ``engine`` — the model's registered engine (see
    :func:`~repro.core.overlap.build_fused_engine`) or
    :class:`StackedAutograd` — runs the listed ranks' forward/backward
    as one pass over their stacked microbatches into the same arena
    rows, firing ``on_ready(name)`` the moment every listed rank's
    gradient for a parameter has landed.  It serves every call of at
    least ``engine.min_blocks`` ranks with ``accumulation == 1`` and
    equal-length rank blocks — any ``ranks`` subset, with or without
    ``on_ready``; every other call runs the inherited per-rank loop.

    The first call of each shape ``(number of blocks, stacked batch
    shape)`` is computed both ways and compared byte for byte; a
    mismatch demotes the engine for good (``engine`` becomes ``None``),
    and so does a :class:`~repro.tensor.RankBlocksError` (an op the
    stacked pass cannot keep per rank).  A batch it rejects — it checks
    its preconditions (``ValueError``/``TypeError``, e.g.
    ``ignore_index`` targets for the MiniBERT engine) before touching
    the arena — takes the per-rank loop, bit-identical by that
    validation.  Once a readiness callback has fired, any error
    propagates: buckets have already run on the reported rows.
    """

    def __init__(self, engine, *args):
        super().__init__(*args)
        self.engine = engine
        self._validated = set()  # call shapes byte-compared so far
        self._dests: Dict[Tuple[int, ...], RankRows] = {}  # rows -> landing views

    def compute(
        self,
        rank_indices: Sequence[np.ndarray],
        ranks: Optional[Sequence[int]] = None,
        on_ready: Optional[Callable[[str], None]] = None,
    ) -> List[float]:
        if (
            self.engine is not None and self.accumulation == 1
            and len(rank_indices) >= self.engine.min_blocks
            and len({len(idx) for idx in rank_indices}) == 1
        ):
            rows = tuple(range(len(rank_indices)) if ranks is None else ranks)
            idx = np.concatenate(rank_indices)
            x, y = self.x[idx], self.y[idx]
            views = self._dests.get(rows)
            if views is None:
                views = self._dests[rows] = self.arena.rank_rows(rows)
            shape = (len(rows), x.shape)
            marked = []
            ready = None
            if on_ready is not None:
                def ready(name):
                    marked.append(name)
                    on_ready(name)

            try:
                if shape not in self._validated:
                    losses = self._validate(rank_indices, rows, x, y, views)
                    self._validated.add(shape)
                    if on_ready is None:
                        return losses
                if self.engine is not None:
                    return self.engine.step(x, y, views, ready_cb=ready)
            except (RankBlocksError, ValueError, TypeError) as exc:
                if marked:  # not a precondition: buckets have already run
                    raise
                if isinstance(exc, RankBlocksError):
                    self.engine = None  # an op it cannot stack, for good
        return super().compute(rank_indices, ranks, on_ready)

    def _validate(self, rank_indices, rows, x, y, views) -> List[float]:
        """Byte-compare the engine with the per-rank loop on one batch
        (one extra forward/backward, once per call shape); demote it on
        any mismatch.  Returns the loop's losses — its rows are what the
        arena is left holding."""
        fused_losses = self.engine.step(x, y, views, ready_cb=None)
        fused_rows = self.arena.data[list(rows)]
        serial_losses = super().compute(rank_indices, rows)
        if fused_losses != serial_losses or any(  # row by row: no second copy
            fused.tobytes() != self.arena.row(r).tobytes()
            for fused, r in zip(fused_rows, rows)
        ):
            self.engine = None
        return serial_losses


def _in_process_executor(model: Module, loss_fn: Callable, *args) -> SerialRankExecutor:
    """The one place the compute path is chosen, by the model alone: a
    :class:`FusedRankExecutor` over the model's registered fused engine
    (MiniBERT), else over :class:`StackedAutograd` when the model is
    rank-order-free (:func:`~repro.nn.rank_order_hazard`), else the
    plain :class:`SerialRankExecutor`."""
    engine = build_fused_engine(model)
    if engine is None and rank_order_hazard(model) is None:
        engine = StackedAutograd(model, loss_fn)
    if engine is None:
        return SerialRankExecutor(model, loss_fn, *args)
    return FusedRankExecutor(engine, model, loss_fn, *args)


class _ProcessRankWorker:
    """One rank's state inside a worker process (never crosses the pipe).

    Built by :func:`_process_rank_bootstrap` from a picklable spec.  The
    worker attaches to the parent's shared gradient arena (its own row
    is the gradient destination) and to a one-row parameter arena the
    parent refreshes before every dispatch, so model replicas stay
    byte-identical across processes without any per-step serialization.
    The compute itself is the serial backend's executor over the shared
    arena (the model's fused engine at one rank, where it has one),
    restricted to this rank's row.

    The worker also *finishes* its row (:meth:`_finish`), which makes it
    the live home of this rank's optimizer and of its row of the codec
    stack's error-feedback residuals.  Both are built from the parent's
    own objects, which travel in the spec beside the model (fork
    inherits them, spawn pickles them — an ``optimizer_factory`` never
    crosses), so a pool built over restored state needs no push.

    Control messages:

    ``("step", indices, finish, scale)``
        Forward/backward into the row; with ``finish`` the row is
        finished before the reply ``(loss, overflow)``.
    ``("finish", scale)``
        Finish the row as it stands (a probe read it raw first);
        replies ``overflow``.
    ``("rollback",)``
        The step was skipped: restore the pre-step residual row.
    ``("pull", slots, residuals)`` / ``("push", step_count, state)``
        Copy the optimizer's ``(step_count, state)`` and/or the residual
        row out; overwrite the optimizer's from the parent's copy.
    ``("combine", src, kind, final, n)``
        One scheduled hop of the worker-parallel tree reduce: combine
        this rank's arena row with rank ``src``'s row in place via the
        registry strategy of the spec's reducer (the parent's
        :class:`~repro.core.strategies.StrategyReducer`, pickled with
        the spec), applying ``finalize_pair`` when this is the
        schedule's root hop.
    """

    def __init__(self, rank: int, spec: Dict):
        self.rank = rank
        layout = spec["layout"]
        self.grads = SharedGradientArena.attach(
            spec["grad_segment"], layout, spec["num_ranks"], dtype=spec["grad_dtype"]
        )
        self.params = SharedGradientArena.attach(
            spec["param_segment"], layout, 1, dtype=spec["param_dtype"]
        )
        self.model = spec["model"]
        self._named = list(self.model.named_parameters())
        self.local = _in_process_executor(
            self.model, spec["loss_fn"], spec["x"], spec["y"],
            spec["microbatch"], spec["accumulation"], self.grads,
        )
        self._row = self.grads.data[rank:rank + 1]  # what finishing rewrites
        # This rank's own optimizer (post-optimizer Adasum only), over
        # this process's replica: its params *are* the model's.  Adam and
        # SGD replay in place on the row, from the shared parameter row.
        optimizers = spec["rank_optimizers"]
        self.optimizer = optimizers[rank] if optimizers else None
        self.mirror = None if self.optimizer is None else FlatOptimizerMirror.build(
            [self.optimizer], self._named, self._row, self.params.data[0]
        )
        pipeline = spec["pipeline"]
        self.pipeline = None if pipeline is None else pipeline.for_row(
            rank, layout.total_size, layout.boundaries()
        )
        reducer = spec["reducer"]
        self._strategy = reducer.strategy
        self._boundaries = layout.boundaries() if reducer.per_layer else None
        # The parent computes inside phased_step's specialization scope;
        # both sides must run the exact same kernels (bit-exactness
        # contract), and a worker does nothing but training steps.
        set_kernel_specialization(True)

    def _load_start(self) -> None:
        """Reset the replica to the shared start: the parameter row the
        parent published for this step."""
        starts = self.params.views(0)
        for name, p in self._named:
            np.copyto(p.data, starts[name])

    def _finish(self, scale: Optional[float]) -> bool:
        """Turn this rank's gradient row into its wire tensor, in place.

        The row-local half of ``prepare_wire_arena``, expression for
        expression: for post-optimizer Adasum this rank's optimizer
        steps from the shared start (the parameter row) and the row
        becomes ``p.data - start`` — replayed in place on the row by
        the :class:`~repro.core.overlap.FlatOptimizerMirror` for Adam
        and SGD, through the real optimizer otherwise; with a codec
        stack the row then round-trips through this rank's pipeline at
        the fp16 ``scale`` the parent fixed for the step.  Returns the
        row's overflow flag.
        """
        if self.mirror is not None:
            self.mirror.begin_step()
            self.mirror.rewrite(0, self._row.shape[1])
        elif self.optimizer is not None:
            optimizer_delta(
                self.optimizer, self._named, self.params.views(0),
                self.grads.views(self.rank),
            )
            self.model.zero_grad()
        if self.pipeline is None:
            return False
        self.pipeline.begin_step(scale)
        return self.pipeline.encode_block(self._row, (0,))

    def _combine(self, src: int, kind: str, final: bool, n: int) -> int:
        acc = self.grads.row(self.rank)
        other = self.grads.row(src)
        self._strategy.pair_combine(kind, acc, other, self._boundaries, out=acc)
        if final:
            self._strategy.finalize_pair(acc, n)
        self.grads.bump_progress(self.rank)
        return int(self.grads.progress[self.rank])

    def __call__(self, msg):
        op = msg[0]
        if op == "step":
            _, indices, finish, scale = msg
            self._load_start()
            loss = self.local.compute([indices], ranks=[self.rank])[0]
            return loss, self._finish(scale) if finish else False
        if op == "combine":
            return self._combine(*msg[1:])
        if op == "finish":
            return self._finish(msg[1])
        if op == "rollback":
            return self.pipeline.restore_residuals()
        if op == "pull":
            _, slots, residuals = msg
            opt = self.optimizer
            return (
                (opt.step_count, opt.state) if slots else None,
                self.pipeline.residual_row(0) if residuals else None,
            )
        if op == "push":
            self.optimizer.step_count, self.optimizer.state = msg[1:]
            return None
        raise ValueError(f"unknown control message {op!r}")

    def close(self) -> None:
        # Live views of the rows (the mirror rewrites one, reads the
        # other) would keep the mappings open.
        self._row = self.mirror = None
        self.grads.close()
        self.params.close()


def _process_rank_bootstrap(rank: int, spec: Dict) -> _ProcessRankWorker:
    """Top-level (spawn-picklable) bootstrap handed to the transport."""
    return _ProcessRankWorker(rank, spec)


def _param_publisher(model: Module, param_arena: SharedGradientArena) -> Callable[[], None]:
    """``publish()``: copy the model's current weights into the one-row
    parameter arena every worker reads its replica from.  A closure over
    the two only, so handing it around creates no reference cycle."""
    pviews = param_arena.views(0)
    named = list(model.named_parameters())

    def publish() -> None:
        for name, p in named:
            np.copyto(pviews[name], p.data)

    return publish


class _WorkerRows:
    """Parent-side handle on the rows the rank processes finish and the
    state they hold doing it: ``DistributedOptimizer.row_home`` under
    the process backend.

    ``wire_step`` drives the step half — :meth:`open_step`, then
    :meth:`finish` from ``prepare_wire_arena``, then :meth:`close_step`
    — and nothing here costs a pipe round on an ordinary step: the
    compute round's frames carry the finish flag and the fp16 scale, its
    replies the overflow flags (:meth:`frame_fields` / :meth:`collect`).
    :meth:`pull` / :meth:`push` are the one seam between the workers'
    live optimizer slots and residual rows and the parent's copies.
    """

    def __init__(
        self,
        dist_opt: DistributedOptimizer,
        arena: SharedGradientArena,
        transport: ProcessTransport,
        publish_params: Callable[[], None],
    ):
        self.dist_opt = dist_opt
        self.arena = arena
        self.transport = transport
        self.publish_params = publish_params
        self.pipeline = dist_opt.wire_pipeline
        #: Finishing a row does something (else: no flag, no round).
        self.active = dist_opt.post_optimizer_mode or self.pipeline is not None
        self._early: Optional[Dict] = None    # open step compute may finish rows of
        self._scale: Optional[float] = None
        self._flags: Dict[int, bool] = {}     # rank -> overflow, rows finished so far
        self._in_step = False
        self._dirty = False                   # workers stepped since the last pull

    # -- the step ------------------------------------------------------
    def open_step(self, arena, ctx: Dict, early: bool) -> None:
        """A wire step opened over ``ctx["ranks"]``; with ``early`` each
        of them may finish its row the moment it has computed it."""
        if arena is not self.arena:
            raise ValueError(
                "this optimizer's rows are finished by its rank processes, "
                "over the executor's shared arena only"
            )
        self._in_step = True
        self._flags = {}
        self._early = ctx if early and self.active else None
        self._scale = None if self.pipeline is None else self.pipeline.step_scale

    def frame_fields(self, rank: int) -> Tuple[bool, Optional[float]]:
        """``(finish, scale)`` of ``rank``'s compute frame: only the open
        step's participants are finished (a dropped straggler computes,
        but its optimizer must not step)."""
        ctx = self._early
        return ctx is not None and rank in ctx["ranks"], self._scale

    def collect(self, ranks: Sequence[int], replies: Sequence[Tuple[float, bool]]) -> None:
        """Book the overflow flags of the rows a compute round finished
        (a non-participant's is never read)."""
        if self._early is not None:
            self._flags.update((r, overflow) for r, (_, overflow) in zip(ranks, replies))

    def finish(self, ctx: Dict) -> bool:
        """Every participating row is finished; returns the OR of their
        fp16 overflow flags.  Rows the compute round left raw (a probe,
        or no compute at all) are finished now, in one ``finish`` round
        of the same worker code."""
        if not self.active:
            return False
        todo = [r for r in ctx["ranks"] if r not in self._flags]
        if todo:
            self.publish_params()
            flags = self.transport.call(
                [("finish", self._scale)] * len(todo), ranks=todo, op="finish"
            )
            self._flags.update(zip(todo, flags))
        self._dirty = True
        return any(self._flags[r] for r in ctx["ranks"])

    def close_step(self, ctx: Dict, skipped: bool) -> None:
        """The step's verdict is in; a skipped step rolls the
        participants' residual rows back (one round, skipped steps only)."""
        if skipped and self.pipeline.error_feedback:
            ranks = ctx["ranks"]
            self.transport.call(
                [("rollback",)] * len(ranks), ranks=ranks, op="rollback"
            )
        self._early = None
        self._in_step = False

    # -- the state seam --------------------------------------------------
    def _sync(self, payloads: Sequence) -> List:
        """One state round with every worker, outside the fault plan: it
        is not part of a step, so it must not move what ``after_ops=k``
        counts."""
        transport = self.transport
        faults, transport.faults = transport.faults, None
        try:
            return transport.call(payloads, op="sync")
        finally:
            transport.faults = faults

    def pull(self, residuals: bool = False) -> None:
        """Copy the workers' optimizer ``step_count`` and slots — when a
        step ran since the last pull — and, with ``residuals``, their
        error-feedback rows back into the parent's objects."""
        opts = self.dist_opt.rank_optimizers
        slots = self._dirty and bool(opts)
        residuals = residuals and self.pipeline is not None and self.pipeline.error_feedback
        if not (slots or residuals):
            return
        arena = self.arena
        replies = self._sync([("pull", slots, residuals)] * arena.num_ranks)
        if residuals:
            self.pipeline.bind(
                arena.num_ranks, arena.layout.total_size, arena.layout.boundaries()
            )
        for rank, (state, row) in enumerate(replies):
            if slots:
                opts[rank].step_count = state[0]
                opts[rank].state.clear()
                opts[rank].state.update(state[1])
            if residuals:
                self.pipeline.set_residual_row(rank, row)
        self._dirty = False

    def push(self) -> None:
        """Overwrite the workers' optimizer state with the parent's
        (a checkpoint or snapshot loaded onto a live pool)."""
        opts = self.dist_opt.rank_optimizers
        if opts:
            self._sync([("push", opt.step_count, opt.state) for opt in opts])
            self._dirty = False

    def release(self) -> None:
        """The pool is closing.  A healthy one hands its state back
        first; one that died inside a step has nothing the parent may
        use — the failure path restores from a snapshot, never pulls."""
        if self.dist_opt.row_home is not self:
            return
        self.dist_opt.row_home = None
        if not self._in_step:
            try:
                self.pull(residuals=True)
            except CommError:
                pass  # a worker died between steps: its state died with it


class ProcessRankExecutor:
    """Parent-side driver of the process-per-rank execution backend.

    Owns the shared *gradient* arena the workers write their rows into,
    the one-row *parameter* arena (the broadcast channel: parent writes
    current weights, every worker reads them before computing) and a
    :class:`~repro.comm.transport.ProcessTransport` whose workers attach
    to both.  A step is two shared-memory writes and ``2 * world`` tiny
    pipe messages: params out, ``("step", indices, finish, scale)`` per
    rank, ``(loss, overflow)`` back — gradient payloads never serialize.

    The workers also *finish* their rows — this rank's optimizer and
    Figure-3 delta rewrite, this row's wire encode — so they hold the
    live per-rank optimizer slots and error-feedback residual rows of
    ``dist_opt``; :attr:`rows` (a :class:`_WorkerRows`, attached as
    ``dist_opt.row_home``) is the parent's handle on both.  The workers
    are built from ``dist_opt``'s own objects as they are at
    construction, and a healthy :meth:`close` copies their state back,
    so executors can come and go over one optimizer (pause/resume).

    Under ``reduce_mode="workers"`` the executor also runs phase 2: the
    parent stops reducing and instead drives the reducer's
    level-by-level pair schedule over the pipes
    (:meth:`worker_reduce`) — at each tree level the surviving worker of
    every pair combines its peer's arena row into its own, in shared
    memory, in place.  The parent only sequences levels and collects
    acks, so the ``log2(world)`` combines of a level run concurrently
    across worker processes.

    Built by :func:`build_rank_executor`.  ``faults``/``tracer``/
    ``timeout``/``start_method`` forward to the transport; the workers
    replay ``dist_opt.reducer``'s cell.
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
        dist_opt: DistributedOptimizer,
        timeout: float,
        faults=None,
        tracer: Optional[CommTracer] = None,
        start_method: Optional[str] = None,
    ):
        if not isinstance(arena, SharedGradientArena):
            raise TypeError(
                "ProcessRankExecutor needs a SharedGradientArena; got "
                f"{type(arena).__name__}"
            )
        self.reducer = dist_opt.reducer
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
        self._segments = (arena.name, self.param_arena.name)
        self._publish_params = _param_publisher(model, self.param_arena)
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
            "reducer": dist_opt.reducer,
            # The parent's own objects, as they are now: each worker
            # takes its rank's optimizer and its row of the residuals.
            "rank_optimizers": dist_opt.rank_optimizers,
            "pipeline": dist_opt.wire_pipeline,
        }
        try:
            self.transport = ProcessTransport(
                arena.num_ranks,
                _process_rank_bootstrap,
                spec,
                timeout=timeout,
                faults=faults,
                tracer=tracer,
                start_method=start_method,
            )
        except BaseException:
            self.param_arena.unlink()
            raise
        #: The rows' live home from here to :meth:`close`.
        self.rows = dist_opt.row_home = _WorkerRows(
            dist_opt, arena, self.transport, self._publish_params
        )

    def compute(
        self,
        rank_indices: Sequence[np.ndarray],
        ranks: Optional[Sequence[int]] = None,
        on_ready: Optional[Callable[[str], None]] = None,
    ) -> List[float]:
        """Run one step's forward/backward on every listed rank.

        Publishes current parameters to shared memory, dispatches per-
        rank sample indices, and returns losses in dispatch order;
        gradients are already sitting in the arena rows when this
        returns.  ``ranks`` names the target rank (= arena row) per
        payload for partial-world steps; default ``0..len-1``.
        ``on_ready`` is ignored: workers report nothing before their
        whole row is written.

        Inside a wire step that lets them, the participating workers
        also *finish* their rows before replying (see
        :class:`_WorkerRows`): the rows then hold wire tensors, not raw
        gradients, when this returns.
        """
        self._publish_params()
        ranks = list(range(len(rank_indices))) if ranks is None else list(ranks)
        payloads = [
            ("step", np.asarray(idx), *self.rows.frame_fields(rank))
            for rank, idx in zip(ranks, rank_indices)
        ]
        replies = self.transport.call(payloads, ranks=ranks)
        self.rows.collect(ranks, replies)
        return [loss for loss, _ in replies]

    def worker_reduce(self, participants: Optional[Sequence[int]] = None) -> np.ndarray:
        """Drive one worker-parallel tree reduce over the arena rows.

        Replays the reducer's level-ordered pair schedule: at each
        level every ``(dst, src)`` pair's *dst* worker combines *src*'s
        row into its own in place, and the level's remaining
        participants are listed as ``consult`` ranks so an injected kill
        of a passive peer still fails the round with structured
        ``rank_errors``.  Levels are separated by a full ack barrier
        (the pipe reply), which is what makes a row safe to read at the
        next level.  ``participants`` selects the rows taking part
        (default all, in rank order); schedule position ``i`` maps to
        ``participants[i]``, so non-power-of-two subsets decompose
        through the strategy's own power-of-two blocks.

        Returns the combined flat buffer — ``participants[0]``'s row,
        rewritten in place, byte-identical to
        ``reducer.reduce_arena(arena)`` on the same rows.  A failure at
        any level raises before anything is applied to the model, so a
        failed combine leaves training state untouched.
        """
        parts = (
            list(range(self.arena.num_ranks)) if participants is None
            else list(participants)
        )
        n = len(parts)
        root = self.arena.row(parts[0])
        if n == 1:
            return root
        # RunConfig checked the cell has a schedule at every world size.
        levels = self.reducer.strategy.pair_schedule(n)
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
        """Hand the workers' state back, stop them and unlink both
        segments (idempotent).

        The one teardown of the process backend, however the step ended:
        the unlinks run even when the shutdown raises (e.g. collecting a
        worker that died mid-combine), and nothing this executor owned
        may be left in ``/dev/shm`` when it returns — a preempted,
        paused or rebuilt world must never strand a segment.
        """
        try:
            try:
                self.rows.release()
            finally:
                self.transport.shutdown()
        finally:
            try:
                self.param_arena.unlink()
            finally:
                self.arena.unlink()
        leaked = set(self._segments) & set(leaked_shared_segments())
        assert not leaked, f"executor close leaked shared segments: {sorted(leaked)}"


_PARALLEL_HAZARDS = {
    "buffers": (
        'execution="processes" requires a model without registered '
        "buffers: running stats update in rank order under serial "
        "execution, which concurrent ranks cannot reproduce"
    ),
    "dropout": (
        'execution="processes" requires inactive dropout '
        "(p == 0): serial ranks consume the dropout RNG in rank "
        "order, which concurrent ranks cannot reproduce"
    ),
}


def _check_parallel_safe(model: Module) -> None:
    """Reject models whose forward pass has rank-order-dependent effects."""
    hazard = rank_order_hazard(model)
    if hazard is not None:
        raise ValueError(_PARALLEL_HAZARDS[hazard])


def build_rank_executor(
    model: Module,
    loss_fn: Callable,
    dist_opt: DistributedOptimizer,
    x: np.ndarray,
    y: np.ndarray,
    config: RunConfig,
    accumulation: int = 1,
    *,
    faults: Optional[FaultPlan] = None,
    tracer: Optional[CommTracer] = None,
    start_method: Optional[str] = None,
):
    """The one place a rank backend (and its arena) is chosen.

    ``config.execution="serial"`` gives a :class:`SerialRankExecutor`
    over a heap :class:`~repro.core.arena.GradientArena` — a
    :class:`FusedRankExecutor` when the model has a registered fused
    engine or is rank-order-free (see :func:`_in_process_executor`);
    ``"processes"`` a :class:`ProcessRankExecutor` over a
    :class:`~repro.core.arena.SharedGradientArena`, whose transport
    gets ``config.timeout`` as its collect deadline and ``faults`` (a
    :class:`~repro.comm.faults.FaultPlan`), ``tracer`` and
    ``start_method`` as given — the serial backend has no transport.
    ``faults`` is not read from the config: an elastic config's faults
    are the schedule its supervisor injects itself.  The world size
    and — for ``config.reduce_mode="workers"`` — the reduction cell the
    workers replay come from ``dist_opt``.  The returned executor owns
    its arena(s); ``close()`` releases them.  ``config`` was validated
    when it was built, so nothing about it is checked here.
    """
    num_ranks = dist_opt.num_ranks
    if config.execution == "serial":
        return _in_process_executor(
            model, loss_fn, x, y, config.microbatch, accumulation,
            GradientArena.from_model(model, num_ranks),
        )
    _check_parallel_safe(model)
    arena = SharedGradientArena.from_model(model, num_ranks)
    try:
        return ProcessRankExecutor(
            model, loss_fn, x, y, config.microbatch, accumulation, arena,
            dist_opt, timeout=config.timeout, faults=faults, tracer=tracer,
            start_method=start_method,
        )
    except BaseException:
        arena.unlink()
        raise


def phased_step(
    executor,
    dist_opt: DistributedOptimizer,
    rank_indices: Sequence[np.ndarray],
    *,
    ranks: Optional[Sequence[int]] = None,
    participants: Optional[Sequence[int]] = None,
    reduce_fn: Optional[Callable] = None,
    probe: Optional[OrthogonalityProbe] = None,
    step: int = 0,
    plan: Optional[OverlapScheduler] = None,
) -> List[float]:
    """The one data-parallel step: compute -> probe -> buckets -> close -> apply.

    Inside one :meth:`~repro.core.DistributedOptimizer.wire_step` every
    listed rank's gradient is computed on the same starting weights
    into ``executor.arena`` (``ranks`` names the arena row per index
    array; default ``0..len-1``) and the optional ``probe`` samples the
    raw per-rank gradients; leaving it reduces and applies the update —
    as one whole-row bucket over the ``participants`` rows (default:
    all), reduced with ``reduce_fn(arena, ctx)`` when given, or, with a
    ``plan``, bucket by bucket: the executor is handed the plan's
    readiness callback (unless a probe needs every row raw), so a bucket
    runs the moment its last gradient lands.  Both trainers call this:
    :class:`ParallelTrainer` for the full world, the elastic supervisor
    for whatever ranks are live — what differs between them is only the
    ``reduce_fn`` and what happens around the step.

    Returns the per-rank losses; when the reduce raises, nothing has
    been applied to the model.
    """
    arena = executor.arena
    with _specialized_kernels():
        with dist_opt.wire_step(
            arena, participants, reduce_fn, plan, raw=probe is not None
        ) as on_ready:
            losses = executor.compute(rank_indices, ranks=ranks, on_ready=on_ready)
            if probe is not None:
                rows = range(len(rank_indices)) if ranks is None else ranks
                # Zero-copy per-rank views; the reduction itself runs flat.
                probe.record([arena.views(r) for r in rows], step=step)
    return losses


class ParallelTrainer:
    """Simulates ``config.num_ranks`` data-parallel workers over one model.

    Built from a :class:`~repro.core.config.RunConfig` alone: the
    reduction cell, world size, microbatch, seed, wire format and the
    execution strategy (``execution``, ``reduce_mode``, ``overlap``,
    ``bucket_cap_mb``, ``timeout``, ``faults``) are its fields and are
    documented there.  The trainer builds its optimizer with
    :class:`~repro.core.distributed_optimizer.DistributedOptimizer`
    from it and keeps ``config``; the keywords below are its own.

    Parameters
    ----------
    model:
        Shared replica (identical across simulated ranks).
    loss_fn:
        ``loss_fn(logits, targets) -> scalar Tensor``.
    optimizer_factory:
        ``f(params) -> Optimizer``; called once per rank in Figure-3
        (post-optimizer) mode and once total otherwise.
    x, y:
        Full training set; sharded across ranks per epoch.
    config:
        The run.  Its ``faults`` may be a
        :class:`~repro.comm.faults.FaultPlan` (handed to the process
        transport), not an elastic schedule.
    accumulation:
        Microbatches locally accumulated (summed) before reduction —
        plain gradient accumulation, not the local-SGD variant.
    probe:
        Optional orthogonality probe sampled on raw per-rank gradients.
    overlap_tracer:
        Optional :class:`~repro.comm.tracing.CommTracer` recording the
        wall-clock overlap timeline (compute lane vs per-bucket
        reduction lane).
    comm_tracer, start_method:
        Process-backend knobs forwarded to the
        :class:`~repro.comm.transport.ProcessTransport`: a wall-clock
        tracer of control-plane traffic and the multiprocessing start
        method (default fork where available).
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
        accumulation: int = 1,
        probe: Optional[OrthogonalityProbe] = None,
        overlap_tracer: Optional[CommTracer] = None,
        comm_tracer: Optional[CommTracer] = None,
        start_method: Optional[str] = None,
    ):
        if accumulation < 1:
            raise ValueError("accumulation must be >= 1")
        if config.faults is not None and not isinstance(config.faults, FaultPlan):
            raise ValueError(
                "ParallelTrainer takes faults as a FaultPlan; an "
                "ElasticSchedule is injected by ElasticTrainer"
            )
        self.config = config
        self.dist_opt = DistributedOptimizer(model, optimizer_factory, config)
        tune_allocator()
        self.model = model
        self.loss_fn = loss_fn
        self.x, self.y = x, y
        self.accumulation = accumulation
        self.probe = probe
        self.num_ranks = config.num_ranks
        self.sampler = ShardedSampler(len(x), self.num_ranks, seed=config.seed)
        self.iterator = BatchIterator(self.sampler, config.microbatch * accumulation)
        self.global_step = 0
        # The rank backend and its flat-buffer gradient arena: every
        # rank's gradients live in one preallocated contiguous row (in
        # OS shared memory under the process backend, so workers write
        # them directly) and reduction runs flat kernels over the rows.
        self.executor = build_rank_executor(
            model, loss_fn, self.dist_opt, x, y, config, accumulation,
            faults=config.faults, tracer=comm_tracer, start_method=start_method,
        )
        #: The bucket plan every step is handed (``None``: whole rows).
        #: An overlap run without a cap buckets at 1 MB.
        self.plan: Optional[OverlapScheduler] = (
            OverlapScheduler(
                self.dist_opt, self.arena,
                bucket_cap_mb=1.0 if config.bucket_cap_mb is None else config.bucket_cap_mb,
                tracer=overlap_tracer,
            )
            if config.overlap else None
        )

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
    ) -> "ParallelTrainer":
        """The constructor, under the name the benchmark harness calls."""
        return cls(model, loss_fn, optimizer_factory, x, y, config, **kwargs)

    @property
    def effective_batch(self) -> int:
        return self.config.microbatch * self.accumulation * self.num_ranks

    def steps_per_epoch(self) -> int:
        return self.iterator.steps_per_epoch()

    @property
    def arena(self):
        """The per-rank flat gradient buffers (owned by the executor)."""
        return self.executor.arena

    def close(self) -> None:
        """Release execution-backend resources (idempotent).

        The rank executor is closed (workers shut down, every
        shared-memory segment unlinked) — the arena module's atexit
        sweep is only the last-resort backstop for callers that never
        get here (aborts, test crashes).
        """
        self.executor.close()

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
        reduce_fn = None  # the parent reduces: reducer.reduce_arena
        if self.config.reduce_mode == "workers":
            reduce_fn = lambda arena, ctx: self.executor.worker_reduce()
        losses = phased_step(
            self.executor, self.dist_opt, rank_indices,
            reduce_fn=reduce_fn, probe=self.probe, step=self.global_step,
            plan=self.plan,
        )
        self.global_step += 1
        return float(np.mean(losses))
