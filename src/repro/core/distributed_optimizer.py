"""Horovod-style ``DistributedOptimizer`` (paper Sections 4.1 and Figure 3).

Usage mirrors Horovod; :class:`~repro.train.ParallelTrainer` builds one
and drives it::

    trainer = ParallelTrainer.from_config(
        model, loss_fn, make_opt, x, y, RunConfig(op="adasum", num_ranks=8))
    trainer.train_step(rank_indices)   # one sample-index array per rank

With per-rank gradients already in hand, ``opt.step_arena(arena)``
applies one update from a :class:`~repro.core.arena.GradientArena`.

Semantics
---------
An op is its registered name (``"sum"``, ``"average"``, ``"adasum"``,
or any op added with :func:`~repro.core.strategies.register_strategy`),
and where it reduces is the fact its strategy declares
(:attr:`~repro.core.strategies.ReduceStrategy.post_optimizer`):

* ``sum`` / ``average`` — synchronous SGD: gradients are reduced
  *before* the (single, shared) optimizer update.
* ``adasum`` — the paper's subtlety (Figure 3): each rank applies its
  *own* optimizer (with its own state) to its local gradient starting
  from the shared model, the resulting model *deltas* (effective
  gradients) are combined with Adasum, and the shared model moves by
  the combined delta.  "The logic of optimizers should only apply to
  the smaller minibatches per node."

For stateless-ish optimizers (plain SGD / Momentum-SGD) Adasum may also
be applied pre-optimizer like a drop-in allreduce replacement —
``adasum_pre_optimizer=True`` selects that mode, which is what
Horovod's ``hvd.DistributedOptimizer(op=hvd.Adasum)`` does for SGD and
what the ResNet-50 experiments use.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.comm.bucketing import BucketPlan
from repro.comm.codec import build_pipeline
from repro.core.overlap import FlatOptimizerMirror
from repro.core.precision import DynamicScaler
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


class DistributedOptimizer:
    """Drives one logical model replicated over ``num_ranks`` simulated ranks.

    Parameters
    ----------
    model:
        The shared model replica (all ranks are kept identical, as the
        paper requires the user to guarantee).
    optimizer_factory:
        ``f(params) -> Optimizer``; called once per rank in Figure-3
        mode (per-rank optimizer state) and once total otherwise.
    config:
        The :class:`~repro.core.config.RunConfig` whose reduction fields
        (``op``, ``topology``, ``gpus_per_node``, ``per_layer``,
        ``adasum_pre_optimizer``, ``wire_codecs``) this optimizer runs.
        An op whose strategy declares ``post_optimizer`` reduces
        Figure-3 deltas unless ``adasum_pre_optimizer`` asks for one
        shared step on reduced raw gradients (valid for SGD-family
        optimizers).  Each step the participating rows are round-tripped
        through the codec stack in place at the wire boundary, so
        reduction arithmetic (Adasum dot products included) stays in
        full precision over exactly the values a receiver would decode.
        Bounded-error codecs carry per-row error-feedback residuals; an
        fp16 stage communicates with dynamic scaling (§4.4.1): an
        overflow backs the scale off and skips the step (one scaler
        verdict per step), exactly as the Horovod implementation does.
    num_ranks:
        The world size, when it is not ``config.num_ranks``: an elastic
        world rebuilt at its survivor count.
    """

    def __init__(
        self,
        model: Module,
        optimizer_factory: Callable[[list], Optimizer],
        config,
        num_ranks: Optional[int] = None,
    ):
        self.model = model
        self.num_ranks = config.num_ranks if num_ranks is None else num_ranks
        self.reducer = config.make_reducer()
        self.op = self.reducer.op
        self.topology = self.reducer.topology
        self._param_names = [name for name, _ in model.named_parameters()]
        self._params = dict(model.named_parameters())
        self._scaler = DynamicScaler() if "fp16" in config.wire_codecs else None
        self.wire_pipeline = build_pipeline(config.wire_codecs, scaler=self._scaler)
        #: Modeled encoded wire bytes (all participating rows) for the
        #: last prepared step, and accumulated over the run.
        self.last_wire_bytes = 0
        self.wire_bytes_total = 0
        self.skipped_steps = 0
        #: Who finishes rows — Figure-3 rewrite, wire encode — and so
        #: holds the live per-rank optimizer slots and error-feedback
        #: residuals: ``None`` is this process; the process backend
        #: attaches its rank workers (see ``train.trainer._WorkerRows``),
        #: and :meth:`pull_rank_state` / :meth:`push_rank_state` are then
        #: the one seam between their state and the copies held here.
        self.row_home = None
        self.post_optimizer_mode = (
            self.reducer.post_optimizer and not config.adasum_pre_optimizer
        )
        if self.post_optimizer_mode:
            self.rank_optimizers: List[Optimizer] = [
                optimizer_factory(model.parameters()) for _ in range(self.num_ranks)
            ]
            self.optimizer: Optional[Optimizer] = None
        else:
            self.optimizer = optimizer_factory(model.parameters())
            self.rank_optimizers = []
        # The arena the mirror rewrites, the mirror, and its starts as
        # named views (see :meth:`optimizer_mirror`).
        self._mirror_arena = None
        self._mirror: Optional[FlatOptimizerMirror] = None
        self._mirror_starts: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def lr(self) -> float:
        opt = self.optimizer or self.rank_optimizers[0]
        return opt.lr

    @property
    def scaler(self) -> Optional[DynamicScaler]:
        """The fp16 stage's dynamic scaler (``None`` without one)."""
        return self._scaler

    def pull_rank_state(self, residuals: bool = False) -> None:
        """Make ``rank_optimizers`` (and, with ``residuals``, the codec
        stack's error-feedback rows) current before they are read.

        A no-op unless rank processes hold the live copies
        (:attr:`row_home`); every reader of per-rank state — snapshots,
        checkpoints, a pause — calls this first.
        """
        if self.row_home is not None:
            self.row_home.pull(residuals)

    def push_rank_state(self, residuals: bool = False) -> None:
        """Hand ``rank_optimizers`` state written here (a checkpoint or
        snapshot loaded onto a live pool) — and, with ``residuals``, the
        codec stack's error-feedback rows — to whoever holds the live
        copies."""
        if self.row_home is not None:
            self.row_home.push(residuals)

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def step_arena(self, arena, reduce_fn=None, ranks: Optional[Sequence[int]] = None) -> None:
        """Apply one distributed update from a filled
        :class:`~repro.core.arena.GradientArena`: a whole-row
        :meth:`wire_step` with nothing left to compute."""
        with self.wire_step(arena, ranks, reduce_fn):
            pass

    @contextlib.contextmanager
    def wire_step(
        self, arena, ranks: Optional[Sequence[int]] = None, reduce_fn=None, plan=None,
        raw: bool = False,
    ) -> Iterator[Optional[Callable[[str], None]]]:
        """The one wire step, bracketing whatever fills ``arena``: begin ->
        per bucket [Figure-3 rewrite -> encode -> reduce] -> end -> apply.

        Entering binds the codec stack and fixes the step's fp16 scale;
        the body computes the gradients; leaving runs every bucket that
        has not run yet, closes the step with one scaler verdict (skip,
        byte booking) and applies the combined update.  A body or reduce
        that raises leaves the model untouched.

        Without a ``plan`` the step is one whole-row bucket over the
        ``ranks`` rows (default: all).  ``reduce_fn(arena, ctx) -> flat
        buffer`` swaps out *who reduces* the prepared rows — the process
        backend's worker-parallel tree reduce and the elastic runtime's
        cluster collective plug in here, reading the participants
        (``ctx["ranks"]``) and the modeled per-row wire bytes of the codec
        stack (``ctx["leaf_nbytes"]``, ``None`` without one) from the step
        context.  It is not called on a skipped step (fp16
        overflow).

        A ``plan`` (an :class:`~repro.core.overlap.OverlapScheduler`
        over the full world) drives the same bucket stage in readiness
        order: the step yields its callback, the body calls it with a
        parameter name once every rank's gradient for it is final, and a
        bucket runs the moment its last gradient lands.  The yield is
        ``None`` when there is nothing to overlap (no plan, one bucket).

        ``raw`` says the body reads the rows as raw per-rank gradients
        after computing them (an orthogonality probe): nothing may be
        rewritten or encoded before the body ends, so no readiness
        callback is yielded and a :attr:`row_home` finishes its rows in
        a round of their own instead of as part of compute.
        """
        if arena.num_ranks != self.num_ranks:
            raise ValueError(
                f"expected a {self.num_ranks}-rank arena, got {arena.num_ranks}"
            )
        ctx: Dict = {
            "ranks": list(range(arena.num_ranks)) if ranks is None else list(ranks),
            "starts": None, "overflow": False, "nbytes": 0, "leaf_nbytes": None,
        }
        pipe = self.wire_pipeline
        if pipe is not None:
            self._bind_pipeline(arena)
            pipe.begin_step()  # fixes the fp16 scale for every bucket
        home = self.row_home
        if home is not None:
            home.open_step(arena, ctx, early=not raw)
        combined = None
        if plan is not None:
            on_ready = plan.begin(ctx)
            yield None if raw else on_ready
            combined = plan.flush()
        else:
            yield None
            if self.prepare_wire_arena(arena, ctx):
                if pipe is not None:
                    ctx["leaf_nbytes"] = pipe.wire_nbytes()
                if reduce_fn is not None:
                    combined = reduce_fn(arena, ctx)
                elif ranks is None:
                    combined = self.reducer.reduce_arena(arena)
                else:
                    combined = self.reducer.reduce_flat(
                        arena.data[ctx["ranks"]], arena.layout.boundaries()
                    )
        # One scaler verdict per step: an fp16 overflow backs the scale
        # off, rolls error-feedback residuals back and drops the step's
        # gradients.
        skipped = pipe is not None and pipe.end_step(ctx["overflow"])
        if home is not None:
            home.close_step(ctx, skipped)
        if skipped:
            self.skipped_steps += 1
            self.model.zero_grad()
            return
        self.last_wire_bytes = ctx["nbytes"]
        self.wire_bytes_total += ctx["nbytes"]
        self.apply_reduced_flat(combined, arena, ctx)

    def prepare_wire_arena(self, arena, ctx: Dict, lo: int = 0, hi: Optional[int] = None) -> bool:
        """The bucket stage: columns ``[lo, hi)`` of the rows become wire tensors.

        For post-optimizer Adasum (Figure 3) each participating rank's
        row is rewritten in place from its local gradient to its
        post-optimizer model delta by this optimizer's
        :class:`~repro.core.overlap.FlatOptimizerMirror`
        (:meth:`optimizer_mirror`), the one path for Adam and SGD: the
        step's first call snapshots the live parameters as the starts
        and opens the mirror's step over exactly the listed rows, and
        every call rewrites its columns.  The rank optimizers the mirror
        rejects (LAMB, LARS, AdamW) step for real on whole rows instead,
        and the model is restored to the shared starting point
        afterwards.  With a codec stack the columns then round-trip
        through the pipeline in place and their modeled encoded bytes
        are booked.

        With a :attr:`row_home` each rank process does both to its own
        (whole) row — as part of the compute round unless the step is
        ``raw`` — and what is left here is global: the OR of the rows'
        overflow flags and the byte booking.  The model never left the
        shared starting point, so the live parameters are the starts.

        Returns False once the step has overflowed: it will be skipped,
        so nothing more needs reducing.
        """
        hi = arena.layout.total_size if hi is None else hi
        ranks = ctx["ranks"]
        pipe = self.wire_pipeline
        if self.row_home is not None:
            ctx["overflow"] = self.row_home.finish(ctx)
            if self.post_optimizer_mode:
                ctx["starts"] = {name: p.data for name, p in self._params.items()}
                for rank in ranks:  # keeps ``lr`` exact between pulls
                    self.rank_optimizers[rank].step_count += 1
        else:
            if self.post_optimizer_mode:
                mirror = self.optimizer_mirror(arena)
                if mirror is None:
                    ctx["starts"] = self._rewrite_rows_to_deltas(arena, ranks)
                else:
                    if ctx["starts"] is None:  # the step's first columns
                        ctx["starts"] = starts = self._mirror_starts
                        for name, p in self._params.items():
                            np.copyto(starts[name], p.data)
                        mirror.begin_step(ranks)
                    mirror.rewrite(lo, hi)
            if pipe is not None and pipe.encode_block(arena.data, ranks, lo, hi):
                ctx["overflow"] = True
        width = (hi - lo) * arena.dtype.itemsize if pipe is None else pipe.wire_nbytes(lo, hi)
        ctx["nbytes"] += width * len(ranks)
        return not ctx["overflow"]

    def optimizer_mirror(self, arena) -> Optional[FlatOptimizerMirror]:
        """The :class:`~repro.core.overlap.FlatOptimizerMirror` that
        rewrites ``arena``'s rows in Figure-3 mode, built the first time
        a step runs over this arena (one per arena); ``None`` outside
        Figure-3 mode and for rank optimizers it cannot replay."""
        if arena is not self._mirror_arena:
            self._mirror_arena, self._mirror = arena, None
            if self.post_optimizer_mode:
                starts = np.empty(arena.layout.total_size, dtype=arena.dtype)
                self._mirror = FlatOptimizerMirror.build(
                    self.rank_optimizers, list(self._params.items()), arena.data, starts
                )
                self._mirror_starts = arena.unpack(starts, copy=False)
        return self._mirror

    def release_arena(self) -> None:
        """Forget the buffers bound to the arena the last step ran over:
        the mirror (which holds the arena's rows), its starts and the
        arena itself.  The optimizer slots and the codec stack's
        residual rows are state and stay; a later step over any arena
        builds a new mirror, which re-syncs from the slots."""
        self._mirror_arena = self._mirror = None
        self._mirror_starts = {}

    def _bind_pipeline(self, arena) -> None:
        """Bind the codec stack to ``arena``'s layout — to zero of its
        rows when a :attr:`row_home` encodes them, so no residual row is
        allocated, copied per step or rolled back here."""
        self.wire_pipeline.bind(
            0 if self.row_home is not None else arena.num_ranks,
            arena.layout.total_size, arena.layout.boundaries(),
        )

    def bucket_plan(self, arena, bucket_cap_mb: Optional[float]) -> BucketPlan:
        """The tensor-aligned reverse-order buckets a step reduces ``arena`` in.

        The one place a cap becomes a plan: ``None`` is a single
        whole-row bucket, and so is any cap under a whole-model op
        (``per_layer=False``), which combines the full row as one vector.
        """
        row_bytes = arena.layout.total_size * arena.dtype.itemsize
        whole = bucket_cap_mb is None or not self.reducer.per_layer
        cap_bytes = row_bytes if whole else max(1, int(bucket_cap_mb * (1 << 20)))
        return BucketPlan.for_layout(
            arena.layout, cap_bytes, itemsize=arena.dtype.itemsize
        )

    def apply_reduced_flat(self, combined: np.ndarray, arena, ctx: Dict) -> None:
        """Apply a reduced flat buffer produced from prepared arena rows."""
        if self.post_optimizer_mode:
            starts = ctx["starts"]
            delta = arena.unpack(combined, copy=False)
            for name, p in self._params.items():
                np.copyto(p.data, starts[name] + delta[name])
        else:
            views = arena.unpack(combined, copy=False)
            for name in self._param_names:
                self._params[name].grad = views[name]
            assert self.optimizer is not None
            self.optimizer.step()
        self.model.zero_grad()

    def _rewrite_rows_to_deltas(self, arena, ranks: Sequence[int]) -> Dict[str, np.ndarray]:
        """Figure 3 local half: turn each rank's gradient row into its
        post-optimizer model delta, in place; returns the start params."""
        starts = {name: p.data.copy() for name, p in self._params.items()}
        for rank in ranks:
            optimizer_delta(
                self.rank_optimizers[rank], self._params.items(), starts,
                arena.views(rank),
            )
        # Leave the model at the shared starting point until apply.
        for name, p in self._params.items():
            np.copyto(p.data, starts[name])
        self.model.zero_grad()
        return starts


def optimizer_delta(
    optimizer: Optimizer, params, starts: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
) -> None:
    """Figure 3's local half for one rank, through the real optimizer.

    From the shared ``starts`` the ``(name, Parameter)`` pairs in
    ``params`` (iterated twice) take one ``optimizer`` step on ``grads``
    (named views of the rank's row), and the row becomes the delta
    ``p - start``.  The parameters are left stepped and their ``.grad``
    bound to the row.  This is the path for optimizers a
    :class:`~repro.core.overlap.FlatOptimizerMirror` cannot replay.
    """
    for name, p in params:
        np.copyto(p.data, starts[name])
        p.grad = grads[name]
    optimizer.step()
    # The local gradient is consumed; its row becomes the delta.
    for name, p in params:
        np.subtract(p.data, starts[name], out=grads[name])
