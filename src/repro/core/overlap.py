"""Backprop/communication overlap over bucketed arena slices (§4.4.2-4.4.3).

Horovod hides allreduce latency behind backprop: gradients complete in
reverse layer order, get packed into fusion buckets, and each bucket's
reduction starts the moment its last tensor is ready.
:class:`OverlapScheduler` reproduces that *schedule* over the simulated
ranks' :class:`~repro.core.arena.GradientArena`: ``dist_opt.bucket_plan``
slices the fused layout into size-capped, tensor-aligned buckets in
reverse layer order; the compute side (a rank executor: rank-stacked
autograd or the per-rank loop with grad-ready hooks, or the model's
fused engine, e.g.
:class:`~repro.models.fused_bert.FusedBertRankCompute`) marks
parameters ready as their gradients land; and a bucket's rewrite, wire
encode and reduction run on the calling thread the moment its last
gradient is marked — whatever is still pending, when compute returns.

There is no comm thread.  Horovod's overlap wins because the NIC is a
second resource; here compute and communication share one interpreter,
and a private comm thread measured *slower* than running the buckets
inline (GIL ping-pong; numbers in docs/performance.md).  What overlap
mode buys on this simulator is the flat mirror rewrite — the fused
compute engines registered below follow from the model and serve every
executor, overlapped or not; the schedule is nonetheless faithful (and
measurable in the overlap Chrome trace).

Bit-exactness with a whole-row ``step_arena`` is structural — both are
the same ``DistributedOptimizer.wire_step`` — and neither the bucket cap
nor the readiness order can change bytes:

* buckets align to whole tensors, so per-layer Adasum sees exactly the
  same per-layer slices either way (whole-model Adasum degenerates to a
  single bucket);
* Figure-3 post-optimizer mode rewrites each bucket's rows from local
  gradients to post-optimizer deltas with a
  :class:`FlatOptimizerMirror` — a flat, rank-vectorized replay of the
  per-rank optimizers' exact update arithmetic (same operations, order
  and rounding points, written in place), so the wire tensors are
  bit-identical to ``_rewrite_rows_to_deltas``;
* the wire codec stack (:mod:`repro.comm.codec`) applies per bucket:
  an fp16 stage runs with the step's scale fixed up front and the
  dynamic scaler sees one aggregated overflow verdict per step, while
  non-elementwise stages (int8, top-k) compute their statistics per
  *layer block*, and buckets are tensor-aligned.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.comm.bucketing import Bucket
from repro.comm.tracing import CommTracer
from repro.core.arena import GradientArena
from repro.core.distributed_optimizer import DistributedOptimizer
from repro.optim.adam import Adam
from repro.optim.sgd import SGD


#: Registry of fused rank-compute engines: ``(predicate, factory)``
#: pairs tried in order by :func:`build_fused_engine`.
_FUSED_ENGINES: List = []


def register_fused_engine(
    predicate: Callable[[object], bool], factory: Callable[[object], object]
) -> None:
    """Register a fused compute engine for :func:`build_fused_engine`.

    ``predicate(model)`` says whether ``factory(model)`` can build an
    engine with a ``step(x, y, rank_views, ready_cb)`` method that
    computes ``len(rank_views)`` stacked equal-sized microbatches and
    returns per-rank losses, and a ``min_blocks`` attribute, the fewest
    ranks a call it serves may list (see
    :class:`~repro.models.fused_bert.FusedBertRankCompute`).  A model
    with no registered engine computes through rank-stacked autograd
    when it is rank-order-free (:class:`~repro.train.trainer.StackedAutograd`).
    """
    _FUSED_ENGINES.append((predicate, factory))


def build_fused_engine(model):
    """Best registered fused engine for ``model``, or ``None``.

    A factory raising ``ValueError``/``TypeError`` (unsupported config,
    e.g. active dropout) just disqualifies that engine.
    """
    _register_builtin_engines()
    for predicate, factory in _FUSED_ENGINES:
        try:
            if predicate(model):
                return factory(model)
        except (ValueError, TypeError):
            continue
    return None


_builtins_registered = False


def _register_builtin_engines() -> None:
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True
    # Lazy: models -> core is the wrong import direction at module load.
    from repro.models.fused_bert import FusedBertRankCompute
    from repro.models.transformer import MiniBERT

    register_fused_engine(
        lambda m: isinstance(m, MiniBERT), FusedBertRankCompute
    )


class FlatOptimizerMirror:
    """Rank-vectorized flat replay of the per-rank optimizers (Figure 3).

    ``_rewrite_rows_to_deltas`` walks parameters per rank through the
    real :class:`~repro.optim.optimizer.Optimizer` objects — correct,
    but serialized after backward and dominated by Python dispatch.
    The mirror keeps the per-rank optimizer state as ``(ranks, size)``
    flat arrays and rewrites any column range ``[lo, hi)`` of the arena
    from gradients to post-optimizer deltas in a handful of vectorized
    ops, which is what lets a bucket's rewrite run in the middle of
    backprop.

    The rewrite performs the scalar optimizers' operations in their
    order and at their float32 rounding points (same operands, same
    start/delta double rounding), written in place: each ufunc stores
    into the ``m`` / ``v`` / momentum slices, the bucket's own arena
    rows, or one ``(ranks, widest range)`` scratch block the mirror
    owns, so a step allocates nothing bucket-sized.  All ops are
    elementwise, so vectorizing across ranks cannot change bits —
    property-tested against ``_rewrite_rows_to_deltas`` for any bucket
    split and against the phased path in ``tests/core/test_overlap.py``.

    The mirror's flat arrays *are* the rank optimizers' state: the first
    step installs per-parameter views of its rows as their slot arrays
    and every step advances their ``step_count``, so checkpoints and
    ``dist_opt.lr`` see exactly what a phased run would have.  It must
    still be driven for *every* step of a run (the scheduler guarantees
    this): a real ``Optimizer.step`` rebinds its slots to fresh arrays
    and would fork the state.
    """

    def __init__(self, dist_opt: DistributedOptimizer, arena: GradientArena):
        self._opts = dist_opt.rank_optimizers
        opt = self._opt = self._opts[0]
        self._kind = "adam" if type(opt) is Adam else "sgd"
        self._arena = arena
        total = arena.layout.total_size
        self.starts = np.empty(total, dtype=arena.dtype)
        self.start_views: Dict[str, np.ndarray] = arena.unpack(self.starts, copy=False)
        self._params = dist_opt._params
        self._steps = 0
        self._lr = 0.0
        shape = (arena.num_ranks, total)
        if self._kind == "adam":
            self._m = np.zeros(shape, dtype=np.float32)
            self._v = np.zeros(shape, dtype=np.float32)
            # Adam's per-slot step counter: one column per parameter.
            self._t = np.zeros((arena.num_ranks, len(opt.params)), dtype=np.int64)
        elif opt.momentum:
            self._buf = np.zeros(shape, dtype=np.float32)
        self._scratch = np.empty(0, dtype=np.float32)

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        dist_opt: DistributedOptimizer, arena: GradientArena
    ) -> Optional["FlatOptimizerMirror"]:
        """Mirror for ``dist_opt``'s rank optimizers, or ``None``.

        Supported: fresh (never-stepped) plain :class:`Adam` and
        :class:`SGD` instances.  Subclasses (e.g. AdamW) are excluded by
        exact type check — they override the update rule.
        """
        opts = dist_opt.rank_optimizers
        if not opts:
            return None
        if type(opts[0]) not in (Adam, SGD):
            return None
        if any(o.step_count != 0 or o.state for o in opts):
            return None
        return FlatOptimizerMirror(dist_opt, arena)

    # ------------------------------------------------------------------
    def _install_state(self) -> None:
        """Make the flat rows the rank optimizers' slot arrays (views)."""
        if self._kind == "adam":
            rows = {"m": self._m, "v": self._v}
        elif self._opt.momentum:
            rows = {"momentum": self._buf}
        else:
            return
        names = {id(p): name for name, p in self._params.items()}
        for rank, opt in enumerate(self._opts):
            views = {
                key: self._arena.unpack(flat[rank], copy=False)
                for key, flat in rows.items()
            }
            for index, p in enumerate(opt.params):
                slot = opt.state_for(index)
                for key in rows:
                    slot[key] = views[key][names[id(p)]]
                if self._kind == "adam":
                    slot["t"] = self._t[rank, index:index + 1]

    def begin_step(self) -> None:
        """Snapshot shared starting params; fix this step's lr and t."""
        for name, p in self._params.items():
            np.copyto(self.start_views[name], p.data)
        self._lr = self._opt.lr_schedule(self._steps)
        if self._steps == 0:
            self._install_state()
        self._steps += 1
        for opt in self._opts:
            opt.step_count = self._steps
        if self._kind == "adam":
            self._t[:] = self._steps

    def _scratch_block(self, width: int) -> np.ndarray:
        """A contiguous ``(ranks, width)`` float32 block of the scratch,
        which grows to the widest range rewritten and is then reused."""
        need = self._arena.num_ranks * width
        if self._scratch.size < need:
            self._scratch = np.empty(need, dtype=np.float32)
        return self._scratch[:need].reshape(self._arena.num_ranks, width)

    def rewrite(self, lo: int, hi: int) -> None:
        """In place: arena columns ``[lo, hi)`` gradient rows -> delta rows.

        The comments give the optimizer expression each group of ufuncs
        reproduces.
        """
        rows = self._arena.data[:, lo:hi]
        start = self.starts[lo:hi]
        opt = self._opt
        a = self._scratch_block(hi - lo)
        if opt.weight_decay:
            # g = g + wd * p
            np.multiply(start, opt.weight_decay, out=a[0])
            rows += a[0]
        direction = rows
        if self._kind == "adam":
            # v = b2 * v + (1 - b2) * g * g
            v = self._v[:, lo:hi]
            v *= opt.beta2
            np.multiply(rows, 1 - opt.beta2, out=a)
            a *= rows
            v += a
            # m = b1 * m + (1 - b1) * g: g's last use, so (1 - b1) * g
            # is formed in its rows
            m = self._m[:, lo:hi]
            m *= opt.beta1
            rows *= 1 - opt.beta1
            m += rows
            # d = (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
            t = self._steps
            np.divide(m, 1 - opt.beta1 ** t, out=rows)
            np.divide(v, 1 - opt.beta2 ** t, out=a)
            np.sqrt(a, out=a)
            a += opt.eps
            rows /= a
        elif opt.momentum:
            # buf = g.copy() on the first step, else momentum * buf + g
            buf = self._buf[:, lo:hi]
            if self._steps == 1:
                np.copyto(buf, rows)
            else:
                buf *= opt.momentum
                buf += rows
            if opt.nesterov:
                # d = g + momentum * buf
                np.multiply(buf, opt.momentum, out=a)
                rows += a
            else:
                # d = buf: the slot is read, never written, from here on
                direction = buf
        # p -= lr * d; delta = p - start: keep the per-rank optimizers'
        # double rounding.
        np.multiply(direction, self._lr, out=rows)
        np.subtract(start, rows, out=rows)
        rows -= start


class OverlapScheduler:
    """Readiness-ordered driver of one bucketed distributed step.

    Parameters
    ----------
    dist_opt:
        The distributed optimizer whose :meth:`wire_step
        <repro.core.distributed_optimizer.DistributedOptimizer.wire_step>`
        the scheduler drives bucket by bucket (results are bit-identical
        to its whole-row ``step_arena``).
    arena:
        Per-rank flat gradient buffers (all ranks participate).
    bucket_cap_mb:
        Fusion bucket size cap (see ``dist_opt.bucket_plan``).  Figure-3
        mode with an optimizer the :class:`FlatOptimizerMirror` cannot
        replay needs the real per-rank optimizers, which rewrite whole
        rows: the plan is then a single bucket — correct, just without
        overlap.
    tracer:
        Optional :class:`~repro.comm.tracing.CommTracer` recording the
        *wall-clock* timeline of each step (offsets in seconds from its
        start): lane 0 is one ``compute`` span, lane 1 one ``allreduce``
        span per bucket at the time it actually ran — inside the
        compute span for a bucket fired by a readiness callback, after
        it for the flushed rest.  Keep it separate from a simulated-
        clock tracer — the timelines don't share a clock.

    Hand the scheduler to :func:`~repro.train.trainer.phased_step` as
    its ``plan``, or drive a step directly::

        sched = OverlapScheduler(dist_opt, arena)
        losses = sched.step(compute)   # compute(mark_ready) -> losses
    """

    COMM_LANE_OFFSET = 1  # tracer lane: 0 = compute, 1 = bucket reductions

    def __init__(
        self,
        dist_opt: DistributedOptimizer,
        arena: GradientArena,
        bucket_cap_mb: float = 1.0,
        tracer: Optional[CommTracer] = None,
    ):
        if arena.num_ranks != dist_opt.num_ranks:
            raise ValueError(
                f"arena has {arena.num_ranks} ranks, optimizer {dist_opt.num_ranks}"
            )
        self.dist_opt = dist_opt
        self.arena = arena
        self.tracer = tracer
        self.mirror: Optional[FlatOptimizerMirror] = (
            FlatOptimizerMirror.build(dist_opt, arena)
            if dist_opt.post_optimizer_mode
            else None
        )
        whole_rows = dist_opt.post_optimizer_mode and self.mirror is None
        self.plan = dist_opt.bucket_plan(arena, None if whole_rows else bucket_cap_mb)
        self._bucket_of: Dict[str, Bucket] = {
            n: b for b in self.plan.buckets for n in b.names
        }
        self._combined = np.empty(arena.layout.total_size, dtype=arena.dtype)
        self._pending: Dict[int, Set[str]] = {}  # bucket index -> names not yet ready
        self._ctx: Dict = {}
        self._t_base = 0.0

    # ------------------------------------------------------------------
    def step(self, compute_fn: Callable[[Callable[[str], None]], List[float]]) -> List[float]:
        """One distributed step with buckets reduced as compute marks them.

        ``compute_fn(mark_ready)`` must fill every arena row and may
        call ``mark_ready(name)`` once all ranks' gradients for a
        parameter are final — in any order, for any subset; it returns
        the per-rank losses.
        """
        with self.dist_opt.wire_step(self.arena, plan=self):
            return compute_fn(self.mark_ready)

    def begin(self, ctx: Dict) -> Optional[Callable[[str], None]]:
        """Open a step (``wire_step`` calls this); returns the readiness
        callback, or ``None`` when a single bucket leaves nothing to overlap."""
        self._ctx = ctx
        self._t_base = perf_counter()
        if self.mirror is not None:
            self.mirror.begin_step()
            ctx["starts"], ctx["rewrite"] = self.mirror.start_views, self.mirror.rewrite
        self._pending = {b.index: set(b.names) for b in self.plan.buckets}
        return self.mark_ready if len(self._pending) > 1 else None

    def mark_ready(self, name: str) -> None:
        """Record that all ranks' gradients for ``name`` are in the arena."""
        bucket = self._bucket_of[name]
        pend = self._pending.get(bucket.index)
        if pend is not None:
            pend.discard(name)
            if not pend:
                self._run_bucket(bucket)

    def flush(self) -> np.ndarray:
        """Compute is over: run every bucket still pending, in plan
        order; returns the combined flat row (``wire_step`` calls this)."""
        t_compute = perf_counter() - self._t_base
        for bucket in self.plan.buckets:
            if bucket.index in self._pending:
                self._run_bucket(bucket)
        if self.tracer is not None:
            # One span covers all ranks' forward/backward.
            self.tracer.record(0, "compute", 0.0, t_compute, label="ranks-fwd-bwd")
        return self._combined

    def _run_bucket(self, bucket: Bucket) -> None:
        """Rewrite, wire-encode and reduce one bucket, on the calling thread."""
        del self._pending[bucket.index]
        t0 = perf_counter() - self._t_base
        ctx, lo, hi = self._ctx, bucket.start, bucket.stop
        booked = ctx["nbytes"]
        if self.dist_opt.prepare_wire_arena(self.arena, ctx, lo, hi):
            self._combined[lo:hi] = self.dist_opt.reducer.reduce_flat(
                self.arena.data[:, lo:hi], bucket.rel_boundaries()
            )
        if self.tracer is not None:
            self.tracer.record(
                self.COMM_LANE_OFFSET,
                "allreduce",
                t0,
                perf_counter() - self._t_base,
                nbytes=ctx["nbytes"] - booked,
                label=f"bucket-{bucket.index}",
            )
