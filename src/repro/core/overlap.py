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
mode adds on this simulator is the schedule, faithful and measurable in
the overlap Chrome trace: the flat mirror rewrite it once had to itself
serves every in-process Figure-3 step, and the fused compute engines
registered below follow from the model and serve every executor,
overlapped or not.

Bit-exactness with a whole-row ``step_arena`` is structural — both are
the same ``DistributedOptimizer.wire_step`` — and neither the bucket cap
nor the readiness order can change bytes:

* buckets align to whole tensors, so per-layer Adasum sees exactly the
  same per-layer slices either way (whole-model Adasum degenerates to a
  single bucket);
* Figure-3 post-optimizer mode rewrites each bucket's rows from local
  gradients to post-optimizer deltas with the distributed optimizer's
  :class:`FlatOptimizerMirror`, the one that rewrites whole-row steps —
  a flat, rank-vectorized replay of the per-rank optimizers' exact
  update arithmetic (same operations, order and rounding points, written
  in place), so the wire tensors are bit-identical to
  ``_rewrite_rows_to_deltas``;
* the wire codec stack (:mod:`repro.comm.codec`) applies per bucket:
  an fp16 stage runs with the step's scale fixed up front and the
  dynamic scaler sees one aggregated overflow verdict per step, while
  non-elementwise stages (int8, top-k) compute their statistics per
  *layer block*, and buckets are tensor-aligned.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.comm.bucketing import Bucket
from repro.comm.fusion import layout_of
from repro.comm.tracing import CommTracer
from repro.core.arena import GradientArena
from repro.optim.adam import Adam
from repro.optim.sgd import SGD

if TYPE_CHECKING:  # the distributed optimizer owns the mirror defined here
    from repro.core.distributed_optimizer import DistributedOptimizer


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
    """Rank-vectorized flat replay of per-rank optimizers (Figure 3).

    The real :class:`~repro.optim.optimizer.Optimizer` walks parameters
    one by one and rebinds fresh slot arrays on every step — correct,
    but dominated by Python dispatch and temporaries.  The mirror keeps
    the optimizers' state as ``(ranks, size)`` flat arrays and rewrites
    any column range ``[lo, hi)`` of the rows a step lists from
    gradients to post-optimizer deltas (``p - start``) in a handful of
    vectorized ops.  :class:`~repro.core.distributed_optimizer.DistributedOptimizer`
    owns one per arena and runs every in-process Figure-3 rewrite
    through it: the whole rows of a serial, elastic or scheduler step,
    and the buckets of an overlapped one, whose rewrite runs in the
    middle of backprop.  A rank worker mirrors its own optimizer over
    its own row of the shared arena, with the shared parameter row as
    the starts.

    The rewrite performs the scalar optimizers' operations in their
    order and at their float32 rounding points (same operands, same
    start/delta double rounding), written in place: each ufunc stores
    into the ``m`` / ``v`` / momentum slices, the range's own rows, or
    one ``(ranks, widest range)`` scratch block the mirror owns, so a
    step allocates nothing row-sized.  All ops are elementwise, so
    vectorizing across ranks cannot change bits — property-tested
    against the real optimizers (``_rewrite_rows_to_deltas``) for any
    bucket split and any subset of rows in ``tests/core/test_overlap.py``
    and, inside rank workers, in ``tests/train/test_worker_finish.py``.

    **Who owns the state.**  Between steps the optimizer objects are
    the source of truth: their ``step_count`` and the slot dicts a
    checkpoint, a snapshot, a pull or a push reads and writes.  The
    mirror's flat arrays are an in-place cache of that state — it
    installs per-parameter views of them as the slot arrays and advances
    each ``step_count``, so readers see exactly what the real
    optimizers would have left.  When a step opens (:meth:`begin_step`)
    it re-syncs if anyone wrote an optimizer from outside (a slot that
    is not its own view, or a ``step_count`` other than the one it
    left): the present slots are copied into its rows and its counters
    come from ``step_count`` (and Adam's ``t``).  A real
    ``Optimizer.step`` between mirrored steps is such an outside write.

    **Per-row counters.**  A step lists the rows it rewrites, and a row
    left out keeps its state, as an optimizer that did not step does.
    So each row has its own ``step_count`` (hence its own learning
    rate), its own Adam ``t`` and its own first-step flag: a row with no
    slot yet gets its slot views at its first step, where SGD takes
    ``buf = g.copy()`` (which differs from ``0.9 * 0 + g`` on ``-0.0``).
    Per-row scalars enter the ufuncs as float32 ``(rows, 1)`` columns,
    which under NEP 50 is the arithmetic the optimizers do with their
    Python-float learning rates and bias corrections.  The listed rows
    are rewritten as runs of adjacent rows.  An optimizer whose own
    slots disagree (one stepped more often than another) has no row
    counter and is rejected with a ``ValueError``; no ``step`` with every
    gradient set leaves that state.

    Parameters
    ----------
    optimizers:
        One optimizer per row, all built by one factory over ``params``.
    params:
        ``(name, Parameter)`` pairs in the rows' (declaration) layout.
    rows:
        ``(len(optimizers), size)`` float32 rows rewritten in place.
    starts:
        ``(size,)`` shared starting parameters the deltas are taken
        from; whoever owns it fills it before a step.
    """

    def __init__(self, optimizers, params, rows: np.ndarray, starts: np.ndarray):
        self._opts = list(optimizers)
        opt = self._opt = self._opts[0]
        self._kind = "adam" if type(opt) is Adam else "sgd"
        layout = layout_of([(name, p.data) for name, p in params])
        position = {id(p): i for i, (_, p) in enumerate(params)}
        total = layout.total_size
        ranks = len(self._opts)
        if rows.shape != (ranks, total) or starts.shape != (total,):
            raise ValueError(
                f"{ranks} optimizers over {total} parameters need "
                f"({ranks}, {total}) rows and ({total},) starts, got "
                f"{rows.shape} and {starts.shape}"
            )
        self._rows = rows
        self.starts = starts
        # Each slot's (lo, hi, shape) in the rows, in ``opt.params`` order.
        self._slots = [
            (*layout.slices[position[id(p)]], layout.shapes[position[id(p)]])
            for p in opt.params
        ]
        shape = rows.shape
        #: The slot arrays, as flat rows: ``{key: (ranks, size)}``.
        self._flat: Dict[str, np.ndarray] = {}
        if self._kind == "adam":
            self._m = self._flat["m"] = np.zeros(shape, dtype=np.float32)
            self._v = self._flat["v"] = np.zeros(shape, dtype=np.float32)
            # Adam's per-slot step counter: one column per parameter.
            self._t = np.zeros((ranks, len(self._slots)), dtype=np.int64)
            # This step's bias corrections 1 - beta**t, per row.
            self._c1 = np.ones((ranks, 1), dtype=np.float32)
            self._c2 = np.ones((ranks, 1), dtype=np.float32)
        elif opt.momentum:
            self._buf = self._flat["momentum"] = np.zeros(shape, dtype=np.float32)
        # Per row: (index, slot dict, its (key, view) pairs) as installed;
        # empty for a row with no slot yet.
        self._installed: List[List[tuple]] = [[] for _ in self._opts]
        self._left: Optional[List[int]] = None  # each row's step_count as left
        self._lr = np.zeros((ranks, 1), dtype=np.float32)  # this step's, per row
        # This step's runs of adjacent listed rows: (row slice, first step).
        self._runs: List[tuple] = []
        self._scratch = np.empty(0, dtype=np.float32)

    # ------------------------------------------------------------------
    @staticmethod
    def build(optimizers, params, rows: np.ndarray, starts: np.ndarray
              ) -> Optional["FlatOptimizerMirror"]:
        """Mirror of ``optimizers``, or ``None`` when it cannot replay them.

        Supported: exact :class:`Adam` and :class:`SGD` (with or without
        momentum, Nesterov and weight decay), in any state — the first
        step re-syncs from it.  Subclasses (e.g. AdamW) are excluded by
        exact type check — they override the update rule.
        """
        if not optimizers or type(optimizers[0]) not in (Adam, SGD):
            return None
        return FlatOptimizerMirror(optimizers, params, rows, starts)

    # ------------------------------------------------------------------
    def _owns_state(self) -> bool:
        """No one wrote the optimizers since this mirror's last step."""
        if self._left is None:
            return False
        for opt, installed, left in zip(self._opts, self._installed, self._left):
            if opt.step_count != left:
                return False
            if not installed:
                if self._flat and any(opt.state.values()):
                    return False  # slots loaded into a row that had none
                continue
            get = opt.state.get
            for index, slot, views in installed:
                if get(index) is not slot:
                    return False
                for key, view in views:
                    if slot.get(key) is not view:
                        return False
        return True

    def _install(self, row: int, copy: bool) -> None:
        """Make views of row ``row`` of the flat arrays its optimizer's
        slot arrays, copying the present slots in first with ``copy``."""
        opt = self._opts[row]
        installed = []
        for index, (lo, hi, shape) in enumerate(self._slots):
            slot = opt.state_for(index)
            for key, flat in self._flat.items():
                view = flat[row, lo:hi].reshape(shape)
                if copy:
                    np.copyto(view, slot[key])
                slot[key] = view
            if self._kind == "adam":
                slot["t"] = self._t[row, index:index + 1]
            installed.append((index, slot, tuple(slot.items())))
        self._installed[row] = installed

    def _sync(self) -> None:
        """Copy the optimizers' present state into the flat rows and
        install views of it as their slot arrays; a row with no slot yet
        is zeroed and gets its views at its first step."""
        keys = tuple(self._flat)  # () for plain SGD: no slots at all
        self._left = []
        for row, opt in enumerate(self._opts):
            self._left.append(opt.step_count)
            self._installed[row] = []
            if not keys:
                continue
            slots = [opt.state.get(index, {}) for index in range(len(self._slots))]
            present = {slot.get(keys[0]) is not None for slot in slots}
            ts = {int(slot["t"][0]) if "t" in slot else 0 for slot in slots
                  } if self._kind == "adam" else {0}
            if len(present) > 1 or len(ts) > 1:
                raise ValueError(
                    f"FlatOptimizerMirror keeps one step counter per row, but row "
                    f"{row}'s optimizer slots disagree: Adam t {sorted(ts)}, first "
                    f"step for some slots only: {len(present) > 1}"
                )
            if self._kind == "adam":
                self._t[row] = ts.pop()
            if True in present:
                self._install(row, copy=True)
            else:
                for flat in self._flat.values():
                    flat[row].fill(0)

    def begin_step(self, rows: Optional[Sequence[int]] = None) -> None:
        """Open a step over ``rows`` (default: all): re-sync from the
        optimizers if they were written from outside, then fix each
        listed row's lr and counters and advance its ``step_count``, as
        a real step would."""
        if not self._owns_state():
            self._sync()
        listed = range(len(self._opts)) if rows is None else sorted(rows)
        left, lr, adam = self._left, self._lr, self._kind == "adam"
        runs: List[list] = []
        for row in listed:
            opt = self._opts[row]
            count = left[row]
            lr[row] = opt.lr_schedule(count)
            left[row] = opt.step_count = count + 1
            first = bool(self._flat) and not self._installed[row]
            if first:
                self._install(row, copy=False)
            if adam:
                self._t[row] += 1
                t = int(self._t[row, 0])
                self._c1[row] = 1 - opt.beta1 ** t
                self._c2[row] = 1 - opt.beta2 ** t
                first = False  # m = v = 0: the first step is no special case
            if runs and runs[-1][1] == row and runs[-1][2] == first:
                runs[-1][1] = row + 1
            else:
                runs.append([row, row + 1, first])
        self._runs = [(slice(a, b), first) for a, b, first in runs]

    def _scratch_block(self, width: int) -> np.ndarray:
        """A contiguous ``(ranks, width)`` float32 block of the scratch,
        which grows to the widest range rewritten and is then reused."""
        ranks = self._rows.shape[0]
        need = ranks * width
        if self._scratch.size < need:
            self._scratch = np.empty(need, dtype=np.float32)
        return self._scratch[:need].reshape(ranks, width)

    def rewrite(self, lo: int, hi: int) -> None:
        """In place: columns ``[lo, hi)`` of the step's rows, gradients -> deltas."""
        scratch = self._scratch_block(hi - lo)
        for rows, first in self._runs:
            self._rewrite_run(rows, first, lo, hi, scratch[:rows.stop - rows.start])

    def _rewrite_run(self, run: slice, first: bool, lo: int, hi: int,
                     a: np.ndarray) -> None:
        """Columns ``[lo, hi)`` of the adjacent rows ``run``, with ``a``
        as scratch.  The comments give the optimizer expression each
        group of ufuncs reproduces."""
        rows = self._rows[run, lo:hi]
        start = self.starts[lo:hi]
        opt = self._opt
        if opt.weight_decay:
            # g = g + wd * p
            np.multiply(start, opt.weight_decay, out=a[0])
            rows += a[0]
        direction = rows
        if self._kind == "adam":
            # v = b2 * v + (1 - b2) * g * g
            v = self._v[run, lo:hi]
            v *= opt.beta2
            np.multiply(rows, 1 - opt.beta2, out=a)
            a *= rows
            v += a
            # m = b1 * m + (1 - b1) * g: g's last use, so (1 - b1) * g
            # is formed in its rows
            m = self._m[run, lo:hi]
            m *= opt.beta1
            rows *= 1 - opt.beta1
            m += rows
            # d = (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
            np.divide(m, self._c1[run], out=rows)
            np.divide(v, self._c2[run], out=a)
            np.sqrt(a, out=a)
            a += opt.eps
            rows /= a
        elif opt.momentum:
            # buf = g.copy() on the first step, else momentum * buf + g
            buf = self._buf[run, lo:hi]
            if first:
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
        np.multiply(direction, self._lr[run], out=rows)
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
        whole_rows = (dist_opt.post_optimizer_mode
                      and dist_opt.optimizer_mirror(arena) is None)
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
