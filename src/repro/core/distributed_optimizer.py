"""Horovod-style ``DistributedOptimizer`` (paper Sections 4.1 and Figure 3).

Usage mirrors Horovod::

    opt = DistributedOptimizer(model, make_opt, num_ranks=8, op=ReduceOpType.ADASUM)
    ...
    opt.step(grad_dicts)          # one {layer: grad} dict per rank

Semantics
---------
* ``SUM`` / ``AVERAGE`` — synchronous SGD: gradients are reduced
  *before* the (single, shared) optimizer update.
* ``ADASUM`` — the paper's subtlety (Figure 3): each rank applies its
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

import enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.comm.codec import build_pipeline, parse_wire_codecs
from repro.core.arena import GradientArena
from repro.core.precision import DynamicScaler
from repro.core.strategies import GradientReducer, StrategyReducer
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


class ReduceOpType(enum.Enum):
    """Reduction op selector, mirroring ``hvd.Sum`` / ``hvd.Average`` /
    ``hvd.Adasum``."""

    SUM = "sum"
    AVERAGE = "average"
    ADASUM = "adasum"


def make_reducer(
    op,
    per_layer: bool = True,
    topology: str = "tree",
    gpus_per_node: int = None,
) -> GradientReducer:
    """Build the registry-backed reducer implementing ``op``.

    ``op`` is a :class:`ReduceOpType` or its string value.  ``topology``
    names a registered cell (``"tree"`` / ``"tree_any"`` / ``"linear"``
    / ``"rvh"`` / ``"ring"`` / ``"hierarchical"``); ``gpus_per_node``
    parameterizes the hierarchical topology.
    """
    return StrategyReducer(
        op=op, topology=topology, per_layer=per_layer, gpus_per_node=gpus_per_node
    )


def allreduce(
    grad_dicts: Sequence[Mapping[str, np.ndarray]],
    op: ReduceOpType = ReduceOpType.ADASUM,
    per_layer: bool = True,
) -> Dict[str, np.ndarray]:
    """Fine-grained ``hvd.allreduce`` equivalent over simulated ranks.

    Combines one gradient dict per rank with the requested op; exposed
    for users who need custom steps (e.g. gradient clipping) outside a
    :class:`DistributedOptimizer` (paper Section 4.1).
    """
    return make_reducer(op, per_layer=per_layer).reduce(grad_dicts)


class DistributedOptimizer:
    """Drives one logical model replicated over ``num_ranks`` simulated ranks.

    Parameters
    ----------
    model:
        The shared model replica (all ranks are kept identical, as the
        paper requires the user to guarantee).
    optimizer_factory:
        ``f(params) -> Optimizer``; called once per rank in ADASUM mode
        (per-rank optimizer state) and once total otherwise.
    num_ranks:
        Simulated data-parallel world size.
    op:
        Reduction operation.
    adasum_pre_optimizer:
        Apply Adasum to raw gradients before a single shared optimizer
        step (valid for SGD-family optimizers; Figure 3 mode otherwise).
    per_layer:
        Adasum application granularity (per layer, or whole model).
    topology, gpus_per_node:
        The registered reduction cell (recursion order; ``"tree_any"``
        accepts non-power-of-two worlds) and the node width of the
        ``hierarchical`` topology.
    wire_codecs:
        Declarative wire-codec stack, e.g. ``("fp16",)`` or ``("fp16",
        "int8", "topk:0.01")`` — see :mod:`repro.comm.codec`.  Each step the
        participating rows are round-tripped through the stack in place
        at the wire boundary, so reduction arithmetic (Adasum dot
        products included) stays in full precision over exactly the
        values a receiver would decode.  Bounded-error codecs carry
        per-row error-feedback residuals; an fp16 stage communicates
        with dynamic scaling (§4.4.1): an overflow backs the scale off
        and skips the step (one scaler verdict per step), exactly as
        the Horovod implementation does.
    """

    def __init__(
        self,
        model: Module,
        optimizer_factory: Callable[[list], Optimizer],
        num_ranks: int,
        op: ReduceOpType = ReduceOpType.ADASUM,
        adasum_pre_optimizer: bool = False,
        per_layer: bool = True,
        topology: str = "tree",
        gpus_per_node: int = None,
        wire_codecs=None,
    ):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if isinstance(op, str):
            op = ReduceOpType(op.lower())
        self.model = model
        self.num_ranks = num_ranks
        self.op = op
        self.per_layer = per_layer
        self.reducer = make_reducer(
            op, per_layer=per_layer, topology=topology, gpus_per_node=gpus_per_node
        )
        self.topology = self.reducer.topology
        self.gpus_per_node = getattr(self.reducer, "gpus_per_node", 1)
        self.adasum_pre_optimizer = adasum_pre_optimizer
        self._param_names = [name for name, _ in model.named_parameters()]
        self._params = dict(model.named_parameters())
        #: Normalized codec stack active at the wire boundary.
        self.wire_codecs = parse_wire_codecs(wire_codecs)
        #: An fp16 wire stage (dynamic scaler) is active.
        self.wire_fp16 = "fp16" in self.wire_codecs
        self._scaler = DynamicScaler() if self.wire_fp16 else None
        self.wire_pipeline = build_pipeline(self.wire_codecs, scaler=self._scaler)
        #: Modeled encoded wire bytes (all participating rows) for the
        #: last prepared step, and accumulated over the run.
        self.last_wire_bytes = 0
        self.wire_bytes_total = 0
        self.skipped_steps = 0
        self.post_optimizer_mode = op is ReduceOpType.ADASUM and not adasum_pre_optimizer
        if self.post_optimizer_mode:
            self.rank_optimizers: List[Optimizer] = [
                optimizer_factory(model.parameters()) for _ in range(num_ranks)
            ]
            self.optimizer: Optional[Optimizer] = None
        else:
            self.optimizer = optimizer_factory(model.parameters())
            self.rank_optimizers = []

    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        model: Module,
        optimizer_factory: Callable[[list], Optimizer],
        config,
        num_ranks: int = None,
    ) -> "DistributedOptimizer":
        """Build from a :class:`repro.core.config.RunConfig`.

        ``config`` is duck-typed (any object with the ``RunConfig``
        reduction fields works).  ``num_ranks`` overrides
        ``config.num_ranks``.
        """
        return cls(
            model,
            optimizer_factory,
            num_ranks=config.num_ranks if num_ranks is None else num_ranks,
            op=ReduceOpType(config.op),
            adasum_pre_optimizer=config.adasum_pre_optimizer,
            per_layer=config.per_layer,
            wire_codecs=config.wire_codecs,
            topology=config.topology,
            gpus_per_node=config.gpus_per_node,
        )

    # ------------------------------------------------------------------
    @property
    def lr(self) -> float:
        opt = self.optimizer or self.rank_optimizers[0]
        return opt.lr

    @property
    def scaler(self) -> Optional[DynamicScaler]:
        """The fp16 stage's dynamic scaler (``None`` without one)."""
        return self._scaler

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def step(self, grad_dicts: Sequence[Mapping[str, np.ndarray]]) -> None:
        """Apply one distributed update from per-rank gradient dicts.

        The dict convenience over :meth:`step_arena`: packs the dicts
        into a fresh arena and runs the one flat step path.
        """
        self.step_arena(GradientArena.from_grad_dicts(grad_dicts))

    def step_arena(self, arena, reduce_fn=None, ranks: Optional[Sequence[int]] = None) -> None:
        """Apply one distributed update from a filled :class:`GradientArena`.

        The one phased step: prepare (wire rewrite) -> reduce -> apply.
        Per-rank gradients live in the arena rows; ``ranks`` selects the
        participating rows (default: all).

        ``reduce_fn(arena, ctx) -> flat buffer`` swaps out *who reduces*
        the prepared rows — the process backend's worker-parallel tree
        reduce and the elastic runtime's cluster collective plug in
        here, reading the participants (``ctx["ranks"]``) and the
        transport ``ctx["wire_format"]`` from the step context — while
        the wire rewrite and apply halves stay identical.  It is not
        called on a skipped step (fp16 overflow), and when it raises
        nothing has been applied to the model.
        """
        if arena.num_ranks != self.num_ranks:
            raise ValueError(
                f"expected a {self.num_ranks}-rank arena, got {arena.num_ranks}"
            )
        ctx = self.prepare_wire_arena(arena, ranks=ranks)
        if ctx["skip"]:
            return
        if reduce_fn is not None:
            combined = reduce_fn(arena, ctx)
        elif ranks is None:
            combined = self.reducer.reduce_arena(arena)
        else:
            combined = self.reducer.reduce_flat(
                arena.data[ctx["ranks"]], arena.layout.boundaries()
            )
        self.apply_reduced_flat(combined, arena, ctx)

    # ------------------------------------------------------------------
    # The wire boundary.  ``begin_wire_step``/``end_wire_step`` bracket
    # whatever encodes the rows — one whole-row encode on the phased
    # path, one encode per bucket on the overlap scheduler's comm
    # thread — so the scaler verdict, skip and byte accounting exist
    # once.
    # ------------------------------------------------------------------
    def begin_wire_step(self, arena) -> None:
        """Bind the codec stack to ``arena`` and fix this step's fp16 scale."""
        pipe = self.wire_pipeline
        if pipe is not None:
            pipe.bind(
                arena.num_ranks, arena.layout.total_size, arena.layout.boundaries()
            )
            pipe.begin_step()

    def end_wire_step(self, overflow: bool, nbytes: int) -> bool:
        """Close the step at the wire boundary; True when it is skipped.

        One scaler verdict per step: an fp16 overflow backs the scale
        off, rolls error-feedback residuals back and drops the step's
        gradients.  Otherwise ``nbytes`` (modeled encoded bytes of all
        participating rows) is booked.
        """
        pipe = self.wire_pipeline
        if pipe is not None and pipe.end_step(overflow):
            self.skipped_steps += 1
            self.model.zero_grad()
            return True
        self.last_wire_bytes = nbytes
        self.wire_bytes_total += nbytes
        return False

    def prepare_wire_arena(self, arena, ranks: Optional[Sequence[int]] = None) -> Dict:
        """Rewrite arena rows into wire tensors; returns the step context.

        For post-optimizer Adasum (Figure 3) each participating rank's
        row is rewritten in place from its local gradient to its
        post-optimizer model delta (the model is restored to the shared
        starting point afterwards).  With a codec stack the rows then
        round-trip through the pipeline in place; an fp16 overflow
        backs the scale off and marks the step skipped (one scaler
        verdict per step).

        ``ranks`` selects which arena rows participate (default: all) —
        the hook the straggler drop policy uses.  The returned context
        carries ``ranks``, ``skip``, the post-optimizer starting
        parameters, and — when a stack is active — ``wire_format``
        (transport-level re-encode of the now grid-resident rows).
        """
        ranks = list(range(arena.num_ranks)) if ranks is None else list(ranks)
        ctx: Dict = {"ranks": ranks, "starts": None, "skip": False}
        if self.post_optimizer_mode:
            ctx["starts"] = self._rewrite_rows_to_deltas(arena, ranks)
        self.begin_wire_step(arena)
        pipe = self.wire_pipeline
        if pipe is None:
            overflow = False
            row_nbytes = arena.layout.total_size * arena.dtype.itemsize
        else:
            overflow = pipe.encode_block(arena.data, ranks)
            row_nbytes = pipe.wire_nbytes()
        ctx["skip"] = self.end_wire_step(overflow, row_nbytes * len(ranks))
        if pipe is not None and not ctx["skip"]:
            ctx["wire_format"] = pipe.leaf_format()
        return ctx

    def wire_row_nbytes(self, arena) -> int:
        """Modeled per-row wire bytes for one step over ``arena``
        (encoded size when a codec stack is active, raw fp32 otherwise).
        """
        if self.wire_pipeline is None:
            return arena.layout.total_size * arena.dtype.itemsize
        self.wire_pipeline.bind(
            arena.num_ranks, arena.layout.total_size, arena.layout.boundaries()
        )
        return self.wire_pipeline.wire_nbytes()

    def apply_reduced_flat(self, combined: np.ndarray, arena, ctx: Optional[Dict] = None) -> None:
        """Apply a reduced flat buffer produced from prepared arena rows."""
        if ctx is not None and ctx.get("skip"):
            return
        if self.post_optimizer_mode:
            starts = ctx["starts"] if ctx is not None else None
            if starts is None:
                raise ValueError(
                    "post-optimizer apply needs the context returned by "
                    "prepare_wire_arena (starting parameter values)"
                )
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
            views = arena.views(rank)
            for name, p in self._params.items():
                np.copyto(p.data, starts[name])
                p.grad = views[name]
            self.rank_optimizers[rank].step()
            # The local gradient is consumed; its row becomes the delta.
            for name, p in self._params.items():
                np.subtract(p.data, starts[name], out=views[name])
        # Leave the model at the shared starting point until apply.
        for name, p in self._params.items():
            np.copyto(p.data, starts[name])
        self.model.zero_grad()
        return starts
