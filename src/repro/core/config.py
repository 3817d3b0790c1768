"""Declarative run configuration for the reduction engine.

Before this module, every layer (CLI, trainers, elastic runtime,
benchmarks) parsed its own op/topology/fp16/bucket flags and enforced
its own slice of the mutual-exclusion rules.  :class:`RunConfig` is the
one frozen description of a run: flags are parsed into it exactly once
(:func:`parse_op` / :func:`parse_topology` in the CLI), validation
happens centrally in ``__post_init__`` (every rule about which
combinations are valid, stated once) and in
:meth:`RunConfig.validate_for_pool` (the elastic rules), and both
trainers are built from a ``RunConfig`` alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.comm.codec import parse_wire_codecs
from repro.comm.faults import FaultPlan
from repro.core.strategies import (
    ReduceStrategy,
    StrategyReducer,
    cell_name,
    registered_cells,
)


def _parse_cell_axis(value, axis: int, what: str) -> str:
    name = cell_name(value)
    names = sorted({cell[axis] for cell in registered_cells()})
    if name not in names:
        raise ValueError(f"unknown {what} {value!r}; choose from {names}")
    return name


def parse_op(value) -> str:
    """Parse a CLI/user-facing op name into its registered spelling
    (:func:`~repro.core.strategies.cell_name`); raises ``ValueError``
    listing the registered ops otherwise."""
    return _parse_cell_axis(value, 0, "reduction op")


def parse_topology(value) -> str:
    """Parse a topology name into its registered spelling
    (case-insensitive, ``-`` accepted for ``_``); raises ``ValueError``
    listing the registered topologies otherwise."""
    return _parse_cell_axis(value, 1, "topology")


#: Valid execution backends: in-process serial loop, or one OS process
#: per rank over shared memory.
EXECUTIONS = ("serial", "processes")


def parse_execution(value) -> str:
    """Parse/validate an execution backend name."""
    execution = str(value).lower()
    if execution not in EXECUTIONS:
        raise ValueError(
            f"unknown execution backend {value!r}; choose from {list(EXECUTIONS)}"
        )
    return execution


@dataclass(frozen=True)
class RunConfig:
    """Frozen, validated description of one training/reduction run.

    The one place a run is described: both trainers take a
    ``RunConfig`` and read every field from it, and every rule about
    which combinations are valid lives here, so a ``RunConfig`` that
    constructs is runnable by :class:`~repro.train.ParallelTrainer`
    (and, if :meth:`validate_for_pool` passes, by
    :class:`~repro.elastic.ElasticTrainer`) — nothing is rejected at
    step time.  Use :meth:`replace` for modified copies.

    op:
        A registered op: ``"adasum"`` (default), ``"sum"``,
        ``"average"``, or one added with
        :func:`~repro.core.strategies.register_strategy`; any case.
    topology:
        The registered reduction cell's recursion order: ``"tree"``
        (default; any world size, split at the largest power of two
        below a world that is not one), ``"linear"``, ``"rvh"``
        (Adasum: power-of-two worlds, no pair-combine schedule),
        ``"ring"`` or ``"hierarchical"``.
    gpus_per_node:
        Node width of the ``hierarchical`` topology (intra-node sum,
        Adasum across nodes); ``num_ranks`` must be a multiple of it.
        Other topologies take 1.
    per_layer:
        Apply the op per layer (paper default, §3.6) or to the whole
        flattened model as one vector.
    adasum_pre_optimizer:
        Reduce raw gradients before one shared optimizer step (valid
        for SGD-family optimizers) instead of the post-optimizer model
        deltas of Figure 3.
    wire_codecs:
        Codec stack at the wire boundary, e.g. ``("fp16",)`` or
        ``("fp16", "int8", "topk:0.01")``; parsed once, here, to a
        normalized tuple (see :mod:`repro.comm.codec`).
    bucket_cap_mb:
        The overlap plan's bucket size cap; ``None`` buckets at 1 MB.
        Read only by an ``overlap`` run.
    overlap:
        Reduce in buckets as backprop produces them: each step is
        handed an :class:`~repro.core.overlap.OverlapScheduler` plan,
        and a bucket is rewritten, encoded and reduced — on the
        trainer's thread — the moment its last gradient lands.
        Bit-identical to the whole-row step.  Nothing runs early when
        an orthogonality probe is attached or with gradient
        accumulation.  Serial execution only (rank processes report no
        per-layer readiness), and not elastic.
    execution:
        Rank execution backend: ``"serial"`` (default: a loop in this
        process) or ``"processes"`` (one OS process per rank writing
        gradients into a :class:`~repro.core.arena.SharedGradientArena`
        and finishing its own row; bit-identical to serial).  The
        process backend rejects models whose forward pass has
        rank-order-dependent effects (registered buffers, active
        dropout).
    reduce_mode:
        Who runs phase 2 under ``execution="processes"``: ``"parent"``
        (default) or ``"workers"`` (the rank processes replay the
        cell's pair-combine schedule over shared memory;
        bit-identical).  Needs the process backend and a cell with a
        schedule at every world size the run can have.  Measured on a
        4-rank MiniBERT step on 2 cores the two tie (parent/workers
        0.94-1.05x, docs/performance.md).
    num_ranks:
        Data-parallel world size (the elastic run's starting width).
    microbatch:
        Per-rank examples per step; the effective batch is
        ``microbatch * num_ranks`` (times any accumulation).
    seed:
        Data shuffling seed.
    faults:
        ``None``, a :class:`~repro.comm.faults.FaultPlan` whose kills
        terminate real rank processes (``execution="processes"`` only,
        handed to the process transport), or an
        :class:`~repro.elastic.ElasticSchedule` of step-indexed faults
        by global rank id (elastic runs only).
    network:
        :class:`~repro.comm.netmodel.NetworkModel` costing the elastic
        collective's messages; needed for straggler detection.
    timeout:
        Wall-clock deadline in seconds: per collect round of the
        process backend, per collective of an elastic run.
    min_ranks:
        The elastic floor: a recovery that would shrink the world below
        it re-raises instead.
    """

    op: str = "adasum"
    topology: str = "tree"
    gpus_per_node: int = 1
    per_layer: bool = True
    adasum_pre_optimizer: bool = False
    wire_codecs: Tuple[str, ...] = ()
    bucket_cap_mb: Optional[float] = None
    overlap: bool = False
    execution: str = "serial"
    reduce_mode: str = "parent"
    num_ranks: int = 1
    microbatch: int = 1
    seed: int = 0
    faults: Optional[object] = None
    network: Optional[object] = None
    timeout: float = 10.0
    min_ranks: int = 1

    def __post_init__(self):
        object.__setattr__(self, "op", parse_op(self.op))
        object.__setattr__(self, "topology", parse_topology(self.topology))
        # Wire codecs: parse/validate the stack exactly once so every
        # consumer downstream sees only the normalized tuple.
        object.__setattr__(self, "wire_codecs", parse_wire_codecs(self.wire_codecs))
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.gpus_per_node > 1 and self.topology != "hierarchical":
            raise ValueError(
                "gpus_per_node > 1 requires topology='hierarchical', "
                f"got {self.topology!r}"
            )
        if (
            self.topology == "hierarchical"
            and self.num_ranks > 1
            and self.num_ranks % self.gpus_per_node
        ):
            raise ValueError(
                f"num_ranks ({self.num_ranks}) must be a multiple of "
                f"gpus_per_node ({self.gpus_per_node}) for a hierarchical run"
            )
        if self.microbatch < 1:
            raise ValueError("microbatch must be >= 1")
        if self.bucket_cap_mb is not None and self.bucket_cap_mb <= 0:
            raise ValueError("bucket_cap_mb must be positive")
        if self.min_ranks < 1:
            raise ValueError("min_ranks must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        execution = parse_execution(self.execution)
        object.__setattr__(self, "execution", execution)
        if self.overlap and execution != "serial":
            raise ValueError(
                f"overlap and execution={execution!r} are mutually exclusive: "
                "rank processes report no per-layer readiness, so there is "
                "nothing to overlap"
            )
        if self.reduce_mode not in ("parent", "workers"):
            raise ValueError(
                f"reduce_mode must be 'parent' or 'workers', got "
                f"{self.reduce_mode!r}"
            )
        if self.reduce_mode == "workers" and execution != "processes":
            raise ValueError(
                "reduce_mode='workers' requires execution='processes': "
                "only worker processes can run pair combines in "
                "parallel over shared memory"
            )
        if self.faults is not None:
            self._check_faults()
        self._check_world(self.make_reducer().strategy, self.num_ranks)

    def _check_faults(self) -> None:
        # Imported here: the elastic package imports this module.
        from repro.elastic.schedule import ElasticSchedule

        if isinstance(self.faults, FaultPlan):
            if self.execution != "processes":
                raise ValueError(
                    "a FaultPlan kills rank processes: it needs "
                    f"execution='processes', got {self.execution!r}"
                )
        elif not isinstance(self.faults, ElasticSchedule):
            raise ValueError(
                "faults must be None, a FaultPlan or an ElasticSchedule, got "
                f"{type(self.faults).__name__}"
            )

    def _check_world(self, strategy: ReduceStrategy, n: int) -> None:
        """The bound cell can reduce ``n`` ranks, and — under worker
        reduce — has a pair-combine schedule for them."""
        strategy.validate_world(n)
        if self.reduce_mode == "workers" and strategy.pair_schedule(n) is None:
            raise ValueError(
                f"strategy ({self.op!r}, {self.topology!r}) has no "
                f"pair-combine schedule at {n} ranks; use reduce_mode='parent'"
            )

    # -- derived views -------------------------------------------------
    def make_reducer(self) -> StrategyReducer:
        """Build the registry-backed reducer this config describes."""
        return StrategyReducer(
            op=self.op,
            topology=self.topology,
            per_layer=self.per_layer,
            gpus_per_node=self.gpus_per_node,
        )

    def validate_for_pool(self, pool_size: int) -> "RunConfig":
        """Check this config can run elastically on ``pool_size`` ranks.

        The rules of :class:`~repro.elastic.ElasticTrainer`, which calls
        this with its own width, and of the multi-tenant scheduler,
        which calls it at job submission with the shared pool's size: a
        config that demands more than the pool, or whose elastic floor
        exceeds its own width, can never start; the elastic step has no
        overlap plan and takes its faults as an ``ElasticSchedule``; and
        a step may reduce any number of ranks up to ``num_ranks``, so
        the cell must reduce every one of them.  Returns ``self`` so the
        call chains.
        """
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.num_ranks > pool_size:
            raise ValueError(
                f"job needs {self.num_ranks} ranks but the pool has {pool_size}"
            )
        if self.min_ranks > self.num_ranks:
            raise ValueError(
                f"min_ranks ({self.min_ranks}) exceeds num_ranks "
                f"({self.num_ranks}); the job could never admit"
            )
        if self.overlap:
            raise ValueError(
                "ElasticTrainer has no overlap mode: set overlap=False "
                "(an elastic step runs one whole-row collective)"
            )
        if isinstance(self.faults, FaultPlan):
            raise ValueError(
                "an elastic run takes its faults as an ElasticSchedule "
                "(by step and global rank id), not a FaultPlan"
            )
        # Not only down to min_ranks: a step's participants can be fewer
        # than the live world (a tail batch that leaves ranks empty,
        # dropped stragglers).
        strategy = self.make_reducer().strategy
        for n in range(1, self.num_ranks):
            try:
                self._check_world(strategy, n)
            except ValueError as exc:
                raise ValueError(
                    f"{exc}: an elastic step over {self.num_ranks} ranks may "
                    f"reduce {n} of them, which topology={self.topology!r} "
                    "cannot; name a cell that reduces any size, such as "
                    "'tree'"
                ) from None
        return self

    def replace(self, **changes) -> "RunConfig":
        """A modified copy (re-runs all validation)."""
        return dataclasses.replace(self, **changes)
