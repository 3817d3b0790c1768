"""Declarative run configuration for the reduction engine.

Before this module, every layer (CLI, trainers, elastic runtime,
benchmarks) parsed its own op/topology/fp16/bucket flags and enforced
its own slice of the mutual-exclusion rules.  :class:`RunConfig` is the
one frozen description of a run: flags are parsed into it exactly once
(:func:`parse_op` / :func:`parse_topology` in the CLI), validation
happens centrally in ``__post_init__`` (including the
``overlap``/``execution`` exclusion), and the trainers consume it
through ``from_config`` classmethods.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.comm.codec import parse_wire_codecs
from repro.core.distributed_optimizer import ReduceOpType
from repro.core.strategies import (
    OPS,
    TOPOLOGIES,
    StrategyReducer,
    get_strategy,
)


def parse_op(value) -> ReduceOpType:
    """Parse a CLI/user-facing op name into a :class:`ReduceOpType`.

    Accepts the enum itself, its value, or any case variant of the
    name; raises ``ValueError`` listing the valid ops otherwise.
    """
    if isinstance(value, ReduceOpType):
        return value
    try:
        return ReduceOpType(str(getattr(value, "value", value)).lower())
    except ValueError:
        raise ValueError(
            f"unknown reduction op {value!r}; choose from {sorted(OPS)}"
        ) from None


def parse_topology(value) -> str:
    """Parse/validate a topology name (``tree``/``tree_any``/``linear``/
    ``rvh``/``ring``/``hierarchical``); case-insensitive, ``-`` accepted
    for ``_``."""
    topology = str(value).lower().replace("-", "_")
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {value!r}; choose from {sorted(TOPOLOGIES)}"
        )
    return topology


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

    Parameters mirror the union of the trainer/optimizer keyword
    surfaces; construction normalizes ``op``/``topology`` and fails
    fast on any inconsistent combination, so a ``RunConfig`` that
    exists is runnable.  Use :meth:`replace` for modified copies.
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
        object.__setattr__(self, "op", parse_op(self.op).value)
        object.__setattr__(self, "topology", parse_topology(self.topology))
        # Fail fast if the cell is not registered.
        get_strategy(self.op, self.topology)
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
        if self.reduce_mode == "workers":
            if execution != "processes":
                raise ValueError(
                    "reduce_mode='workers' requires execution='processes': "
                    "only worker processes can run pair combines in "
                    "parallel over shared memory"
                )
            if self.topology == "rvh":
                raise ValueError(
                    "the 'rvh' topology has no pair-combine schedule "
                    "(it distributes partial dot products); use "
                    "reduce_mode='parent'"
                )

    # -- derived views -------------------------------------------------
    @property
    def reduce_op(self) -> ReduceOpType:
        """The op as the :class:`ReduceOpType` enum."""
        return ReduceOpType(self.op)

    def make_reducer(self) -> StrategyReducer:
        """Build the registry-backed reducer this config describes."""
        return StrategyReducer(
            op=self.op,
            topology=self.topology,
            per_layer=self.per_layer,
            gpus_per_node=self.gpus_per_node,
        )

    def validate_for_pool(self, pool_size: int) -> "RunConfig":
        """Check this per-job config is schedulable on a shared rank pool.

        The multi-tenant scheduler admits jobs onto a fixed pool of
        ``pool_size`` ranks; a config that demands more than the pool,
        or whose elastic floor exceeds its own width, can never start.
        Scheduler jobs run under ``ElasticTrainer``, so what it rejects
        (the ``rvh`` topology, ``overlap``) is rejected here, at
        submission.  Returns ``self`` so the call chains.
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
        if self.topology == "rvh":
            raise ValueError(
                "the elastic collective does not support the 'rvh' topology"
            )
        if self.overlap:
            raise ValueError("ElasticTrainer has no overlap mode: set overlap=False")
        return self

    def replace(self, **changes) -> "RunConfig":
        """A modified copy (re-runs all validation)."""
        return dataclasses.replace(self, **changes)
