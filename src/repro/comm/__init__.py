"""Simulated message-passing cluster.

This package replaces MPI/NCCL for the reproduction.  It provides:

* :class:`Cluster` / :class:`Comm` — N simulated ranks running as
  threads with blocking point-to-point ``send``/``recv`` and per-rank
  simulated clocks (:mod:`repro.comm.transport`);
* collectives — ring allreduce, recursive doubling, recursive vector
  halving (reduce-scatter + allgather), broadcast, and a two-level
  hierarchical allreduce (:mod:`repro.comm.collectives`);
* an α–β network cost model with presets for the paper's hardware
  (NVLink/NCCL, InfiniBand, PCIe, slow TCP) plus analytic latency
  formulas for each collective (:mod:`repro.comm.netmodel`);
* the fused-tensor layout with per-tensor boundary bookkeeping that
  Adasum needs for per-layer dot products (:mod:`repro.comm.fusion`)
  and its size-capped buckets (:mod:`repro.comm.bucketing`);
* robustness and observability: hang detection with per-rank blocked
  state (:mod:`repro.comm.transport`), deterministic fault injection —
  stragglers, message drops with retry, rank kills
  (:mod:`repro.comm.faults`) — and opt-in per-rank event tracing with
  Chrome-trace export (:mod:`repro.comm.tracing`).
"""

from repro.comm.netmodel import (
    NetworkModel,
    TwoLevelNetwork,
    ring_allreduce_cost,
    rvh_allreduce_cost,
    adasum_rvh_cost,
    adasum_ring_cost,
    nccl_allreduce_cost,
    hierarchical_allreduce_cost,
)
from repro.comm.transport import (
    Cluster,
    Comm,
    CommError,
    CommOrderError,
    CommTimeoutError,
    GroupComm,
)
from repro.comm.faults import FaultPlan, RankKilledError
from repro.comm.tracing import CommTracer, TraceEvent
from repro.comm.hierarchical import (
    hierarchical_allreduce,
    hierarchical_adasum_allreduce,
    hierarchical_sum_allreduce,
    cross_node_peers,
)
from repro.comm.collectives import (
    allreduce_ring,
    allreduce_recursive_doubling,
    cluster_allreduce,
    reduce_scatter_halving,
    allgather_doubling,
    broadcast,
)
from repro.comm.fusion import FusedTensorLayout
from repro.comm.bucketing import Bucket, BucketPlan
from repro.comm.codec import (
    CodecPipeline,
    WireCodec,
    build_codec,
    build_pipeline,
    parse_wire_codecs,
)

__all__ = [
    "NetworkModel",
    "TwoLevelNetwork",
    "Cluster",
    "Comm",
    "CommError",
    "CommOrderError",
    "CommTimeoutError",
    "GroupComm",
    "FaultPlan",
    "RankKilledError",
    "CommTracer",
    "TraceEvent",
    "hierarchical_allreduce",
    "hierarchical_adasum_allreduce",
    "hierarchical_sum_allreduce",
    "cross_node_peers",
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "cluster_allreduce",
    "reduce_scatter_halving",
    "allgather_doubling",
    "broadcast",
    "FusedTensorLayout",
    "CodecPipeline",
    "WireCodec",
    "build_codec",
    "build_pipeline",
    "parse_wire_codecs",
    "Bucket",
    "BucketPlan",
    "ring_allreduce_cost",
    "rvh_allreduce_cost",
    "adasum_rvh_cost",
    "adasum_ring_cost",
    "nccl_allreduce_cost",
    "hierarchical_allreduce_cost",
]
