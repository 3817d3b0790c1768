"""The paper's contribution: the Adasum operator and its system machinery.

Modules
-------
``operator``
    The pairwise Adasum combiner and its recursive (tree / linear)
    application, whole-model and per-layer.
``strategies``
    The reduction engine: the ``(op, topology)`` strategy registry,
    the ``ReduceStrategy`` protocol, and the registry-backed
    ``StrategyReducer`` every trainer plugs in.
``config``
    Frozen declarative ``RunConfig`` plus the shared ``parse_op`` /
    ``parse_topology`` CLI helpers and centralized validation.
``arena``
    ``GradientArena`` — one contiguous flat gradient buffer per rank
    with named zero-copy views (the fused-tensor layout of §4.4.3)
    feeding the flat reducer kernels.
``adasum_rvh`` / ``adasum_ring``
    Algorithm 1 — recursive vector halving with Adasum — and the §4.2.3
    ring chain, executed verbatim over the simulated message-passing
    cluster as the ``(adasum, rvh)`` / ``(adasum, ring)`` cells'
    ``combine_comm`` (run them with
    :func:`repro.comm.collectives.cluster_allreduce`).
``distributed_optimizer``
    The Horovod-style ``DistributedOptimizer`` wrapper implementing the
    pre-/post-optimizer application subtlety of Figure 3.
``local_sgd``
    Gradient accumulation via local steps with delta-from-start
    effective gradients (the TensorFlow variant of Section 5.2).
``precision``
    Dynamic loss scaling for the fp16 wire codec (Section 4.4.1).
``parallelize``
    Optimizer-state and effective-gradient partitioning across local
    GPUs (Section 4.3, Marian-style).
``orthogonality``
    The per-layer gradient-orthogonality metric of Section 3.6/Figure 1.
``hessian``
    Exact sequential-SGD emulation with Hessian-vector products
    (Section 3.7 / Figure 2).
"""

from repro.core.operator import (
    adasum,
    adasum_flat,
    adasum_scale_factors,
    adasum_tree,
    adasum_linear,
    adasum_per_layer,
    orthogonality_ratio,
)
from repro.core.arena import (
    GradientArena,
    SharedGradientArena,
    layer_id_index,
    leaked_shared_segments,
    live_shared_segments,
)
from repro.core.strategies import (
    GradientReducer,
    ReduceStrategy,
    StrategyReducer,
    get_strategy,
    register_strategy,
    registered_cells,
)
from repro.core.config import (
    EXECUTIONS,
    RunConfig,
    parse_execution,
    parse_op,
    parse_topology,
)
from repro.core.distributed_optimizer import DistributedOptimizer
from repro.core.local_sgd import LocalStepWorker
from repro.core.precision import DynamicScaler
from repro.core.parallelize import PartitionedAdasumEngine, partition_layers
from repro.core.hessian import (
    hessian_vector_product,
    exact_hessian,
    sequential_emulation_update,
    hessian_pair_combine,
    hessian_tree_combine,
)
from repro.core.orthogonality import OrthogonalityProbe
from repro.core.clipping import clip_grad_norm, clip_grad_value, global_grad_norm
from repro.core.local_sgd import LocalSGDCluster

__all__ = [
    "adasum",
    "adasum_flat",
    "adasum_scale_factors",
    "adasum_tree",
    "adasum_linear",
    "adasum_per_layer",
    "orthogonality_ratio",
    "GradientArena",
    "SharedGradientArena",
    "layer_id_index",
    "leaked_shared_segments",
    "live_shared_segments",
    "ReduceStrategy",
    "StrategyReducer",
    "get_strategy",
    "register_strategy",
    "registered_cells",
    "RunConfig",
    "EXECUTIONS",
    "parse_execution",
    "parse_op",
    "parse_topology",
    "GradientReducer",
    "DistributedOptimizer",
    "LocalStepWorker",
    "DynamicScaler",
    "PartitionedAdasumEngine",
    "partition_layers",
    "hessian_vector_product",
    "exact_hessian",
    "sequential_emulation_update",
    "hessian_pair_combine",
    "hessian_tree_combine",
    "OrthogonalityProbe",
    "LocalSGDCluster",
    "clip_grad_norm",
    "clip_grad_value",
    "global_grad_norm",
]
