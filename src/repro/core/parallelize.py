"""Optimizer-state and effective-gradient partitioning (paper Section 4.3).

For large models the Adasum computation itself (optimizer step + delta
construction + allreduce) is parallelized across the GPUs *within* a
node, Marian-style: optimizer state is partitioned layer-aligned (never
splitting a layer) so the underlying optimizer code needs no changes;
each local GPU updates only the layers in its partition, performs the
cross-node Adasum allreduce for those layers, then broadcasts its slice
to its node peers.

The payoff measured in the paper's Table 1: the freed memory allows a
60% larger microbatch (+~10% throughput) and the model-update time
drops ~1.87×.  :class:`PartitionedAdasumEngine` reproduces the
mechanism and exposes the memory/time model that the Table 1 benchmark
evaluates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.strategies import GradientReducer
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


def partition_layers(
    layer_sizes: Mapping[str, int], num_partitions: int
) -> List[List[str]]:
    """Greedy layer-aligned partitioning balancing total parameter count.

    Unlike Marian's uniform element split, layers are kept whole
    ("state corresponding to one neural network layer falls in the same
    partition" — the simplification the paper calls out).  Layers are
    assigned largest-first to the currently lightest partition.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    parts: List[List[str]] = [[] for _ in range(num_partitions)]
    loads = [0] * num_partitions
    for name, size in sorted(layer_sizes.items(), key=lambda kv: -kv[1]):
        i = int(np.argmin(loads))
        parts[i].append(name)
        loads[i] += size
    return parts


class PartitionedAdasumEngine:
    """Executes the Figure-3 update with §4.3 partitioning.

    Parameters
    ----------
    model:
        Shared model (one logical node; its ``num_gpus`` local GPUs are
        simulated).
    optimizer:
        A single node-level optimizer; each simulated local GPU calls
        ``step_subset`` on its partition only, which is exactly the
        claimed property (the optimizer code itself is unmodified).
    num_gpus:
        Local GPUs sharing the node.
    reducer:
        Cross-node reduction applied per partition slice.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        num_gpus: int,
        reducer: GradientReducer,
    ):
        self.model = model
        self.optimizer = optimizer
        self.num_gpus = num_gpus
        self.reducer = reducer
        self.named = list(model.named_parameters())
        self.param_index = {name: i for i, (name, _) in enumerate(self.named)}
        sizes = {name: p.size for name, p in self.named}
        self.partitions = partition_layers(sizes, num_gpus)

    # ------------------------------------------------------------------
    # Memory model (drives the Table 1 microbatch-size comparison)
    # ------------------------------------------------------------------
    def replicated_state_bytes(self) -> int:
        """Optimizer-state bytes per GPU *without* partitioning."""
        return self.optimizer.state_nbytes()

    def partitioned_state_bytes(self) -> int:
        """Max optimizer-state bytes per GPU *with* partitioning."""
        per_gpu = []
        for part in self.partitions:
            total = 0
            for name in part:
                st = self.optimizer.state.get(self.param_index[name], {})
                total += sum(arr.nbytes for arr in st.values())
            per_gpu.append(total)
        return max(per_gpu) if per_gpu else 0

    # ------------------------------------------------------------------
    # Update execution
    # ------------------------------------------------------------------
    def update(
        self,
        local_grads: Mapping[str, np.ndarray],
        remote_deltas: Sequence[Mapping[str, np.ndarray]] = (),
    ) -> Dict[str, np.ndarray]:
        """One partitioned Figure-3 update on this node.

        ``local_grads`` is this node's accumulated gradient;
        ``remote_deltas`` are the effective gradients the other nodes
        contribute to the cross-node Adasum (may be empty for a
        single-node run).  Each simulated local GPU ``g`` handles only
        ``partitions[g]``: optimizer subset step, delta construction,
        cross-node reduce for its slice, then "broadcast" (a write into
        the shared model).  Returns the combined effective gradient.
        """
        params = dict(self.named)
        starts = {name: p.data.copy() for name, p in params.items()}

        combined_all: Dict[str, np.ndarray] = {}
        for part in self.partitions:
            if not part:
                continue
            # Local optimizer step restricted to this partition; the
            # optimizer code itself is untouched (the §4.3 property).
            for name in part:
                params[name].grad = np.asarray(local_grads[name])
            self.optimizer.step_subset(
                [self.param_index[n] for n in part], advance=False
            )
            deltas_local = {n: params[n].data - starts[n] for n in part}
            rank_deltas = [deltas_local] + [
                {n: np.asarray(rd[n]) for n in part} for rd in remote_deltas
            ]
            if len(rank_deltas) > 1:
                combined = self.reducer.reduce(rank_deltas)
            else:
                combined = deltas_local
            # "Broadcast": write the combined slice into the shared model.
            for n in part:
                np.copyto(params[n].data, starts[n] + combined[n])
                combined_all[n] = combined[n]
        self.optimizer.step_count += 1
        self.model.zero_grad()
        return combined_all
