"""Simulated wall-clock model for system-efficiency experiments.

The paper's system-efficiency numbers (time per epoch, speedup vs GPU
count, time-to-accuracy) depend on GPU compute throughput and network
latency.  Neither exists here, so :class:`TrainingTimeModel` composes

* a *compute* term — seconds per training example on one accelerator,
* a *communication* term — the analytic collective latency from
  :mod:`repro.comm.netmodel` for the chosen reduction algorithm,

into per-step / per-epoch / end-to-end times.  Only ratios are
meaningful (see DESIGN.md); the defaults are calibrated so the headline
ratios of the paper's tables land in the right regime.
"""

from __future__ import annotations

import dataclasses

from repro.comm.netmodel import (
    NetworkModel,
    adasum_rvh_cost,
    hierarchical_allreduce_cost,
    ring_allreduce_cost,
)


@dataclasses.dataclass
class TrainingTimeModel:
    """Wall-clock model for one training configuration.

    Attributes
    ----------
    seconds_per_example:
        Forward+backward compute time per training example per worker.
    model_bytes:
        Gradient payload communicated per reduction (fp16/fp32 applied
        by the caller).
    num_workers:
        Total accelerators.
    gpus_per_node:
        Local accelerators per node (hierarchical reduction splits
        intra/inter traffic).
    intra, inter:
        Network models for the two levels.
    adasum:
        Whether the cross-node reduction is AdasumRVH (slightly more
        arithmetic + the dot-product allreduce) or plain RVH/ring sum.
    contention:
        Multiplier on the inter-node bandwidth term: a node's local
        ranks run their cross-node slice reductions over one shared NIC
        (``gpus_per_node`` = fully serialized; 1.0 = dedicated links).
    """

    seconds_per_example: float
    model_bytes: int
    num_workers: int
    gpus_per_node: int = 1
    intra: NetworkModel = dataclasses.field(default_factory=NetworkModel.pcie)
    inter: NetworkModel = dataclasses.field(default_factory=NetworkModel.infiniband)
    adasum: bool = False
    contention: float = 1.0

    # ------------------------------------------------------------------
    def allreduce_seconds(self) -> float:
        """Latency of one gradient reduction across all workers."""
        nodes = max(self.num_workers // self.gpus_per_node, 1)
        if self.gpus_per_node > 1:
            return hierarchical_allreduce_cost(
                self.model_bytes,
                nodes=nodes,
                gpus_per_node=self.gpus_per_node,
                intra=self.intra,
                inter=self.inter,
                cross_node_adasum=self.adasum,
                contention=self.contention,
            )
        if self.adasum:
            return adasum_rvh_cost(self.model_bytes, self.num_workers, self.inter)
        return ring_allreduce_cost(self.model_bytes, self.num_workers, self.inter)

    def step_seconds(self, microbatch: int, local_steps: int = 1) -> float:
        """Time for ``local_steps`` microbatches then one reduction."""
        compute = local_steps * microbatch * self.seconds_per_example
        return compute + self.allreduce_seconds()

    def epoch_seconds(self, dataset_size: int, microbatch: int, local_steps: int = 1) -> float:
        """Time for one pass over ``dataset_size`` examples.

        Each communication round consumes ``microbatch * local_steps *
        num_workers`` examples.
        """
        per_round = microbatch * local_steps * self.num_workers
        rounds = max(dataset_size // per_round, 1)
        return rounds * self.step_seconds(microbatch, local_steps)

    def time_to_accuracy(
        self, dataset_size: int, microbatch: int, epochs: float, local_steps: int = 1
    ) -> float:
        """End-to-end seconds for ``epochs`` epochs (the paper's TTA)."""
        return epochs * self.epoch_seconds(dataset_size, microbatch, local_steps)

    def throughput(self, microbatch: int, local_steps: int = 1) -> float:
        """Examples per second across the whole cluster."""
        per_round = microbatch * local_steps * self.num_workers
        return per_round / self.step_seconds(microbatch, local_steps)
