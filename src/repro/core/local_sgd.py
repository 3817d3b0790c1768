"""Local steps + delta-based Adasum (paper Section 5.2, Table 2).

On slow interconnects, the TensorFlow Adasum distributed optimizer lets
each rank take ``k`` *local* optimizer steps between allreduces; at
communication time the effective gradient is the model's delta since
the previous allreduce, combined with Adasum.  This trades a little
algorithmic efficiency (Table 2: 68 → 84 epochs) for a large system
efficiency win (2.58 → 1.98 min/epoch on TCP).

:class:`LocalStepWorker` holds one rank's weight copy and optimizer;
:class:`LocalSGDCluster` coordinates a full simulated cluster of them
against a single physical model object (weights are swapped in and out
around each rank's compute).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.strategies import StrategyReducer
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


class LocalStepWorker:
    """One simulated rank: private weights + private optimizer state."""

    def __init__(self, rank: int, weights: Mapping[str, np.ndarray], optimizer: Optimizer):
        self.rank = rank
        self.weights: Dict[str, np.ndarray] = {n: w.copy() for n, w in weights.items()}
        self.optimizer = optimizer
        self.round_start: Dict[str, np.ndarray] = {n: w.copy() for n, w in weights.items()}

    def load_into(self, params: Mapping[str, "np.ndarray"]) -> None:
        """Copy this rank's weights into the shared model's parameters."""
        for name, p in params.items():
            np.copyto(p.data, self.weights[name])

    def store_from(self, params) -> None:
        """Copy the shared model's parameters back into this rank."""
        for name, p in params.items():
            np.copyto(self.weights[name], p.data)

    def delta(self) -> Dict[str, np.ndarray]:
        """Effective gradient: weight delta since the last allreduce."""
        return {n: self.weights[n] - self.round_start[n] for n in self.weights}

    def apply_combined(self, combined: Mapping[str, np.ndarray]) -> None:
        """Move to ``round_start + combined`` and begin a new round."""
        for n in self.weights:
            self.weights[n] = self.round_start[n] + combined[n]
            self.round_start[n] = self.weights[n].copy()


#: ``compute_grad_fn(model, batch) -> (loss_value, {layer: grad})``
ComputeGradFn = Callable[[Module, object], Tuple[float, Dict[str, np.ndarray]]]


class LocalSGDCluster:
    """Simulated cluster running ``local_steps`` steps between allreduces.

    Parameters
    ----------
    model:
        Shared physical model object; rank weights are swapped through it.
    optimizer_factory:
        Builds each rank's private optimizer over the model's parameters.
    num_ranks:
        World size.
    local_steps:
        Optimizer steps per rank between communications (paper's
        "local steps before communicating"; 1 = communicate every step).
    reducer:
        How the deltas are combined (Adasum in the paper; Sum/Average
        for baselines — with Sum the deltas are *averaged* to keep the
        update bounded, matching gradient-accumulation baselines).
    """

    def __init__(
        self,
        model: Module,
        optimizer_factory: Callable[[list], Optimizer],
        num_ranks: int,
        local_steps: int,
        reducer: StrategyReducer,
    ):
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        self.model = model
        self.params = dict(model.named_parameters())
        self.num_ranks = num_ranks
        self.local_steps = local_steps
        self.reducer = reducer
        weights = {n: p.data for n, p in self.params.items()}
        self.workers: List[LocalStepWorker] = [
            LocalStepWorker(r, weights, optimizer_factory(model.parameters()))
            for r in range(num_ranks)
        ]
        self._steps_in_round = 0
        self.communications = 0

    def step(
        self, rank_batches: Sequence[object], compute_grad_fn: ComputeGradFn
    ) -> Dict[str, float]:
        """One local step on every rank; communicate when the round ends.

        Returns ``{"loss": mean_rank_loss, "communicated": 0.0 or 1.0}``.
        """
        if len(rank_batches) != self.num_ranks:
            raise ValueError(f"expected {self.num_ranks} batches")
        losses = []
        for worker, batch in zip(self.workers, rank_batches):
            worker.load_into(self.params)
            self.model.zero_grad()
            loss, grads = compute_grad_fn(self.model, batch)
            losses.append(loss)
            for name, p in self.params.items():
                p.grad = grads[name]
            worker.optimizer.step()
            worker.store_from(self.params)
        self._steps_in_round += 1

        communicated = 0.0
        if self._steps_in_round >= self.local_steps:
            self._communicate()
            communicated = 1.0
        return {"loss": float(np.mean(losses)), "communicated": communicated}

    def _communicate(self) -> None:
        deltas = [w.delta() for w in self.workers]
        combined = self.reducer.reduce(deltas)
        if self.reducer.strategy.scales_with_world:
            # Sum/Average baselines operate on deltas too; a sum of
            # deltas over-counts by N, so normalize to the average (the
            # standard gradient-accumulation baseline).
            combined = {n: v / self.num_ranks for n, v in combined.items()}
        for w in self.workers:
            w.apply_combined(combined)
        self._steps_in_round = 0
        self.communications += 1
        # Leave the shared model holding the synchronized weights.
        self.workers[0].load_into(self.params)

    def sync_model(self) -> None:
        """Load rank 0's current weights into the shared model (for eval)."""
        self.workers[0].load_into(self.params)
