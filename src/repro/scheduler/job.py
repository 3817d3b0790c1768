"""Job model for the multi-tenant control plane.

A :class:`JobSpec` is the immutable submission — name, arrival time,
priority tier, workload shape, and the job's own frozen
:class:`~repro.core.config.RunConfig`.  A :class:`Job` is its runtime
state inside the scheduler: the live :class:`ElasticTrainer` (built
lazily at admission), progress counters, and the loan bookkeeping the
preemption engine drives.

Workloads are deterministic synthetic classification problems: inputs
and a random linear teacher are seeded from the job's config seed, so
the same spec always trains on the same data — which is what makes the
bit-identical preemption acceptance test meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import RunConfig
from repro.elastic.trainer import ElasticTrainer
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD


@dataclass(frozen=True)
class Workload:
    """A model-size class: MLP layer widths plus a step-cost multiplier."""

    sizes: Tuple[int, ...]
    cost_scale: float


#: Model-size classes the load generator mixes.  ``cost_scale`` feeds
#: the scheduler's virtual step-cost model (bigger model = slower step).
WORKLOADS: Dict[str, Workload] = {
    "tiny": Workload(sizes=(8, 12, 4), cost_scale=1.0),
    "small": Workload(sizes=(8, 24, 12, 4), cost_scale=2.0),
    "wide": Workload(sizes=(16, 48, 4), cost_scale=3.0),
}


class JobPhase(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SHRUNK = "shrunk"        # running at reduced width; ranks out on loan
    PAUSED = "paused"        # fully suspended; resumes when loans return
    COMPLETED = "completed"
    REJECTED = "rejected"    # config can never fit the pool


@dataclass(frozen=True)
class JobSpec:
    """One immutable job submission."""

    name: str
    arrival: float
    config: RunConfig
    priority: int = 0
    model: str = "tiny"
    n_samples: int = 64
    epochs: int = 1
    lr: float = 0.05

    def __post_init__(self):
        if self.model not in WORKLOADS:
            raise ValueError(
                f"unknown model class {self.model!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def cost_scale(self) -> float:
        return WORKLOADS[self.model].cost_scale


def build_workload(spec: JobSpec):
    """Deterministic ``(model, x, y)`` for a spec (seeded by its config)."""
    w = WORKLOADS[spec.model]
    in_dim, classes = w.sizes[0], w.sizes[-1]
    data_rng = np.random.default_rng(spec.config.seed + 7)
    x = data_rng.standard_normal((spec.n_samples, in_dim)).astype(np.float32)
    teacher = data_rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ teacher).argmax(axis=1)
    model = MLP(w.sizes, rng=np.random.default_rng(spec.config.seed + 13))
    return model, x, y


class Job:
    """Runtime state of one job inside the scheduler."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.phase = JobPhase.QUEUED
        self.trainer: Optional[ElasticTrainer] = None
        self.epoch_idx = 0
        #: Generation token: every (re)schedule bumps it, so step events
        #: queued before a preemption are recognized as stale and dropped.
        self.token = 0
        self.admitted_seq = -1
        self.first_admit_t: Optional[float] = None
        self.finish_t: Optional[float] = None
        self.samples_done = 0
        self.steps_done = 0
        self.wasted_samples = 0
        self.kills = 0
        self.preemptions = 0
        self.final_loss: Optional[float] = None
        self.reject_reason: Optional[str] = None
        self.loans_out: List = []   # active loans where this job is lender
        self.borrowed: List = []    # active loans where this job is borrower

    def __repr__(self) -> str:
        return f"Job({self.spec.name}, {self.phase.value}, width={self.width})"

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def width(self) -> int:
        """Current trainer world size (0 while not admitted)."""
        return 0 if self.trainer is None else self.trainer.num_ranks

    @property
    def done(self) -> bool:
        return self.epoch_idx >= self.spec.epochs

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the trainer and open epoch 0 (admission / requeue-restart)."""
        assert self.trainer is None, f"{self.name} already has a trainer"
        model, x, y = build_workload(self.spec)
        lr = self.spec.lr
        self.trainer = ElasticTrainer.from_config(
            model,
            CrossEntropyLoss(),
            lambda ps: SGD(ps, lr=lr),
            x,
            y,
            self.spec.config,
        )
        self.epoch_idx = 0
        self.trainer.begin_epoch(0)

    def run_step(self) -> float:
        """One committed training step; advances epoch/progress counters."""
        assert self.trainer is not None and not self.trainer.paused
        before = self.trainer.iterator.cursor
        loss = self.trainer.train_step()
        self.samples_done += self.trainer.iterator.cursor - before
        self.steps_done += 1
        self.final_loss = loss
        if not self.trainer.iterator.has_next():
            self.epoch_idx += 1
            if self.epoch_idx < self.spec.epochs:
                self.trainer.begin_epoch(self.epoch_idx)
        return loss

    def kill(self) -> None:
        """Kill-and-requeue preemption: all progress is thrown away."""
        self.wasted_samples += self.samples_done
        self.kills += 1
        self.samples_done = 0
        self.steps_done = 0
        self.epoch_idx = 0
        self.final_loss = None
        self.close()

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
            self.trainer = None
