"""Table 2 — TensorFlow ResNet-50 on slow TCP: local steps 16 vs 1.

Paper finding: on a 40 GbE TCP fabric, communicating once every 16
local steps (effective batch 64K) costs a little algorithmic efficiency
(68 → 84 epochs) but slashes minutes-per-epoch (2.58 → 1.98), so the
total time-to-accuracy *improves* (175.4 → 166.3 min).

Reproduced with :class:`repro.core.LocalSGDCluster` (delta-from-start
effective gradients + Adasum — the TF variant described in §5.2) for
algorithmic efficiency, and the slow-TCP α–β model for system
efficiency.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro import nn
from repro.comm import NetworkModel
from repro.core import LocalSGDCluster, StrategyReducer
from repro.data import BatchIterator, ShardedSampler, make_image_classification, train_test_split
from repro.models import ResNetCIFAR
from repro.optim import SGD
from repro.train import TrainingTimeModel, accuracy
from repro.train.trainer import compute_grads


@dataclasses.dataclass
class LocalStepOutcome:
    local_steps: int
    effective_batch: int
    minutes_per_epoch: float
    epochs_to_target: Optional[int]
    best_accuracy: float

    @property
    def time_to_accuracy_min(self) -> Optional[float]:
        if self.epochs_to_target is None:
            return None
        return self.epochs_to_target * self.minutes_per_epoch


@dataclasses.dataclass
class Table2Result:
    outcomes: List[LocalStepOutcome]
    target: float

    def rows(self) -> List[Tuple]:
        out = []
        for o in self.outcomes:
            tta = f"{o.time_to_accuracy_min:.1f}" if o.time_to_accuracy_min else "-"
            out.append(
                (o.local_steps, o.effective_batch, f"{o.minutes_per_epoch:.2f}",
                 o.epochs_to_target if o.epochs_to_target is not None else "-", tta)
            )
        return out


def _train_local_sgd(
    local_steps: int,
    ranks: int,
    microbatch: int,
    lr: float,
    x_tr, y_tr, x_te, y_te,
    target: float,
    max_epochs: int,
    seed: int,
) -> Tuple[Optional[int], float]:
    model = ResNetCIFAR(n=1, width=8, rng=np.random.default_rng(seed))
    cluster = LocalSGDCluster(
        model,
        lambda ps: SGD(ps, lr, momentum=0.9),
        num_ranks=ranks,
        local_steps=local_steps,
        reducer=StrategyReducer("adasum"),
    )
    loss_fn = nn.CrossEntropyLoss()

    def grad_fn(m, batch):
        xb, yb = batch
        return compute_grads(m, loss_fn, xb, yb)

    sampler = ShardedSampler(len(x_tr), ranks, seed=seed)
    iterator = BatchIterator(sampler, microbatch)
    best, reached = 0.0, None
    for epoch in range(max_epochs):
        for _, rank_idx in iterator.epoch(epoch):
            batches = [(x_tr[idx], y_tr[idx]) for idx in rank_idx]
            cluster.step(batches, grad_fn)
        cluster.sync_model()
        acc = accuracy(model, x_te, y_te)
        best = max(best, acc)
        if acc >= target:
            reached = epoch + 1
            break
    return reached, best


def run_table2(
    ranks: int = 4,
    microbatch: int = 8,
    lr: float = 0.05,
    target: float = 0.80,
    max_epochs: int = 30,
    dataset: int = 2048,
    local_steps_options: Tuple[int, int] = (16, 1),
    seed: int = 0,
    fast: bool = True,
) -> Table2Result:
    """Run both Table-2 columns (many local steps vs none)."""
    if not fast:
        dataset, max_epochs = dataset * 2, max_epochs * 2
    x, y = make_image_classification(dataset, image_size=12, noise=0.7, seed=seed)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=seed + 1)

    outcomes = []
    for k in local_steps_options:
        mpe = paper_scale_minutes_per_epoch(k)
        reached, best = _train_local_sgd(
            k, ranks, microbatch, lr, x_tr, y_tr, x_te, y_te, target, max_epochs, seed
        )
        outcomes.append(
            LocalStepOutcome(
                local_steps=k,
                effective_batch=ranks * microbatch * k,
                minutes_per_epoch=mpe,
                epochs_to_target=reached,
                best_accuracy=best,
            )
        )
    return Table2Result(outcomes=outcomes, target=target)


#: Paper-scale system constants (§5.2): 16 V100s over 40 GbE TCP,
#: MLPerf TF ResNet-50 on ImageNet, 256 examples per GPU per local
#: step.  ``seconds_per_example`` and effective achieved TCP allreduce
#: bandwidth are calibrated so minutes-per-epoch lands near the paper's
#: 2.58 (k=1) and 1.98 (k=16).
PAPER_WORKERS = 16
PAPER_DATASET = 1_281_167
PAPER_MICROBATCH = 256
PAPER_SECONDS_PER_EXAMPLE = 1.456e-3
PAPER_MODEL_BYTES = int(25.5e6 * 4)
PAPER_TCP = NetworkModel(alpha=5e-5, beta=1 / 1.67e9, gamma=1 / 200e9,
                         name="tcp-effective")


def paper_scale_minutes_per_epoch(local_steps: int) -> float:
    """Modeled minutes per ImageNet epoch at the paper's cluster scale."""
    time_model = TrainingTimeModel(
        seconds_per_example=PAPER_SECONDS_PER_EXAMPLE,
        model_bytes=PAPER_MODEL_BYTES,
        num_workers=PAPER_WORKERS,
        gpus_per_node=1,
        inter=PAPER_TCP,
        adasum=True,
    )
    return time_model.epoch_seconds(
        PAPER_DATASET, PAPER_MICROBATCH, local_steps=local_steps
    ) / 60.0


def tta_crossover_allreduce_seconds(
    epochs_k: int, epochs_1: int, local_steps: int = 16
) -> float:
    """Allreduce latency above which k local steps win time-to-accuracy.

    Solving ``epochs_k * T_epoch(k) < epochs_1 * T_epoch(1)`` for the
    per-round allreduce time with the paper-scale compute constants:
    local steps pay off once communication is slow enough.  Returns
    ``inf`` when no crossover exists (equal epoch counts aside).
    """
    compute_per_example = PAPER_SECONDS_PER_EXAMPLE
    rounds_1 = PAPER_DATASET / (PAPER_MICROBATCH * PAPER_WORKERS)
    rounds_k = rounds_1 / local_steps
    # epochs_k * rounds_k * (k*mb*spe + A) < epochs_1 * rounds_1 * (mb*spe + A)
    mb = PAPER_MICROBATCH
    lhs_compute = epochs_k * rounds_k * local_steps * mb * compute_per_example
    rhs_compute = epochs_1 * rounds_1 * mb * compute_per_example
    denom = epochs_k * rounds_k - epochs_1 * rounds_1
    if denom >= 0:
        return float("inf")
    return (lhs_compute - rhs_compute) / -denom
