"""Elastic recovery — final loss under rank failures vs a failure-free run.

The claim the elastic runtime has to earn: at an *equal sample budget*
(every example visited exactly once per epoch, regardless of how many
ranks survive), a run that loses ranks mid-epoch should land within
tolerance of the failure-free run with the same seed.  The world
shrinks (here 8 → 7 → 5, deliberately ending non-power-of-two), the
Adasum tree re-grows over the survivors, the per-rank optimizer states
are re-partitioned, and the interrupted step's samples are re-dealt —
nothing is dropped and nothing is visited twice.

The experiment trains a small MLP classifier three ways at the same
seed and sample budget:

* ``no faults`` — the 8-rank reference;
* ``kill schedule`` — one rank killed mid-epoch 0, two more in epoch 1;
* ``kills + straggler drop`` — the same schedule plus a persistent
  4x-delayed rank handled by the drop-and-renormalize straggler policy.

Reported per run: final-epoch mean loss, held-out accuracy, the world's
size trajectory, and the measured recovery overhead (wall seconds from
failure to the first committed post-recovery step).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro import nn
from repro.comm import NetworkModel
from repro.core import RunConfig
from repro.data import train_test_split
from repro.models import MLP
from repro.optim import SGD
from repro.train import accuracy
from repro.elastic import ElasticSchedule, ElasticTrainer, StragglerPolicy


@dataclasses.dataclass
class ElasticOutcome:
    label: str
    final_loss: float
    test_accuracy: float
    world_sizes: List[int]          # size after each epoch (start prepended)
    recoveries: List[dict]
    recovery_overhead_s: List[float]

    @property
    def world_trajectory(self) -> str:
        return " -> ".join(str(s) for s in self.world_sizes)


@dataclasses.dataclass
class ElasticRecoveryResult:
    outcomes: List[ElasticOutcome]
    epochs: int
    samples_per_epoch: int

    @property
    def loss_gap(self) -> float:
        """|final loss (kill schedule) − final loss (failure-free)|."""
        return abs(self.outcomes[1].final_loss - self.outcomes[0].final_loss)

    def rows(self) -> List[Tuple]:
        out = []
        for o in self.outcomes:
            overhead = (
                f"{max(o.recovery_overhead_s) * 1e3:.1f}"
                if o.recovery_overhead_s else "-"
            )
            out.append(
                (o.label, o.world_trajectory, f"{o.final_loss:.4f}",
                 f"{o.test_accuracy:.4f}", len(o.recoveries), overhead)
            )
        return out


def _task(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 10)).astype(np.float32)
    w = rng.standard_normal((10, 3)).astype(np.float32)
    logits = x @ w + 0.3 * np.tanh(x[:, :3] @ rng.standard_normal((3, 3)))
    y = logits.argmax(axis=1)
    return x, y


def _run_one(
    label: str,
    x, y, x_test, y_test,
    num_ranks: int,
    epochs: int,
    microbatch: int,
    seed: int,
    schedule: Optional[ElasticSchedule] = None,
    straggler: Optional[StragglerPolicy] = None,
    network: Optional[NetworkModel] = None,
) -> ElasticOutcome:
    model = MLP((x.shape[1], 32, 3), rng=np.random.default_rng(seed))
    config = RunConfig(
        op="adasum", topology="tree_any", num_ranks=num_ranks,
        microbatch=microbatch, seed=seed, faults=schedule, network=network,
    )
    trainer = ElasticTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.2), x, y, config,
        straggler=straggler,
    )
    sizes = [trainer.num_ranks]
    final_loss = float("nan")
    for epoch in range(epochs):
        final_loss = trainer.train_epoch(epoch)
        sizes.append(trainer.num_ranks)
        assert sorted(trainer.epoch_visited) == list(range(len(x))), (
            f"{label}: epoch {epoch} visited "
            f"{len(trainer.epoch_visited)}/{len(x)} samples"
        )
    acc = accuracy(model, x_test, y_test)
    return ElasticOutcome(
        label=label,
        final_loss=final_loss,
        test_accuracy=acc,
        world_sizes=sizes,
        recoveries=list(trainer.recoveries),
        recovery_overhead_s=list(trainer.recovery_seconds),
    )


def run_elastic_recovery(fast: bool = True, seed: int = 0) -> ElasticRecoveryResult:
    n = 480 if fast else 1920
    epochs = 3 if fast else 6
    microbatch = 4
    num_ranks = 8
    x_all, y_all = _task(n + n // 4, seed)
    x, y, x_test, y_test = train_test_split(x_all, y_all, test_frac=0.2, seed=seed)

    steps = -(-len(x) // (microbatch * num_ranks))
    # Kill one rank mid-epoch 0 and two more in epoch 1: 8 -> 7 -> 5,
    # finishing on a non-power-of-two world.
    kills = (
        ElasticSchedule()
        .kill(steps // 2, 3)
        .kill(steps + steps // 3, 0)
        .kill(steps + steps // 3, 6)
    )
    kills2 = (
        ElasticSchedule()
        .kill(steps // 2, 3)
        .kill(steps + steps // 3, 0)
        .kill(steps + steps // 3, 6)
        .delay(5, 25.0, from_step=0)
    )

    outcomes = [
        _run_one("no faults", x, y, x_test, y_test,
                 num_ranks, epochs, microbatch, seed),
        _run_one("kill schedule (8->7->5)", x, y, x_test, y_test,
                 num_ranks, epochs, microbatch, seed, schedule=kills),
        _run_one("kills + straggler drop", x, y, x_test, y_test,
                 num_ranks, epochs, microbatch, seed, schedule=kills2,
                 straggler=StragglerPolicy(mode="drop", factor=4.0, drop_steps=3),
                 network=NetworkModel(alpha=1e-6, beta=2e-9, gamma=0.0,
                                      name="lossy")),
    ]
    return ElasticRecoveryResult(
        outcomes=outcomes, epochs=epochs, samples_per_epoch=len(x)
    )
