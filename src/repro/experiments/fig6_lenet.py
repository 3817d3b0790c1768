"""Figure 6 + LR tables — LeNet-5 scaling under an aggressive schedule.

Paper setup (§5.4): find the most aggressive 2-epoch linear
warmup-decay schedule that barely reaches sequential target accuracy
(max LR 0.0328, 17% warmup), then — holding the epoch budget fixed —
train with Sum vs Adasum on 4/8/16/32 GPUs, both with the unmodified
LR and with a per-configuration tuned LR.  Findings:

* untuned Sum collapses beyond 8 GPUs; untuned Adasum still converges
  at 32 GPUs;
* even tuned Sum is beaten by untuned Adasum at 32 GPUs;
* Sum's tuned LR halves as GPUs double (no net step-size gain), while
  Adasum sustains much higher LRs.

Scaled profile: true LeNet-5 on the synthetic MNIST-like set with a
smaller sample budget; rank counts 4/8/16/32 preserved.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core import RunConfig
from repro.data import make_mnist_like, train_test_split
from repro.models import LeNet5
from repro.optim import SGD, LinearWarmupDecay
from repro.train import ParallelTrainer, accuracy


@dataclasses.dataclass
class CellOutcome:
    """Accuracy of one (method, ranks, lr-mode) cell of Figure 6."""

    method: str
    ranks: int
    tuned: bool
    lr: float
    accuracy: float


@dataclasses.dataclass
class Fig6Result:
    cells: List[CellOutcome]
    sequential_accuracy: float
    base_max_lr: float
    epochs: int

    def cell(self, method: str, ranks: int, tuned: bool) -> CellOutcome:
        for c in self.cells:
            if c.method == method and c.ranks == ranks and c.tuned == tuned:
                return c
        raise KeyError((method, ranks, tuned))

    def rows(self) -> List[Tuple]:
        out = []
        for c in self.cells:
            out.append(
                (c.method, c.ranks, "tuned" if c.tuned else "untuned",
                 f"{c.lr:.4f}", f"{c.accuracy:.4f}")
            )
        return out

    def tuned_lr_table(self) -> Dict[str, Dict[int, float]]:
        """method -> ranks -> best LR (the paper's tuned-LR table)."""
        table: Dict[str, Dict[int, float]] = {}
        for c in self.cells:
            if c.tuned:
                table.setdefault(c.method, {})[c.ranks] = c.lr
        return table


def _train_once(
    method: str,
    ranks: int,
    max_lr: float,
    epochs: int,
    microbatch: int,
    x_tr, y_tr, x_te, y_te,
    warmup_frac: float,
    seed: int,
) -> float:
    model = LeNet5(rng=np.random.default_rng(seed))
    steps_per_epoch = len(x_tr) // (ranks * microbatch)
    schedule = LinearWarmupDecay(max_lr, total_steps=epochs * steps_per_epoch,
                                 warmup_frac=warmup_frac)
    config = RunConfig(
        op=method, adasum_pre_optimizer=method != "sum", num_ranks=ranks,
        microbatch=microbatch, seed=seed,
    )
    trainer = ParallelTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, schedule, momentum=0.9),
        x_tr, y_tr, config,
    )
    for e in range(epochs):
        trainer.train_epoch(e)
    return accuracy(model, x_te, y_te)


def _sequential_baseline(
    max_lr: float, epochs: int, microbatch: int, x_tr, y_tr, x_te, y_te,
    warmup_frac: float, seed: int,
) -> float:
    return _train_once(
        "sum", 1, max_lr, epochs, microbatch, x_tr, y_tr, x_te, y_te, warmup_frac, seed
    )


def run_fig6(
    rank_counts: Sequence[int] = (4, 8, 16, 32),
    base_max_lr: float = 0.01,
    epochs: int = 2,
    microbatch: int = 8,
    dataset: int = 4096,
    warmup_frac: float = 0.17,
    lr_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    seed: int = 0,
    fast: bool = True,
) -> Fig6Result:
    """Run the Figure-6 grid.

    ``lr_grid`` multiplies ``base_max_lr`` for the tuned cells (the
    paper searched each cell separately; a small relative grid keeps
    this tractable).  ``fast=True`` trims to 3 rank counts and a
    3-point grid.
    """
    if fast:
        rank_counts = tuple(rank_counts)[:3]
        lr_grid = (0.5, 1.0, 2.0)
    x, y = make_mnist_like(dataset, noise=0.25, seed=seed)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=seed + 1)
    seq_acc = _sequential_baseline(
        base_max_lr, epochs, microbatch, x_tr, y_tr, x_te, y_te, warmup_frac, seed
    )

    cells: List[CellOutcome] = []
    for method in ("adasum", "sum"):
        for ranks in rank_counts:
            untuned = _train_once(
                method, ranks, base_max_lr, epochs, microbatch,
                x_tr, y_tr, x_te, y_te, warmup_frac, seed,
            )
            cells.append(CellOutcome(method, ranks, False, base_max_lr, untuned))
            best_lr, best_acc = base_max_lr, untuned
            for mult in lr_grid:
                if mult == 1.0:
                    continue  # already measured as the untuned cell
                lr = base_max_lr * mult
                acc = _train_once(
                    method, ranks, lr, epochs, microbatch,
                    x_tr, y_tr, x_te, y_te, warmup_frac, seed,
                )
                if acc > best_acc:
                    best_lr, best_acc = lr, acc
            cells.append(CellOutcome(method, ranks, True, best_lr, best_acc))
    return Fig6Result(
        cells=cells, sequential_accuracy=seq_acc, base_max_lr=base_max_lr, epochs=epochs
    )
