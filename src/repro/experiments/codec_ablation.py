"""Wire-codec ablation on the Figure 6 LeNet workload.

Holds the §5.4 training recipe fixed (LeNet-5 on the MNIST-like set,
SGD momentum 0.9, linear warmup-decay, equal sample budget) and sweeps
the wire-codec stack for both Sum and Adasum:

* ``()`` — raw fp32 rows, the accuracy/byte reference;
* ``("fp16",)`` — the bit-exact dynamic-scaled half-precision wire;
* ``("fp16", "int8", "topk:0.01")`` — the full lossy error-feedback
  stack from the composable codec pipeline.

Per cell it records final-epoch mean loss, test accuracy, the modeled
encoded bytes actually shipped (``DistributedOptimizer.
wire_bytes_total``), and fp16 skip counts.  The two derived claims:

* the lossy stack moves **>= 50% fewer encoded bytes** than fp16 alone
  (``reduction_vs_fp16``; ``tests/comm/test_codec.py`` pins the same bound);
* with error feedback it still **converges**, and the JSON states the
  loss gap vs the raw-fp32 run per op (``loss_gap``).

``python -m repro.experiments.codec_ablation [out.json]`` writes the
result as JSON (``results/codec_ablation.json`` is a checked-in run).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core import RunConfig
from repro.data import make_mnist_like, train_test_split
from repro.models import LeNet5
from repro.optim import SGD, LinearWarmupDecay
from repro.train import ParallelTrainer, accuracy

#: The swept stacks, in presentation order.
STACKS: Tuple[Tuple[str, ...], ...] = (
    (),
    ("fp16",),
    ("fp16", "int8", "topk:0.01"),
)


def _stack_label(stack: Sequence[str]) -> str:
    return "+".join(stack) if stack else "fp32"


@dataclasses.dataclass
class AblationCell:
    """One (op, codec stack) training run at the shared sample budget."""

    op: str
    stack: Tuple[str, ...]
    final_loss: float
    accuracy: float
    wire_bytes: int
    skipped_steps: int
    steps: int

    @property
    def label(self) -> str:
        return _stack_label(self.stack)


@dataclasses.dataclass
class CodecAblationResult:
    cells: List[AblationCell]
    ranks: int
    epochs: int
    microbatch: int
    dataset: int

    def cell(self, op: str, stack: Sequence[str]) -> AblationCell:
        stack = tuple(stack)
        for c in self.cells:
            if c.op == op and c.stack == stack:
                return c
        raise KeyError((op, stack))

    def reduction_vs_fp16(self, op: str) -> float:
        """Encoded-byte reduction of the lossy stack relative to fp16-only."""
        fp16 = self.cell(op, ("fp16",)).wire_bytes
        lossy = self.cell(op, STACKS[-1]).wire_bytes
        return 1.0 - lossy / max(fp16, 1)

    def loss_gap(self, op: str) -> float:
        """Final-loss gap of the lossy stack vs the raw-fp32 wire."""
        return self.cell(op, STACKS[-1]).final_loss - self.cell(op, ()).final_loss

    def rows(self) -> List[Tuple]:
        out = []
        for c in self.cells:
            out.append(
                (c.op, c.label, f"{c.final_loss:.4f}", f"{c.accuracy:.4f}",
                 f"{c.wire_bytes:,}", str(c.skipped_steps))
            )
        return out

    def to_dict(self) -> Dict:
        """JSON-ready form (floats rounded for byte-stable output)."""
        return {
            "schema": "codec-ablation-v1",
            "workload": {
                "model": "lenet5",
                "ranks": self.ranks,
                "epochs": self.epochs,
                "microbatch": self.microbatch,
                "dataset": self.dataset,
            },
            "cells": [
                {
                    "op": c.op,
                    "stack": list(c.stack),
                    "final_loss": round(c.final_loss, 9),
                    "accuracy": round(c.accuracy, 9),
                    "wire_bytes": c.wire_bytes,
                    "skipped_steps": c.skipped_steps,
                    "steps": c.steps,
                }
                for c in self.cells
            ],
            "reduction_vs_fp16": {
                op: round(self.reduction_vs_fp16(op), 9)
                for op in ("sum", "adasum")
            },
            "loss_gap_vs_fp32": {
                op: round(self.loss_gap(op), 9) for op in ("sum", "adasum")
            },
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _train_cell(
    op: str,
    stack: Tuple[str, ...],
    ranks: int,
    max_lr: float,
    epochs: int,
    microbatch: int,
    x_tr, y_tr, x_te, y_te,
    warmup_frac: float,
    seed: int,
) -> AblationCell:
    model = LeNet5(rng=np.random.default_rng(seed))
    steps_per_epoch = len(x_tr) // (ranks * microbatch)
    schedule = LinearWarmupDecay(max_lr, total_steps=epochs * steps_per_epoch,
                                 warmup_frac=warmup_frac)
    config = RunConfig(
        op=op, adasum_pre_optimizer=op == "adasum", wire_codecs=stack,
        num_ranks=ranks, microbatch=microbatch, seed=seed,
    )
    trainer = ParallelTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, schedule, momentum=0.9),
        x_tr, y_tr, config,
    )
    dopt = trainer.dist_opt
    loss = float("nan")
    for e in range(epochs):
        loss = trainer.train_epoch(e)
    return AblationCell(
        op=op,
        stack=stack,
        final_loss=loss,
        accuracy=accuracy(model, x_te, y_te),
        wire_bytes=int(dopt.wire_bytes_total),
        skipped_steps=int(dopt.skipped_steps),
        steps=epochs * steps_per_epoch,
    )


def run_codec_ablation(
    ranks: int = 4,
    base_max_lr: float = 0.01,
    epochs: int = 1,
    microbatch: int = 8,
    dataset: int = 1024,
    warmup_frac: float = 0.17,
    seed: int = 0,
    fast: bool = True,
) -> CodecAblationResult:
    """Run the Sum/Adasum x codec-stack grid at a fixed sample budget."""
    if not fast:
        ranks, epochs, dataset = 8, 2, 4096
    x, y = make_mnist_like(dataset, noise=0.25, seed=seed)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=seed + 1)
    cells: List[AblationCell] = []
    for op in ("sum", "adasum"):
        for stack in STACKS:
            cells.append(
                _train_cell(
                    op, stack, ranks, base_max_lr, epochs, microbatch,
                    x_tr, y_tr, x_te, y_te, warmup_frac, seed,
                )
            )
    return CodecAblationResult(
        cells=cells, ranks=ranks, epochs=epochs, microbatch=microbatch,
        dataset=dataset,
    )


if __name__ == "__main__":
    result = run_codec_ablation()
    if len(sys.argv) > 1:
        result.write_json(sys.argv[1])
        print(f"wrote {sys.argv[1]}")
    else:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
