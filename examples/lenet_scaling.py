"""LeNet-5 scaling case study (paper Section 5.4, Figure 6).

Trains LeNet-5 under the paper's aggressive 2-epoch linear
warmup-decay schedule on 4, 8 and 16 simulated GPUs, with Sum and with
Adasum, *without* retuning the learning rate — demonstrating the easy
scalability Adasum enables (Sum degrades as ranks grow; Adasum holds).

Run:  python examples/lenet_scaling.py
"""

import numpy as np

from repro import nn
from repro.core import RunConfig
from repro.data import make_mnist_like, train_test_split
from repro.models import LeNet5
from repro.optim import SGD, LinearWarmupDecay
from repro.train import ParallelTrainer, accuracy
from repro.utils import format_table

EPOCHS = 2
MICROBATCH = 8
MAX_LR = 0.01  # the aggressive schedule found for sequential training
WARMUP = 0.17  # the paper's tuned warmup fraction


def train(method: str, ranks: int, x_tr, y_tr, x_te, y_te) -> float:
    model = LeNet5(rng=np.random.default_rng(0))
    steps = EPOCHS * (len(x_tr) // (ranks * MICROBATCH))
    schedule = LinearWarmupDecay(MAX_LR, total_steps=steps, warmup_frac=WARMUP)
    config = RunConfig(
        op=method, adasum_pre_optimizer=True, num_ranks=ranks,
        microbatch=MICROBATCH, seed=0,
    )
    trainer = ParallelTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, schedule, momentum=0.9),
        x_tr, y_tr, config,
    )
    for epoch in range(EPOCHS):
        trainer.train_epoch(epoch)
    return accuracy(model, x_te, y_te)


def main() -> None:
    x, y = make_mnist_like(3072, noise=0.25, seed=0)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=1)
    seq = train("sum", 1, x_tr, y_tr, x_te, y_te)
    print(f"sequential baseline accuracy: {seq:.4f}\n")

    rows = []
    for ranks in (4, 8, 16):
        acc_sum = train("sum", ranks, x_tr, y_tr, x_te, y_te)
        acc_ada = train("adasum", ranks, x_tr, y_tr, x_te, y_te)
        rows.append((ranks, f"{acc_sum:.4f}", f"{acc_ada:.4f}"))
        print(f"{ranks:2d} ranks:  Sum {acc_sum:.4f}   Adasum {acc_ada:.4f}")
    print()
    print(format_table(["ranks", "Sum", "Adasum (same LR)"], rows))
    print("\nExpected shape (paper Fig. 6): Sum degrades with rank count at a")
    print("fixed LR; Adasum keeps converging without any hyperparameter change.")


if __name__ == "__main__":
    main()
