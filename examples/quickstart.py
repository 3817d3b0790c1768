"""Quickstart: the Adasum operator and the distributed optimizer.

Mirrors the paper's Section 4.1 usage:

    opt = hvd.DistributedOptimizer(opt, op=hvd.Adasum)

but on the simulated cluster.  Trains a small MLP on a synthetic task
with 8 simulated ranks, comparing plain gradient summation against
Adasum, and prints the per-epoch validation accuracy of both.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import nn
from repro.core import RunConfig, adasum
from repro.data import make_mnist_like, train_test_split
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer, accuracy


def demo_operator() -> None:
    """The pairwise operator itself (paper Section 3)."""
    g_orth1 = np.array([1.0, 0.0], dtype=np.float32)
    g_orth2 = np.array([0.0, 1.0], dtype=np.float32)
    g_par = np.array([1.0, 1.0], dtype=np.float32)
    print("Adasum of orthogonal gradients (sums):  ", adasum(g_orth1, g_orth2))
    print("Adasum of parallel gradients (averages):", adasum(g_par, g_par))
    print()


def train(op: str, label: str, ranks: int = 8, epochs: int = 4) -> float:
    x, y = make_mnist_like(2048, noise=0.3, seed=0)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.25, seed=1)
    model = MLP((28 * 28, 64, 10), rng=np.random.default_rng(42))

    # The only change between the runs is `op=...` — exactly the
    # one-flag switch the paper's Horovod integration exposes.
    config = RunConfig(
        op=op, adasum_pre_optimizer=True, num_ranks=ranks, microbatch=16, seed=0
    )
    trainer = ParallelTrainer(
        model, nn.CrossEntropyLoss(),
        lambda params: SGD(params, lr=0.02, momentum=0.9),
        x_tr, y_tr, config,
    )
    print(f"--- {label} ({ranks} simulated ranks) ---")
    acc = 0.0
    for epoch in range(epochs):
        loss = trainer.train_epoch(epoch)
        acc = accuracy(model, x_te, y_te)
        print(f"  epoch {epoch + 1}: loss {loss:.4f}  val-acc {acc:.4f}")
    print()
    return acc


def main() -> None:
    demo_operator()
    adasum_acc = train("adasum", "Adasum")
    sum_acc = train("sum", "Sum (synchronous SGD)")
    print(f"final accuracy — Adasum: {adasum_acc:.4f}   Sum: {sum_acc:.4f}")


if __name__ == "__main__":
    main()
