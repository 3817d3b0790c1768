"""Evaluation metrics."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import no_grad


def accuracy(model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    """Top-1 classification accuracy of ``model`` on ``(x, y)``."""
    model.eval()
    correct = 0
    with no_grad():
        for lo in range(0, len(x), batch_size):
            logits = model(x[lo : lo + batch_size])
            pred = logits.data.argmax(axis=-1)
            correct += int((pred == y[lo : lo + batch_size]).sum())
    model.train()
    return correct / len(x)


def masked_lm_accuracy(
    model: Module,
    inputs: np.ndarray,
    targets: np.ndarray,
    ignore_index: int = -100,
    batch_size: int = 64,
) -> float:
    """Fraction of masked positions predicted correctly."""
    model.eval()
    correct = total = 0
    with no_grad():
        for lo in range(0, len(inputs), batch_size):
            logits = model(inputs[lo : lo + batch_size])
            pred = logits.data.argmax(axis=-1)
            tgt = targets[lo : lo + batch_size]
            valid = tgt != ignore_index
            correct += int((pred[valid] == tgt[valid]).sum())
            total += int(valid.sum())
    model.train()
    return correct / max(total, 1)
