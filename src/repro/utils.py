"""Small shared utilities: parameter flattening and experiment helpers."""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.nn.module import Module


def flatten_params(model: Module) -> np.ndarray:
    """Concatenate all parameters into one float64 vector (copy)."""
    return np.concatenate(
        [p.data.reshape(-1).astype(np.float64) for p in model.parameters()]
    )


def set_flat_params(model: Module, flat: np.ndarray) -> None:
    """Write a flat vector back into the model's parameters."""
    offset = 0
    for p in model.parameters():
        n = p.size
        np.copyto(p.data, flat[offset : offset + n].reshape(p.shape).astype(p.data.dtype))
        offset += n
    if offset != flat.size:
        raise ValueError(f"flat vector size {flat.size} != model size {offset}")


def flatten_grads(model: Module) -> np.ndarray:
    """Concatenate all parameter gradients into one float64 vector."""
    return np.concatenate(
        [np.asarray(p.grad).reshape(-1).astype(np.float64) for p in model.parameters()]
    )


def make_flat_grad_fn(
    model: Module, loss_fn: Callable, x: np.ndarray, y: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient-of-loss as a function of the flat parameter vector.

    This is the ``grad_fn`` interface of :mod:`repro.core.hessian`; each
    call temporarily installs ``w`` into the model, runs
    forward/backward on the fixed minibatch, and restores nothing (the
    caller always passes explicit ``w``).
    """

    def fn(w: np.ndarray) -> np.ndarray:
        set_flat_params(model, w)
        model.zero_grad()
        loss = loss_fn(model(x), y)
        loss.backward()
        return flatten_grads(model)

    return fn


def format_table(headers: List[str], rows: List[Tuple]) -> str:
    """Render a plain-text table (used by benchmark harnesses)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
