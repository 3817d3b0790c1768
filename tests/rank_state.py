"""Inputs and comparisons shared by the equivalence tests and the
reference step (``tests/reference_step.py``).

Under ``execution="processes"`` the rank workers hold the live per-rank
optimizer slots and error-feedback residual rows, and the parent reads
them only through ``DistributedOptimizer.pull_rank_state``.  A
stateless ``SGD(lr=0.1)`` cannot tell a worker-resident optimizer from
a stale parent copy, so the equivalence tests draw their optimizer from
:data:`OPTIMIZERS` (momentum and Adam slots, an lr that depends on
``step_count``) and their codec stack from :data:`CODEC_STACKS`, and
compare :func:`dist_state` — everything a step leaves behind.
"""

import numpy as np

from repro import nn
from repro.elastic.state import pack_dist_state
from repro.optim import SGD, Adam, LinearWarmupDecay

LOSSY = ("fp16", "int8", "topk:0.1")
CODEC_STACKS = ((), LOSSY)

OPTIMIZERS = {
    "sgd": lambda ps: SGD(ps, lr=0.1),
    "momentum": lambda ps: SGD(ps, lr=LinearWarmupDecay(0.2, 12), momentum=0.9),
    "adam": lambda ps: Adam(ps, lr=LinearWarmupDecay(0.02, 12)),
}

#: The same three, hot enough that some steps overflow an fp16 wire
#: stage: the wire tensor of Figure-3 Adasum is the post-optimizer
#: *delta*, which for SGD scales with the gradient (see
#: :class:`SpikeLoss`) and for Adam only with the learning rate.
OVERFLOWING = {
    "sgd": OPTIMIZERS["sgd"],
    "momentum": OPTIMIZERS["momentum"],
    "adam": lambda ps: Adam(ps, lr=LinearWarmupDecay(150.0, 8, warmup_frac=0.5)),
}


class SpikeLoss:
    """Cross-entropy whose gradient is scaled by 1e6 (logits times 1e6)
    on the samples of the ``spike`` class: a data-dependent gradient
    spike, sample by sample, so identical under every backend and
    whether or not ranks are stacked into one batch."""

    def __init__(self, spike: int):
        self.spike = spike
        self.loss = nn.CrossEntropyLoss()

    def __call__(self, logits, targets):
        scale = np.where(targets == self.spike, 1e6, 1.0).astype(logits.data.dtype)
        return self.loss(logits * scale[:, None], targets)


def step_record(dist_opt) -> tuple:
    """What the parent keeps current after every step, without a pull."""
    return dist_opt.lr, dist_opt.last_wire_bytes, dist_opt.skipped_steps


def dist_state(model, dist_opt, membership=None) -> dict:
    """Model bytes plus the optimizer-side state by rank — slots, step
    counts, scaler, skips (``pack_dist_state``: pulls from a live pool)
    — and the lr and byte counters the parent keeps per step."""
    ranks = range(dist_opt.num_ranks) if membership is None else membership
    return {
        "params": {n: p.data.copy() for n, p in model.named_parameters()},
        "packed": pack_dist_state(dist_opt, ranks, {}),
        "lr": dist_opt.lr,
        "wire_bytes": (dist_opt.last_wire_bytes, dist_opt.wire_bytes_total),
    }


def residual_rows(dist_opt) -> dict:
    """The codec stack's error-feedback rows as the parent holds them
    (current after a close or a pause)."""
    pipe = dist_opt.wire_pipeline
    if pipe is None:
        return {}
    return {r: {i: rows[r].copy() for i, rows in pipe._residuals.items()}
            for r in range(dist_opt.num_ranks)}


def assert_same_bytes(a, b, what="state"):
    """Nested dicts / sequences / arrays / scalars equal, arrays byte for byte."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), what
        for key in a:
            assert_same_bytes(a[key], b[key], f"{what}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), what
        for i, (u, v) in enumerate(zip(a, b)):
            assert_same_bytes(u, v, f"{what}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, what
        assert a.tobytes() == b.tobytes(), what
    else:
        assert a == b, (what, a, b)
