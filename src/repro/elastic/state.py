"""In-memory last-good-step state for elastic recovery.

A :class:`WorldSnapshot` is everything the supervisor needs to rewind
to the last committed step and continue in a *different* world: model
parameters and buffers, the optimizer-side state, and the trainer's
progress cursor (epoch, position in the epoch permutation, counters).
It lives in memory — cheap enough to refresh every committed step —
while the on-disk ``train/checkpoint.py`` format covers cross-process
resume.

The optimizer-side state has one packed form (:func:`pack_dist_state`),
used for rollback and for rank loans alike: optimizer slots keyed by the
*global* rank ids that own them (loaned-out ranks included), the
skipped-step counter and the fp16 scaler.  Keying by global id is what
lets any rebuilt world — shrunk by a kill or a loan, grown by a reclaim
— pick its states back up: new local rank ``i`` receives the state of
the global rank now sitting at position ``i``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.optim.optimizer import Optimizer


def pack_optimizer_state(opt: Optimizer) -> dict:
    """Deep-copy an optimizer's state (slot-indexed arrays + counter)."""
    return {
        "step_count": opt.step_count,
        "state": {
            idx: {key: np.array(arr, copy=True) for key, arr in slot.items()}
            for idx, slot in opt.state.items()
        },
    }


def restore_optimizer_state(opt: Optimizer, packed: dict) -> None:
    """Load a :func:`pack_optimizer_state` copy into ``opt`` in place.

    The packed arrays are copied again so the snapshot survives being
    restored more than once (repeated failures rolling back to the same
    snapshot).
    """
    opt.step_count = int(packed["step_count"])
    opt.state.clear()
    for idx, slot in packed["state"].items():
        opt.state[int(idx)] = {
            key: np.array(arr, copy=True) for key, arr in slot.items()
        }


def pack_dist_state(dist_opt, membership, loan_stash: Dict[int, dict]) -> dict:
    """Everything a world rebuild would otherwise reset, by global id.

    Per-rank (or shared) optimizer slots, the skipped-step counter and
    the fp16 dynamic-scaler state.  ``loan_stash`` holds the states of
    loaned-out ranks; they ride along so a later reclaim restores them
    unchanged.  Reads the live state: under the process backend the
    rank workers hold it, and it is pulled first.
    """
    dist_opt.pull_rank_state()
    scaler = dist_opt.scaler
    state = {
        "skipped_steps": dist_opt.skipped_steps,
        "scaler": scaler.state_dict() if scaler is not None else None,
    }
    if dist_opt.post_optimizer_mode:
        per_rank = dict(loan_stash)
        for opt, g in zip(dist_opt.rank_optimizers, membership):
            per_rank[g] = pack_optimizer_state(opt)
        state["per_rank"] = per_rank
    else:
        state["shared"] = pack_optimizer_state(dist_opt.optimizer)
    return state


def restore_dist_state(dist_opt, membership, state: dict) -> Dict[int, dict]:
    """Load a :func:`pack_dist_state` copy onto a (rebuilt) world.

    Live ranks take their states by global id; returns the new loan
    stash — the states of ranks still out on loan.  States of ranks
    that left for good (killed) are dropped.  On a live worker pool
    the loaded states are pushed to the rank workers.
    """
    dist_opt.skipped_steps = state["skipped_steps"]
    if dist_opt.scaler is not None and state["scaler"] is not None:
        dist_opt.scaler.load_state_dict(state["scaler"])
    if not dist_opt.post_optimizer_mode:
        restore_optimizer_state(dist_opt.optimizer, state["shared"])
        return {}
    per_rank = state["per_rank"]
    for opt, g in zip(dist_opt.rank_optimizers, membership):
        restore_optimizer_state(opt, per_rank[g])
    dist_opt.push_rank_state()
    return {g: per_rank[g] for g in membership.loaned}


@dataclasses.dataclass
class WorldSnapshot:
    """Last-good-step state, sufficient to rebuild any shrunk world."""

    params: Dict[str, np.ndarray]
    buffers: Dict[str, np.ndarray]
    optimizer_state: dict           # pack_dist_state(): slots by global id
    iterator: dict                  # ElasticBatchIterator.state()
    global_step: int
    commits: int
    visited_len: int                # epoch_visited length at snapshot time
    losses_len: int                 # epoch losses recorded at snapshot time
    sim_time: float
