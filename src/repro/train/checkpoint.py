"""Training-state checkpointing.

Serializes everything needed to resume a distributed run bit-exactly:
model parameters and buffers, optimizer state (including per-rank
optimizer states of a post-optimizer-mode DistributedOptimizer), step
counters, the dynamic-scaling state of the fp16 path and the codec
stack's error-feedback residual rows.  Storage is a
single ``.npz`` (arrays) + embedded JSON (scalars), no pickle.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Sequence, Union

import numpy as np

from repro.comm.fusion import layout_of
from repro.core.distributed_optimizer import DistributedOptimizer
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer

PathLike = Union[str, pathlib.Path]


def _resolve(path: PathLike) -> PathLike:
    # np.savez appends ".npz" to suffix-less paths; load the same file.
    p = pathlib.Path(path)
    if not p.exists() and p.suffix != ".npz" and p.with_suffix(p.suffix + ".npz").exists():
        return p.with_suffix(p.suffix + ".npz")
    return path


def _pack_optimizer(opt: Optimizer, prefix: str, arrays: Dict[str, np.ndarray]) -> dict:
    meta = {"step_count": opt.step_count, "state_keys": {}}
    for idx, state in opt.state.items():
        meta["state_keys"][str(idx)] = list(state.keys())
        for key, arr in state.items():
            arrays[f"{prefix}/state/{idx}/{key}"] = np.asarray(arr)
    return meta


def _unpack_optimizer(opt: Optimizer, prefix: str, arrays, meta: dict) -> None:
    opt.step_count = int(meta["step_count"])
    opt.state.clear()
    for idx_str, keys in meta["state_keys"].items():
        idx = int(idx_str)
        opt.state[idx] = {
            key: np.array(arrays[f"{prefix}/state/{idx}/{key}"]) for key in keys
        }


def save_checkpoint(
    path: PathLike,
    model: Module,
    dist_opt: DistributedOptimizer = None,
    optimizer: Optimizer = None,
    extra: dict = None,
) -> None:
    """Write a checkpoint.

    Pass either ``dist_opt`` (captures its shared or per-rank optimizer
    states, skipped-step counter, fp16 scaler and the codec stack's
    error-feedback residual rows, one per rank) or a bare
    ``optimizer``.  ``extra`` must be JSON-serializable.
    """
    arrays: Dict[str, np.ndarray] = {}
    meta: dict = {"extra": extra or {}}

    for name, p in model.named_parameters():
        arrays[f"model/param/{name}"] = p.data
    for name, buf in model.named_buffers():
        arrays[f"model/buffer/{name}"] = np.asarray(buf)

    if dist_opt is not None:
        # Rank workers may hold the live slots and residual rows.
        dist_opt.pull_rank_state(residuals=True)
        scaler = dist_opt.scaler
        meta["dist"] = {
            "num_ranks": dist_opt.num_ranks,
            "op": dist_opt.op,
            "post_optimizer": dist_opt.post_optimizer_mode,
            "skipped_steps": dist_opt.skipped_steps,
            "fp16_scaler": scaler.state_dict() if scaler is not None else None,
            "optimizers": [],
        }
        pipe = dist_opt.wire_pipeline
        for i, rows in ({} if pipe is None else pipe._residuals).items():
            if len(rows) == dist_opt.num_ranks:  # bound to this world's rows
                arrays[f"codec/residual/{i}"] = rows
        opts = dist_opt.rank_optimizers if dist_opt.post_optimizer_mode else [dist_opt.optimizer]
        for i, opt in enumerate(opts):
            meta["dist"]["optimizers"].append(_pack_optimizer(opt, f"opt{i}", arrays))
    elif optimizer is not None:
        meta["opt"] = _pack_optimizer(optimizer, "opt0", arrays)

    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez(path, **arrays)


def read_checkpoint_meta(path: PathLike) -> dict:
    """The checkpoint's JSON metadata without loading any arrays.

    Lets a resuming elastic run inspect the saved world (rank count,
    ``extra`` progress state) *before* deciding the ``rank_map`` to load
    optimizer states with.
    """
    with np.load(_resolve(path)) as arrays:
        return json.loads(bytes(arrays["__meta__"]).decode("utf-8"))


def load_checkpoint(
    path: PathLike,
    model: Module,
    dist_opt: DistributedOptimizer = None,
    optimizer: Optimizer = None,
    rank_map: Sequence[int] = None,
) -> dict:
    """Restore a checkpoint in place; returns the ``extra`` dict.

    The model/optimizer objects must have the same architecture as at
    save time (mismatched names raise ``KeyError``).

    ``rank_map`` loads an N-rank checkpoint into an M-rank ``dist_opt``
    (elastic shrink/grow): entry ``i`` names the checkpoint optimizer
    slot whose state becomes the target's rank-``i`` optimizer.  Without
    it the rank counts must match exactly.  Only meaningful for
    post-optimizer mode's per-rank states; a shared-optimizer checkpoint
    needs no mapping.

    The codec stack's error-feedback residual rows are restored row for
    row when the load keeps the saved world (no ``rank_map``, or the
    identity over as many ranks); any other load starts them at zero,
    as an elastic rebuild does.  On a live worker pool both the
    optimizer states and the residual rows are pushed to the workers.
    """
    with np.load(_resolve(path)) as arrays:
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        params = dict(model.named_parameters())
        for key in arrays.files:
            if key.startswith("model/param/"):
                name = key[len("model/param/"):]
                np.copyto(params[name].data, arrays[key])
        buffers = dict(model.named_buffers())
        for key in arrays.files:
            if key.startswith("model/buffer/"):
                name = key[len("model/buffer/"):]
                np.copyto(buffers[name], arrays[key])

        if dist_opt is not None:
            d = meta["dist"]
            dist_opt.skipped_steps = int(d["skipped_steps"])
            scaler = dist_opt.scaler
            if scaler is not None and d["fp16_scaler"] is not None:
                scaler.load_state_dict(d["fp16_scaler"])
            opts = (dist_opt.rank_optimizers if dist_opt.post_optimizer_mode
                    else [dist_opt.optimizer])
            n_saved = len(d["optimizers"])
            if rank_map is not None:
                if len(rank_map) != len(opts):
                    raise ValueError(
                        f"rank_map has {len(rank_map)} entries, target has "
                        f"{len(opts)} optimizer slots"
                    )
                bad = [s for s in rank_map if not 0 <= s < n_saved]
                if bad:
                    raise ValueError(
                        f"rank_map entries {bad} out of range for a checkpoint "
                        f"with {n_saved} optimizer states"
                    )
                for i, src in enumerate(rank_map):
                    _unpack_optimizer(opts[i], f"opt{src}", arrays,
                                      d["optimizers"][src])
            else:
                if len(opts) != n_saved:
                    raise ValueError(
                        f"checkpoint has {n_saved} optimizer states, "
                        f"target has {len(opts)}"
                    )
                for i, (opt, om) in enumerate(zip(opts, d["optimizers"])):
                    _unpack_optimizer(opt, f"opt{i}", arrays, om)
            same_world = rank_map is None or list(rank_map) == list(range(len(rank_map)))
            _load_residuals(model, dist_opt, arrays if same_world else None)
            # A live worker pool steps its own copies.
            dist_opt.push_rank_state(residuals=True)
        elif optimizer is not None:
            _unpack_optimizer(optimizer, "opt0", arrays, meta["opt"])
        return meta.get("extra", {})


def _load_residuals(model: Module, dist_opt: DistributedOptimizer, arrays) -> None:
    """Bind the codec stack to the model's layout at ``dist_opt``'s world
    and fill its error-feedback rows from ``arrays`` — zero where the
    checkpoint holds none for this many ranks, or ``arrays`` is ``None``."""
    pipe = dist_opt.wire_pipeline
    if pipe is None or not pipe.error_feedback:
        return
    layout = layout_of([(name, p.data) for name, p in model.named_parameters()])
    pipe.bind(dist_opt.num_ranks, layout.total_size, layout.boundaries())
    for i, rows in pipe._residuals.items():
        key = f"codec/residual/{i}"
        if arrays is not None and key in arrays.files and arrays[key].shape == rows.shape:
            np.copyto(rows, arrays[key])
        else:
            rows.fill(0.0)
