#!/usr/bin/env python
"""CI smoke test for the process-per-rank execution backend.

A minimal end-to-end probe of the multiprocessing transport that CI can
run on every supported interpreter: spawn-start a 2-rank worker pool
over a shared-memory arena, train three steps of Figure-3 Adasum + Adam
through the lossy codec stack with the workers reducing, check the
result is bit-identical to the serial backend, write a checkpoint from
the still-open trainer, shut everything down, and verify no worker
process or ``/dev/shm`` segment survived.  A second leg trains MiniBERT
the same way: each spawned worker builds the model's fused compute
engine from the registry its fresh interpreter fills lazily, validates
it at one rank, and must still land on the serial run's bytes.

The rank workers hold the live optimizer slots and error-feedback
residuals (each finishes its own arena row), so the step count and Adam
moments in the checkpoint file can only have come out of the worker
processes — a single SGD step could not tell a worker-resident
optimizer from none.

Exercises the pieces most likely to rot across Python versions —
pickling of the bootstrap spec (model, per-rank optimizers, codec
pipeline) under ``spawn``, ``shared_memory`` resource-tracker
behaviour, and the atexit/close teardown ordering — in a few seconds,
without the full tier-1 matrix.

Usage::

    PYTHONPATH=src python scripts/proc_smoke.py
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import nn  # noqa: E402
from repro.core import RunConfig, leaked_shared_segments  # noqa: E402
from repro.core.arena import SharedGradientArena  # noqa: E402
from repro.models import MLP, BertConfig, MiniBERT  # noqa: E402
from repro.optim import Adam  # noqa: E402
from repro.train import FusedRankExecutor, ParallelTrainer  # noqa: E402
from repro.train.checkpoint import save_checkpoint  # noqa: E402

STEPS, RANKS = 3, 2


def _mlp_task():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((32, 12)).astype(np.float32)
    y = (x @ rng.standard_normal((12, 4))).argmax(axis=1)
    return x, y, MLP((12, 16, 4), rng=np.random.default_rng(3))


def _bert_task():
    tokens = np.random.default_rng(7).integers(0, 24, (32, 8))
    config = BertConfig(vocab_size=24, hidden=16, layers=1, heads=2, max_seq_len=8)
    return tokens, tokens, MiniBERT(config, rng=np.random.default_rng(3))


def _train(execution: str, start_method=None, checkpoint=None, task=_mlp_task):
    x, y, model = task()
    config = RunConfig(
        op="adasum", topology="tree", num_ranks=RANKS, microbatch=2, seed=0,
        execution=execution, wire_codecs=("fp16", "int8", "topk:0.1"),
        reduce_mode="workers" if execution == "processes" else "parent",
    )
    kwargs = {"start_method": start_method} if start_method else {}
    trainer = ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, lr=0.01),
        x, y, config, **kwargs,
    )
    try:
        if execution == "processes":
            assert isinstance(trainer.arena, SharedGradientArena)
            assert leaked_shared_segments(), "expected live shm segments"
        batches = [idx for _, idx in trainer.iterator.epoch(0)][:STEPS]
        losses = [trainer.train_step(rank_indices) for rank_indices in batches]
        if execution == "serial" and task is _bert_task:
            # The reference ran the engine too, validated on this host.
            assert isinstance(trainer.executor, FusedRankExecutor)
            assert trainer.executor.engine is not None, "fused engine demoted"
        if checkpoint is not None:
            save_checkpoint(checkpoint, model, dist_opt=trainer.dist_opt)
    finally:
        trainer.close()
    params = {n: p.data.copy() for n, p in model.named_parameters()}
    return losses, params


def _check_worker_state_reached_the_file(path) -> None:
    """Every rank optimizer in the checkpoint stepped ``STEPS`` times and
    carries non-zero Adam first moments."""
    with np.load(path) as arrays:
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        saved = meta["dist"]["optimizers"]
        assert len(saved) == RANKS, f"{len(saved)} optimizer states for {RANKS} ranks"
        for rank, opt in enumerate(saved):
            assert opt["step_count"] == STEPS, (
                f"rank {rank}: step_count {opt['step_count']} in the file, "
                f"expected {STEPS} — the checkpoint missed the workers' state")
            for idx in opt["state_keys"]:
                m = arrays[f"opt{rank}/state/{idx}/m"]
                assert np.any(m != 0), f"rank {rank}: Adam m of slot {idx} is zero"
            assert opt["state_keys"], f"rank {rank}: no optimizer slots in the file"


def _assert_bit_identical(reference, got) -> None:
    (ref_losses, ref_params), (losses, params) = reference, got
    assert losses == ref_losses, f"losses diverged: {losses} != {ref_losses}"
    for name in ref_params:
        np.testing.assert_array_equal(
            ref_params[name].view(np.uint8), params[name].view(np.uint8),
            err_msg=f"parameter {name} diverged from serial",
        )


def main() -> int:
    start_method = "spawn" if "spawn" in multiprocessing.get_all_start_methods() else None
    print(f"proc smoke: python {sys.version.split()[0]}, "
          f"start_method={start_method or 'default'}")

    before = leaked_shared_segments()
    ref_losses, ref_params = _train("serial")
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = pathlib.Path(tmp) / "live.npz"
        losses, params = _train("processes", start_method=start_method,
                                checkpoint=checkpoint)
        _check_worker_state_reached_the_file(checkpoint)

    _assert_bit_identical((ref_losses, ref_params), (losses, params))
    bert_losses, bert_params = _train("processes", start_method=start_method,
                                      task=_bert_task)
    _assert_bit_identical(_train("serial", task=_bert_task),
                          (bert_losses, bert_params))
    leaked = [s for s in leaked_shared_segments() if s not in before]
    assert not leaked, f"leaked /dev/shm segments: {leaked}"

    alive = [p for p in multiprocessing.active_children()]
    assert not alive, f"worker processes survived shutdown: {alive}"

    print(f"proc smoke OK: {STEPS} Adam steps through the lossy codec stack "
          f"bit-identical to serial (loss={losses[-1]:.6f}), worker-held "
          f"optimizer state in the checkpoint, no leaked segments, no stray "
          f"workers")
    print(f"proc smoke OK: MiniBERT, fused engine built in each "
          f"{start_method or 'default'}-started worker, {STEPS} steps "
          f"bit-identical to serial (loss={bert_losses[-1]:.6f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
