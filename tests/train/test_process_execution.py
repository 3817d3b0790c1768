"""Bit-exactness and lifecycle of ``execution="processes"``.

The process backend must be invisible in the numbers: for every
reduction op and world size (including non-powers-of-two), training with
one OS process per rank over a shared-memory arena produces the same
bytes as the serial backend.  And however a run ends —
normal close, fault-plan kill mid-step — no ``/dev/shm`` segment may
survive it.
"""

import numpy as np
import pytest

from repro import nn
from repro.comm.faults import FaultPlan
from repro.comm.tracing import CommTracer
from repro.comm.transport import CommError
from repro.core import RunConfig, leaked_shared_segments
from repro.core.arena import SharedGradientArena
from repro.models.mlp import MLP
from repro.optim import SGD
from repro.train.trainer import ParallelTrainer


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    before = leaked_shared_segments()
    yield
    assert leaked_shared_segments() == before


def _run(execution, op="adasum", num_ranks=4, topology="tree_any", steps=2,
         gpus_per_node=1, accumulation=1, **trainer_kwargs):
    """Train a few steps under one backend; return (losses, params)."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((128, 12)).astype(np.float32)
    y = (x @ rng.standard_normal((12, 4))).argmax(axis=1)
    model = MLP((12, 16, 4), rng=np.random.default_rng(3))
    config = RunConfig(
        op=op, topology=topology, gpus_per_node=gpus_per_node,
        num_ranks=num_ranks, microbatch=2, seed=0, execution=execution,
    )
    trainer = ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
        x, y, config, accumulation=accumulation, **trainer_kwargs,
    )
    losses = []
    try:
        for _, rank_indices in trainer.iterator.epoch(0):
            if len(losses) >= steps:
                break
            losses.append(trainer.train_step(rank_indices))
    finally:
        trainer.close()
    return losses, {n: p.data.copy() for n, p in model.named_parameters()}


def _assert_bit_identical(ref_params, params, context):
    for name in ref_params:
        np.testing.assert_array_equal(
            ref_params[name].view(np.uint8), params[name].view(np.uint8),
            err_msg=f"{context}: parameter {name} diverged",
        )


class TestBitExactness:
    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
    @pytest.mark.parametrize("num_ranks", [2, 3, 5, 8])
    def test_processes_match_serial(self, op, num_ranks):
        ref_losses, ref_params = _run("serial", op=op, num_ranks=num_ranks)
        losses, params = _run("processes", op=op, num_ranks=num_ranks)
        assert losses == ref_losses, (op, num_ranks)
        _assert_bit_identical(
            ref_params, params, f"processes/{op}/world={num_ranks}"
        )

    @pytest.mark.parametrize(
        "topology,gpus_per_node", [("linear", 1), ("ring", 1), ("tree", 1),
                                   ("hierarchical", 2)],
    )
    def test_processes_across_topologies(self, topology, gpus_per_node):
        kw = dict(op="adasum", num_ranks=4, topology=topology,
                  gpus_per_node=gpus_per_node)
        ref_losses, ref_params = _run("serial", **kw)
        losses, params = _run("processes", **kw)
        assert losses == ref_losses
        _assert_bit_identical(ref_params, params, f"processes/{topology}")

    def test_processes_with_accumulation(self):
        kw = dict(op="adasum", num_ranks=3, accumulation=2)
        ref_losses, ref_params = _run("serial", **kw)
        losses, params = _run("processes", **kw)
        assert losses == ref_losses
        _assert_bit_identical(ref_params, params, "processes/accumulation=2")

    def test_spawn_start_method_matches(self):
        # Spawn-safety: workers bootstrap from pickles alone.
        kw = dict(op="adasum", num_ranks=2, steps=1)
        ref_losses, ref_params = _run("serial", **kw)
        losses, params = _run("processes", start_method="spawn", **kw)
        assert losses == ref_losses
        _assert_bit_identical(ref_params, params, "processes/spawn")


class TestLifecycle:
    def test_trainer_uses_shared_arena_and_close_unlinks(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 12)).astype(np.float32)
        y = rng.integers(0, 4, 32)
        model = MLP((12, 8, 4))
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree_any")
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config,
        )
        assert isinstance(trainer.arena, SharedGradientArena)
        assert leaked_shared_segments()  # grad + param segments live
        trainer.close()
        trainer.close()  # idempotent

    def test_fault_kill_raises_comm_error_and_close_cleans_up(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 12)).astype(np.float32)
        y = rng.integers(0, 4, 64)
        model = MLP((12, 8, 4))
        config = RunConfig(num_ranks=3, microbatch=2, execution="processes",
                           topology="tree_any")
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config, faults=FaultPlan().kill_rank(1, after_ops=0),
        )
        with pytest.raises(CommError) as err:
            for _, rank_indices in trainer.iterator.epoch(0):
                trainer.train_step(rank_indices)
        assert 1 in err.value.rank_errors
        trainer.close()  # aborted run must still reclaim every segment

    def test_comm_tracer_counts_control_plane_bytes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 12)).astype(np.float32)
        y = rng.integers(0, 4, 32)
        model = MLP((12, 8, 4))
        tracer = CommTracer()
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree_any")
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config, comm_tracer=tracer,
        )
        try:
            for step, (_, rank_indices) in enumerate(trainer.iterator.epoch(0)):
                if step >= 1:
                    break
                trainer.train_step(rank_indices)
        finally:
            trainer.close()
        sends = [ev for ev in tracer.events if ev.op == "send"]
        recvs = [ev for ev in tracer.events if ev.op == "recv"]
        assert sends and recvs
        # Control plane only: step messages are tiny index arrays, never
        # gradient payloads (those live in shared memory).
        grad_bytes = trainer.arena.layout.total_size * 4
        assert all(ev.nbytes < grad_bytes for ev in sends)

    def test_rejects_active_dropout(self):
        class Dropped(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(4, 2)
                self.drop = nn.Dropout(0.5)

            def forward(self, x):
                return self.drop(self.lin(x))

        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = rng.integers(0, 2, 8)
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree_any")
        with pytest.raises(ValueError, match="dropout"):
            ParallelTrainer.from_config(
                Dropped(), nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
                x, y, config,
            )
