"""Worker-parallel in-shm tree reduction (``reduce_mode="workers"``).

With ``execution="processes"`` the parent can hand phase 2 to the rank
workers: each tree level, the surviving worker of every pair combines
its peer's arena row into its own, in place, in shared memory.  The
mode must be invisible in the numbers — byte-identical to the parent
reduce (and hence to serial) for every op and world size, including
non-powers-of-two, elastic rebuilds, and fp16 wire encoding — and a
worker killed mid-combine must surface as a structured ``CommError``
that leaves the model untouched and no ``/dev/shm`` segment behind.
"""

import numpy as np
import pytest

from repro import nn
from repro.comm.faults import FaultPlan
from repro.comm.transport import CommError
from repro.core import RunConfig, leaked_shared_segments
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models.mlp import MLP
from repro.optim import SGD
from repro.train.trainer import ParallelTrainer
from tests.rank_state import (
    CODEC_STACKS, LOSSY, OPTIMIZERS, OVERFLOWING, SpikeLoss, assert_same_bytes,
    dist_state, step_record,
)


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    before = leaked_shared_segments()
    yield
    assert leaked_shared_segments() == before


def _run(reduce_mode, op="adasum", num_ranks=4, topology="tree", steps=2,
         gpus_per_node=1, execution="processes", wire_codecs=(),
         optimizer="sgd", loss_fn=None, trace=None, **trainer_kwargs):
    """Train a few steps; return (losses, params).

    ``optimizer`` names an entry of ``OPTIMIZERS`` (or is a factory); a
    ``trace`` dict receives the per-step lr / wire bytes / skips and
    :func:`dist_state` pulled from the still-open trainer."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((128, 12)).astype(np.float32)
    y = (x @ rng.standard_normal((12, 4))).argmax(axis=1)
    model = MLP((12, 16, 4), rng=np.random.default_rng(3))
    config = RunConfig(
        op=op, topology=topology, gpus_per_node=gpus_per_node,
        num_ranks=num_ranks, microbatch=2, seed=0, execution=execution,
        reduce_mode=reduce_mode, wire_codecs=wire_codecs,
    )
    trainer = ParallelTrainer.from_config(
        model, loss_fn or nn.CrossEntropyLoss(), OPTIMIZERS.get(optimizer, optimizer),
        x, y, config, **trainer_kwargs,
    )
    dist_opt = trainer.dist_opt
    losses = []
    try:
        for _, rank_indices in trainer.iterator.epoch(0):
            if len(losses) >= steps:
                break
            losses.append(trainer.train_step(rank_indices))
            if trace is not None:
                trace.setdefault("per_step", []).append(step_record(dist_opt))
        if trace is not None:
            trace["losses"] = losses
            trace["live"] = dist_state(model, dist_opt)
    finally:
        trainer.close()
    params = {n: p.data.copy() for n, p in model.named_parameters()}
    return losses, params


def _assert_bit_identical(ref_params, params, context):
    for name in ref_params:
        np.testing.assert_array_equal(
            ref_params[name].view(np.uint8), params[name].view(np.uint8),
            err_msg=f"{context}: parameter {name} diverged",
        )


class TestBitExactness:
    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
    @pytest.mark.parametrize("num_ranks", [2, 3, 5, 8])
    def test_workers_match_parent_and_serial(self, op, num_ranks):
        ref_losses, ref_params = _run(
            "parent", op=op, num_ranks=num_ranks, execution="serial",
        )
        for reduce_mode in ("parent", "workers"):
            losses, params = _run(reduce_mode, op=op, num_ranks=num_ranks)
            assert losses == ref_losses, (reduce_mode, op, num_ranks)
            _assert_bit_identical(
                ref_params, params, f"{reduce_mode}/{op}/world={num_ranks}"
            )

    @pytest.mark.parametrize(
        "topology,gpus_per_node", [("linear", 1), ("ring", 1), ("tree", 1),
                                   ("hierarchical", 2)],
    )
    def test_workers_across_topologies(self, topology, gpus_per_node):
        kw = dict(op="adasum", num_ranks=4, topology=topology,
                  gpus_per_node=gpus_per_node)
        _, ref_params = _run("parent", **kw)
        _, params = _run("workers", **kw)
        _assert_bit_identical(ref_params, params, f"workers/{topology}")

    def test_workers_with_fp16_wire(self):
        # Workers combine the already-encoded rows; the codec round-trip
        # happens once in the parent, so parity must hold bytewise.
        kw = dict(op="adasum", num_ranks=4, wire_codecs=("fp16",))
        _, ref_params = _run("parent", **kw)
        _, params = _run("workers", **kw)
        _assert_bit_identical(ref_params, params, "workers/fp16-wire")

    def test_workers_with_codec_stack(self):
        # Any codec stack composes with the worker-parallel reduce: the
        # parent round-trips the shared-memory rows before the workers
        # combine them, so parent and workers see identical bytes even
        # under a lossy error-feedback stack.
        kw = dict(op="adasum", num_ranks=4,
                  wire_codecs=("fp16", "int8", "topk:0.25"))
        _, ref_params = _run("parent", **kw)
        _, params = _run("workers", **kw)
        _assert_bit_identical(ref_params, params, "workers/codec-stack")

    @pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_worker_held_state_under_either_reduce(self, optimizer, wire_codecs):
        # The rows the workers combine are the rows they finished
        # themselves (own optimizer, own residual row): whoever reduces,
        # the run equals serial in every observable.
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs, steps=4)
        traces = {}
        for mode, execution in (("parent", "serial"), ("parent", "processes"),
                                ("workers", "processes")):
            traces[mode, execution] = trace = {}
            _run(mode, execution=execution, trace=trace, **kw)
        for key in (("parent", "processes"), ("workers", "processes")):
            assert_same_bytes(traces["parent", "serial"], traces[key], str(key))

    @pytest.mark.parametrize("optimizer", sorted(OVERFLOWING))
    def test_overflow_skips_before_any_combine(self, optimizer):
        kw = dict(optimizer=OVERFLOWING[optimizer], wire_codecs=LOSSY, steps=12,
                  loss_fn=SpikeLoss(spike=3))
        ref, got = {}, {}
        _run("parent", execution="serial", trace=ref, **kw)
        _run("workers", trace=got, **kw)
        assert 0 < ref["live"]["packed"]["skipped_steps"] < 12
        assert_same_bytes(ref, got)


class TestValidation:
    def test_workers_requires_processes(self):
        with pytest.raises(ValueError, match="processes"):
            RunConfig(execution="serial", reduce_mode="workers")

    def test_workers_rejects_rvh(self):
        with pytest.raises(ValueError, match="rvh"):
            RunConfig(execution="processes", topology="rvh", op="adasum",
                      reduce_mode="workers")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="reduce_mode"):
            RunConfig(execution="processes", reduce_mode="sideways")


@pytest.mark.faults
class TestFaultDuringCombine:
    def test_kill_mid_combine_leaves_model_untouched(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 12)).astype(np.float32)
        y = rng.integers(0, 4, 64)
        model = MLP((12, 8, 4), rng=np.random.default_rng(3))
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        config = RunConfig(
            num_ranks=4, microbatch=2, execution="processes",
            topology="tree", reduce_mode="workers",
            # op 1 is the compute step; op 2 is the level-0 combine, where
            # rank 1 is the src half of pair (0, 1).
            faults=FaultPlan().kill_rank(1, after_ops=1),
        )
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config,
        )
        try:
            with pytest.raises(CommError) as err:
                for _, rank_indices in trainer.iterator.epoch(0):
                    trainer.train_step(rank_indices)
            assert err.value.killed_ranks == [1]
            assert 1 in err.value.rank_errors
            # The failed combine never reached apply: params unchanged.
            _assert_bit_identical(
                before,
                {n: p.data.copy() for n, p in model.named_parameters()},
                "kill-mid-combine",
            )
        finally:
            # However the step died, close must reclaim every segment
            # (the autouse fixture asserts zero leaks after this).
            trainer.close()


class TestElasticWorkers:
    def _run_elastic(self, reduce_mode, schedule=None, num_ranks=5,
                     max_steps=4, execution="processes"):
        model = MLP((10, 16, 3), rng=np.random.default_rng(5))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((96, 10)).astype(np.float32)
        y = (x @ rng.standard_normal((10, 3))).argmax(axis=1)
        config = RunConfig(
            op="adasum", topology="tree", num_ranks=num_ranks,
            microbatch=4, seed=0, execution=execution, faults=schedule,
            reduce_mode=reduce_mode if execution == "processes" else "parent",
        )
        trainer = ElasticTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config,
        )
        try:
            loss = trainer.train_epoch(0, max_steps=max_steps)
            params = {n: p.data.copy() for n, p in model.named_parameters()}
            return loss, params, trainer.membership.size, list(trainer.recoveries)
        finally:
            trainer.close()

    def test_failure_free_matches_serial(self):
        loss_s, params_s, _, _ = self._run_elastic("parent", execution="serial")
        loss_w, params_w, _, _ = self._run_elastic("workers")
        assert loss_w == loss_s
        _assert_bit_identical(params_s, params_w, "elastic workers")

    @pytest.mark.faults
    def test_kill_recovery_matches_serial(self):
        # The 5-rank world (non-pow2, tree schedule) loses a rank
        # and the rebuilt 4-rank world must stay bit-exact with serial.
        # Schedules are consumed as they fire, so each run gets its own.
        loss_w, params_w, size_w, rec_w = self._run_elastic(
            "workers", ElasticSchedule().kill(step=1, global_rank=2)
        )
        assert size_w == 4
        assert rec_w and rec_w[0]["kind"] == "kill"
        loss_s, params_s, size_s, _ = self._run_elastic(
            "parent", ElasticSchedule().kill(step=1, global_rank=2),
            execution="serial",
        )
        assert size_s == 4 and loss_w == loss_s
        _assert_bit_identical(params_s, params_w, "elastic workers recovery")

    @pytest.mark.faults
    def test_mid_combine_kill_recovers(self):
        # after_ops=1: the rank survives its compute op and dies on the
        # first combine message of the reduce tree.  Recovery is
        # step-level — the partial step is rolled back and retried
        # without the dead rank — so the final state must match a
        # serial run where the same rank dies anywhere in the same step
        # (serial counts simulated cluster ops, so it uses after_ops=0).
        loss_w, params_w, size_w, rec_w = self._run_elastic(
            "workers", ElasticSchedule().kill(step=1, global_rank=1, after_ops=1)
        )
        assert size_w == 4
        assert rec_w and rec_w[0]["kind"] == "kill"
        loss_s, params_s, size_s, _ = self._run_elastic(
            "parent", ElasticSchedule().kill(step=1, global_rank=1),
            execution="serial",
        )
        assert size_s == 4 and loss_w == loss_s
        _assert_bit_identical(params_s, params_w, "elastic mid-combine kill")
