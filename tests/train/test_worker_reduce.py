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
from repro.core import RunConfig
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models.mlp import MLP
from repro.optim import SGD
from repro.train.trainer import ParallelTrainer
from tests.rank_state import (
    CODEC_STACKS, LOSSY, OPTIMIZERS, OVERFLOWING, assert_same_bytes,
)
from tests.reference_step import cell, check_run


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


class TestBitExactness:
    """Whoever reduces, the run is the reference step: the rows the
    workers combine are the rows they finished themselves."""

    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
    @pytest.mark.parametrize("num_ranks", [2, 3, 5, 8])
    def test_workers_match_parent_and_serial(self, op, num_ranks):
        check_run(_workers(op=op, num_ranks=num_ranks), elastic=False)

    @pytest.mark.parametrize(
        "topology,gpus_per_node", [("linear", 1), ("ring", 1), ("tree", 1),
                                   ("hierarchical", 2)],
    )
    def test_workers_across_topologies(self, topology, gpus_per_node):
        check_run(_workers(topology=topology, gpus_per_node=gpus_per_node),
                  elastic=False)

    def test_workers_with_fp16_wire(self):
        check_run(_workers(wire_codecs=("fp16",)), elastic=False)

    def test_workers_with_codec_stack(self):
        check_run(_workers(wire_codecs=("fp16", "int8", "topk:0.25")), elastic=False)

    @pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_worker_held_state_under_either_reduce(self, optimizer, wire_codecs):
        check_run(_workers(optimizer=optimizer, wire_codecs=wire_codecs), elastic=False)

    @pytest.mark.parametrize("optimizer", sorted(OVERFLOWING))
    def test_overflow_skips_before_any_combine(self, optimizer):
        check_run(_workers(spike=True, optimizer=optimizer, wire_codecs=LOSSY,
                           microbatch=1), elastic=False)


def _workers(**fields):
    return cell(execution="processes", reduce_mode="workers", **fields)


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
            assert_same_bytes(
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
        check_run(_workers(num_ranks=5, microbatch=4, faults="schedule"))

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
        assert_same_bytes(params_s, params_w, "elastic workers recovery")

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
        assert_same_bytes(params_s, params_w, "elastic mid-combine kill")
