"""Elastic training on a hierarchical (two-level) world.

The hierarchical strategy reduces node sums with Adasum; killing a rank
breaks node symmetry, at which point the strategy itself degrades to the
flat ``tree`` geometry over the survivors — training must continue.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import RunConfig
from repro.models import MLP
from repro.optim import SGD
from repro.elastic import ElasticSchedule, ElasticTrainer, StragglerPolicy
from tests.reference_step import cell, check_run


def _task(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _model():
    return MLP((6, 16, 2), rng=np.random.default_rng(0))


def _hier_elastic(x, y, num_ranks=8, gpus_per_node=2, microbatch=4,
                  schedule=None, **kw):
    model = _model()
    config = RunConfig(
        op="adasum", topology="hierarchical", gpus_per_node=gpus_per_node,
        num_ranks=num_ranks, microbatch=microbatch, seed=0, faults=schedule,
    )
    trainer = ElasticTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.3), x, y, config, **kw,
    )
    return trainer, model


class TestHierarchicalNoFaultParity:
    def test_bit_exact_with_parallel_trainer(self):
        """Failure-free hierarchical elastic ≡ ``ParallelTrainer`` ≡ the
        reference step: same node sums, same cross-node Adasum."""
        check_run(cell(topology="hierarchical", gpus_per_node=2, num_ranks=8,
                       microbatch=4))

    def test_from_config_end_to_end(self):
        x, y = _task(n=128)
        cfg = RunConfig(
            op="adasum", topology="hierarchical", num_ranks=8,
            gpus_per_node=2, microbatch=4, seed=0, timeout=10.0,
        )
        model = _model()
        tr = ElasticTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.3), x, y, cfg
        )
        tr2, _ = _hier_elastic(x, y)
        assert tr.train_epoch(0) == tr2.train_epoch(0)


@pytest.mark.faults
class TestHierarchicalKillRecovery:
    def test_kill_breaks_node_symmetry_and_training_continues(self):
        # 8 ranks at 2 GPUs/node; one kill leaves 7 survivors — not a
        # multiple of gpus_per_node, so the reducer's tree fallback
        # carries the rest of the run.
        x, y = _task(n=200)
        sched = ElasticSchedule().kill(2, 3)
        tr, _ = _hier_elastic(x, y, schedule=sched)
        loss = tr.train_epoch(0)
        assert np.isfinite(loss)
        assert len(tr.recoveries) == 1
        assert tr.recoveries[0]["kind"] == "kill"
        assert tr.num_ranks == 7

    def test_kill_whole_node_keeps_symmetry(self):
        # Killing both ranks of one node keeps the world divisible by
        # gpus_per_node: the two-level grouping stays in force at 3 nodes.
        x, y = _task(n=200)
        sched = ElasticSchedule().kill(1, 4).kill(1, 5)
        tr, _ = _hier_elastic(x, y, schedule=sched)
        loss = tr.train_epoch(0)
        assert np.isfinite(loss)
        assert tr.num_ranks == 6

    def test_straggler_drop_on_hierarchical_world(self):
        x, y = _task(n=160)
        sched = ElasticSchedule().delay(3, 50.0, from_step=0)
        tr, _ = _hier_elastic(
            x, y,
            schedule=sched,
            straggler=StragglerPolicy(mode="drop", factor=3.0, drop_steps=2),
        )
        loss = tr.train_epoch(0)
        assert np.isfinite(loss)
        assert tr.num_ranks == 8
