"""Census of the one-spelling surface.

Every ``RunConfig`` field, execution backend and registry cell is a
configuration the test matrix has to cover, so growing any of them is a
decision, not an accident: this file pins the counts.  It also pins the
one remaining dict entry point, ``DistributedOptimizer.step(dicts)``, to
the flat ``step_arena`` path it adapts.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import DistributedOptimizer, GradientArena, ReduceOpType
from repro.core.config import EXECUTIONS, RunConfig
from repro.core.strategies import OPS, TOPOLOGIES, registered_cells
from repro.models import MLP
from repro.optim import SGD, Adam

RUN_CONFIG_FIELDS = (
    "op", "topology", "gpus_per_node", "per_layer", "adasum_pre_optimizer",
    "wire_codecs", "bucket_cap_mb", "overlap", "execution", "reduce_mode",
    "num_ranks", "microbatch", "seed", "faults", "network", "timeout",
    "min_ranks",
)


def test_run_config_fields():
    assert tuple(f.name for f in dataclasses.fields(RunConfig)) == RUN_CONFIG_FIELDS
    assert len(RUN_CONFIG_FIELDS) == 17


def test_execution_backends():
    assert EXECUTIONS == ("serial", "processes")
    with pytest.raises(ValueError, match=r"'threads'.*serial.*processes"):
        RunConfig(execution="threads")


def test_registry_cells():
    assert len(registered_cells()) == len(OPS) * len(TOPOLOGIES) == 18


@pytest.mark.parametrize("op", list(ReduceOpType))
@pytest.mark.parametrize("pre_optimizer", [False, True])
def test_step_dicts_is_step_arena(op, pre_optimizer):
    """``step(dicts)`` only packs an arena: the update is byte-identical
    to ``step_arena`` (pre-optimizer SGD and post-optimizer Adam deltas)."""
    rng = np.random.default_rng(0)
    factory = (lambda ps: SGD(ps, 0.1, momentum=0.9)) if pre_optimizer else (
        lambda ps: Adam(ps, 0.01))
    models, dists = [], []
    for _ in range(2):
        model = MLP((6, 8, 3), rng=np.random.default_rng(1))
        models.append(model)
        dists.append(DistributedOptimizer(
            model, factory, num_ranks=4, op=op,
            adasum_pre_optimizer=pre_optimizer))
    assert dists[0].post_optimizer_mode is (
        op is ReduceOpType.ADASUM and not pre_optimizer)
    for _ in range(3):
        dicts = [
            {n: rng.standard_normal(p.shape).astype(np.float32)
             for n, p in models[0].named_parameters()}
            for _ in range(4)
        ]
        dists[0].step(dicts)
        arena = GradientArena.from_model(models[1], 4)
        arena.load_dicts(dicts)
        dists[1].step_arena(arena)
        for (name, p), (_, q) in zip(models[0].named_parameters(),
                                     models[1].named_parameters()):
            np.testing.assert_array_equal(
                p.data.view(np.uint8), q.data.view(np.uint8), err_msg=name)
