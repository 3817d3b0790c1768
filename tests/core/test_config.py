"""RunConfig: parsing, central validation, and what a config runs.

A ``RunConfig`` that constructs is runnable — every inconsistent
combination must fail in ``__post_init__`` (or, for an elastic run, in
``validate_for_pool``) — and every run built from one is the paper's
step: generated configurations are held to the serial reference step of
``tests/reference_step.py``.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro import nn
from repro.comm.faults import FaultPlan
from repro.core import RunConfig, parse_op, parse_topology
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer
from tests.rank_state import LOSSY, OPTIMIZERS
from tests.reference_step import FAULTS, cell, check_run


class TestParsers:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("sum", "sum"),
            ("SUM", "sum"),
            ("Average", "average"),
            ("adasum", "adasum"),
            ("ADASUM", "adasum"),
        ],
    )
    def test_parse_op(self, value, expected):
        assert parse_op(value) == expected

    def test_parse_op_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown reduction op"):
            parse_op("median")

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("tree", "tree"),
            ("TREE", "tree"),
            # The retired spelling of the any-size tree.
            ("tree-any", "tree"),
            ("tree_any", "tree"),
            ("RVH", "rvh"),
            ("ring", "ring"),
            ("linear", "linear"),
        ],
    )
    def test_parse_topology(self, value, expected):
        assert parse_topology(value) == expected

    @pytest.mark.parametrize(
        "entry",
        [
            lambda topology: RunConfig(topology=topology).topology,
            lambda topology: RunConfig(topology=topology).make_reducer().topology,
        ],
        ids=["RunConfig", "make_reducer"],
    )
    @pytest.mark.parametrize("spelling", ["tree-any", "Tree-Any", "TREE_ANY"])
    def test_every_entry_point_spells_a_topology_alike(self, entry, spelling):
        assert entry(spelling) == "tree"

    def test_parse_topology_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown topology"):
            parse_topology("torus")

    def test_execution_strategy_exclusion(self):
        assert RunConfig(overlap=True, execution="serial").overlap
        assert RunConfig(overlap=False, execution="processes").execution == "processes"
        with pytest.raises(ValueError, match="mutually exclusive"):
            RunConfig(overlap=True, execution="processes")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.op == "adasum"
        assert cfg.topology == "tree"

    def test_normalizes_op_and_topology(self):
        cfg = RunConfig(op="SUM", topology="Hierarchical")
        assert cfg.op == "sum"
        assert cfg.topology == "hierarchical"

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().op = "sum"

    def test_replace_revalidates(self):
        cfg = RunConfig(overlap=True)
        assert cfg.replace(overlap=False, execution="processes").execution == "processes"
        with pytest.raises(ValueError, match="mutually exclusive"):
            cfg.replace(execution="processes")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(op="median"), "unknown reduction op"),
            (dict(topology="torus"), "unknown topology"),
            (dict(wire_codecs=("fp8",)), "unknown wire codec"),
            (dict(num_ranks=0), "num_ranks"),
            (dict(microbatch=0), "microbatch"),
            (dict(bucket_cap_mb=0), "bucket_cap_mb"),
            (dict(min_ranks=0), "min_ranks"),
            (dict(timeout=0), "timeout"),
            (dict(overlap=True, execution="processes"), "mutually exclusive"),
            (dict(gpus_per_node=0), "gpus_per_node"),
            (dict(topology="tree", gpus_per_node=2), "hierarchical"),
            (
                dict(topology="hierarchical", num_ranks=6, gpus_per_node=4),
                "multiple of",
            ),
            # Used to build, and fail at the first step.
            (dict(topology="rvh", num_ranks=6), "power-of-two"),
            (dict(topology="rvh", num_ranks=3), "power-of-two"),
            # Used to pass RunConfig and fail in build_rank_executor.
            (
                dict(topology="rvh", num_ranks=6, execution="processes",
                     reduce_mode="workers"),
                "power-of-two",
            ),
            (
                dict(topology="rvh", num_ranks=4, execution="processes",
                     reduce_mode="workers"),
                "no pair-combine schedule at 4 ranks",
            ),
            # Used to be ignored.
            (dict(faults=FaultPlan()), "FaultPlan"),
            (dict(faults="kill rank 1"), "faults must be"),
        ],
    )
    def test_invalid_combinations_fail_fast(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_make_reducer_reflects_config(self):
        reducer = RunConfig(op="adasum", topology="ring", per_layer=False).make_reducer()
        assert reducer.name == "adasum"
        assert reducer.topology == "ring"
        assert not reducer.per_layer
        assert reducer.post_optimizer

    def test_hierarchical_reducer_binds_gpus_per_node(self):
        cfg = RunConfig(
            op="adasum", topology="hierarchical", num_ranks=8, gpus_per_node=4
        )
        reducer = cfg.make_reducer()
        assert reducer.topology == "hierarchical"
        assert reducer.gpus_per_node == 4


def _toy_problem(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((64, 12)).astype(np.float32)
    y = rng.integers(0, 3, size=64)
    model = MLP((12, 8, 3), rng=np.random.default_rng(1))
    return model, x, y


class TestFromConfig:
    """A trainer built from a config runs the reference step (one run
    each of :func:`~tests.reference_step.check_run`)."""

    def test_optimizer_from_config_matches_manual(self):
        """The elastic trainer's world-size override (``num_ranks=``)."""
        check_run(cell(per_layer=False, wire_codecs=("fp16",)))

    def test_trainer_from_config_bit_identical_to_manual(self):
        check_run(cell(microbatch=3))

    def test_hierarchical_trainer_from_config_bit_identical_to_reference(self):
        check_run(cell(topology="hierarchical", gpus_per_node=2, num_ranks=8,
                       microbatch=1))

    def test_trainer_from_config_rejects_conflicting_strategies(self):
        model, x, y = _toy_problem()
        with pytest.raises(ValueError, match="mutually exclusive"):
            RunConfig(overlap=True, execution="processes")
        # No copy, no keyword: the combination cannot reach a trainer.
        cfg = RunConfig(num_ranks=2, microbatch=4, overlap=True)
        with pytest.raises(ValueError, match="mutually exclusive"):
            cfg.replace(execution="processes")
        with pytest.raises(TypeError, match="execution"):
            ParallelTrainer(
                model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05), x, y, cfg,
                execution="processes",
            )


class TestRejectedAtConstruction:
    """A config that builds is runnable: what used to be rejected at
    step time, or ignored, fails in ``RunConfig``."""

    def test_serial_fault_plan_is_rejected(self):
        """A serial trainer used to train a whole epoch with this plan
        and never kill anything."""
        with pytest.raises(ValueError, match="FaultPlan.*processes"):
            RunConfig(num_ranks=2, faults=FaultPlan().kill_rank(1, after_ops=0))

    def test_parallel_trainer_rejects_an_elastic_schedule(self):
        """It used to be ignored."""
        model, x, y = _toy_problem()
        cfg = RunConfig(num_ranks=2, microbatch=4, faults=ElasticSchedule().kill(0, 1))
        with pytest.raises(ValueError, match="ElasticSchedule"):
            ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05),
                            x, y, cfg)

    def test_elastic_trainer_rejects_a_fault_plan(self):
        """It used to build, then fail mid-run on ``plan_for``."""
        model, x, y = _toy_problem()
        cfg = RunConfig(num_ranks=2, microbatch=4, execution="processes",
                        faults=FaultPlan().kill_rank(1))
        with pytest.raises(ValueError, match="FaultPlan"):
            cfg.validate_for_pool(2)
        with pytest.raises(ValueError, match="FaultPlan"):
            ElasticTrainer(model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05),
                           x, y, cfg)

    @pytest.mark.parametrize("topology", ["rvh"])
    def test_elastic_world_must_reduce_every_size(self, topology):
        """A 4-rank world can step with 3."""
        cfg = RunConfig(topology=topology, num_ranks=4)
        with pytest.raises(ValueError, match="power-of-two.*may reduce 3"):
            cfg.validate_for_pool(4)
        assert RunConfig(topology=topology, num_ranks=2).validate_for_pool(4)


# ----------------------------------------------------------------------
# Generated construction: what builds, runs
# ----------------------------------------------------------------------
_RUN_CONFIGS = st.fixed_dictionaries({
    "op": st.sampled_from(["sum", "average", "adasum"]),
    "topology": st.sampled_from(
        ["tree", "linear", "rvh", "ring", "hierarchical"]),
    "gpus_per_node": st.sampled_from([1, 1, 1, 2, 3]),
    "num_ranks": st.integers(1, 8),
    "min_ranks": st.sampled_from([1, 1, 2, 3, 8]),
    "microbatch": st.integers(1, 3),
    "per_layer": st.booleans(),
    "adasum_pre_optimizer": st.booleans(),
    "wire_codecs": st.sampled_from(
        [(), ("fp16",), ("int8",), ("fp16", "int8", "topk:0.1")]),
    "bucket_cap_mb": st.sampled_from([None, 0.0002, 1.0]),
    "overlap": st.sampled_from([False, False, True]),
    # Rarely: every processes example starts a worker pool (the
    # explicit examples hold those cells).
    "execution": st.integers(0, 11).map(lambda i: "processes" if i == 0 else "serial"),
    "reduce_mode": st.sampled_from(["parent", "parent", "parent", "workers"]),
    "faults": st.sampled_from(sorted(FAULTS)),
    # The run around the config.
    "optimizer": st.sampled_from(sorted(OPTIMIZERS)),
    "spike": st.sampled_from([False, False, True]),
    "accumulation": st.integers(1, 2),
    "probe": st.booleans(),
    "resume_at": st.sampled_from([None, None, 1, 2]),
    "loader": st.integers(0, 11).map(
        lambda i: "processes" if i == 0 else ("same", "serial", "overlap")[i % 3]),
})
@pytest.mark.usefixtures("no_segment_leaks")
@settings(max_examples=200, deadline=None)
@given(fields=_RUN_CONFIGS)
# A covering set of the axis values the hand-written matrices pinned:
# each value in at least one example, not their product.  Rank
# processes, the parent or the workers reducing: world sizes 2, 3, 5 and
# 8 under every op, and each optimizer and codec stack ...
@example(fields=cell(op="sum", num_ranks=2, execution="processes"))
@example(fields=cell(op="sum", num_ranks=8, execution="processes", reduce_mode="workers"))
@example(fields=cell(op="average", num_ranks=3, execution="processes",
                      reduce_mode="workers", optimizer="adam"))
@example(fields=cell(op="sum", num_ranks=5, execution="processes",
                      optimizer="momentum", wire_codecs=("fp16",)))
@example(fields=cell(num_ranks=5, execution="processes", reduce_mode="workers",
                      optimizer="momentum", wire_codecs=LOSSY))
@example(fields=cell(op="average", num_ranks=8, execution="processes",
                      optimizer="adam", wire_codecs=LOSSY))
# ... every other topology with a pair schedule, under both modes ...
@example(fields=cell(topology="linear", execution="processes", accumulation=2))
@example(fields=cell(topology="linear", execution="processes", reduce_mode="workers",
                      optimizer="adam"))
@example(fields=cell(topology="ring", execution="processes", optimizer="momentum",
                      probe=True))
@example(fields=cell(topology="ring", execution="processes", reduce_mode="workers",
                      wire_codecs=LOSSY))
@example(fields=cell(topology="hierarchical", gpus_per_node=2, execution="processes",
                      optimizer="adam", probe=True, wire_codecs=LOSSY))
@example(fields=cell(topology="hierarchical", gpus_per_node=2, execution="processes",
                      reduce_mode="workers", optimizer="momentum", accumulation=2))
# ... fp16 overflow spikes, skipped on the parent's one verdict ...
@example(fields=cell(spike=True, optimizer="momentum", wire_codecs=LOSSY, microbatch=1,
                      execution="processes"))
@example(fields=cell(spike=True, optimizer="adam", wire_codecs=LOSSY, microbatch=1,
                      num_ranks=3, execution="processes", reduce_mode="workers"))
# ... and elastic only (an ElasticSchedule), ending on a short tail step.
@example(fields=cell(op="average", num_ranks=5, execution="processes",
                      reduce_mode="workers", optimizer="momentum", faults="schedule"))
@example(fields=cell(num_ranks=5, execution="processes", optimizer="adam",
                      wire_codecs=LOSSY, faults="schedule"))
# Checkpoints with lossy residual rows: straight, and crossing backends
# both ways (worker-held state under accumulation and a probe).
@example(fields=cell(optimizer="adam", wire_codecs=LOSSY, resume_at=2))
@example(fields=cell(execution="processes", optimizer="momentum", wire_codecs=LOSSY,
                      accumulation=2, probe=True, resume_at=1, loader="serial"))
@example(fields=cell(optimizer="adam", wire_codecs=LOSSY, resume_at=2,
                      loader="processes"))
# Overlap, and checkpoints crossing it both ways.
@example(fields=cell(overlap=True, bucket_cap_mb=0.0002, optimizer="momentum"))
@example(fields=cell(overlap=True, bucket_cap_mb=0.0002, optimizer="adam",
                      resume_at=2, loader="serial"))
@example(fields=cell(optimizer="momentum", wire_codecs=LOSSY, bucket_cap_mb=0.0002,
                      resume_at=1, loader="overlap"))
# The cells: hierarchical (g = 2) at 8 ranks, rvh against tree.
@example(fields=cell(topology="hierarchical", gpus_per_node=2, num_ranks=8,
                      microbatch=1))
@example(fields=cell(topology="rvh", optimizer="adam", wire_codecs=LOSSY))
# Pre-optimizer reduction and accumulation, per-layer off, the probe,
# and a serial fp16 spike.
@example(fields=cell(op="sum", accumulation=2, optimizer="momentum"))
@example(fields=cell(adasum_pre_optimizer=True, per_layer=False, accumulation=2,
                      optimizer="momentum"))
@example(fields=cell(op="average", optimizer="adam", probe=True,
                      wire_codecs=("fp16",)))
@example(fields=cell(spike=True, wire_codecs=LOSSY, microbatch=1))
def test_a_config_that_builds_runs(fields):
    """Draw a run over every axis and hold it to the reference step
    (:func:`tests.reference_step.check_run`): if ``RunConfig`` builds, a
    ``ParallelTrainer`` trains ``K`` steps, and so does a failure-free
    ``ElasticTrainer`` where ``validate_for_pool(8)`` passes."""
    check_run(fields, note=event)
