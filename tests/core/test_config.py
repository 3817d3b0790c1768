"""RunConfig: parsing, central validation, and from_config equivalence.

A ``RunConfig`` that constructs is runnable — every inconsistent
combination must fail in ``__post_init__`` (or, for an elastic run, in
``validate_for_pool``), and a trainer built from a config must behave
identically to the optimizer, executor and step wired by hand.
"""

import os
import traceback

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import nn
from repro.comm.faults import FaultPlan
from repro.core import (
    DistributedOptimizer,
    RunConfig,
    make_reducer,
    parse_op,
    parse_topology,
)
from repro.data.sampler import BatchIterator, ShardedSampler
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer
from repro.train.trainer import build_rank_executor, phased_step


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
            ("tree-any", "tree_any"),
            ("tree_any", "tree_any"),
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
            lambda topology: make_reducer("adasum", topology=topology).topology,
        ],
        ids=["RunConfig", "make_reducer"],
    )
    @pytest.mark.parametrize("spelling", ["tree-any", "Tree-Any", "TREE_ANY"])
    def test_every_entry_point_spells_a_topology_alike(self, entry, spelling):
        assert entry(spelling) == "tree_any"

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
        cfg = RunConfig(op="SUM", topology="Tree-Any")
        assert cfg.op == "sum"
        assert cfg.topology == "tree_any"

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
            (dict(topology="tree", num_ranks=3), "power-of-two"),
            (dict(topology="rvh", num_ranks=3), "power-of-two"),
            # Used to pass RunConfig and fail in build_rank_executor.
            (
                dict(topology="tree", num_ranks=6, execution="processes",
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
    def test_optimizer_from_config_matches_manual(self):
        cfg = RunConfig(op="adasum", topology="tree_any", per_layer=False, wire_codecs=("fp16",))
        model, _, _ = _toy_problem()
        built = DistributedOptimizer.from_config(
            model, lambda ps: SGD(ps, 0.05), cfg, num_ranks=4
        )
        manual = DistributedOptimizer(
            model,
            lambda ps: SGD(ps, 0.05),
            num_ranks=4,
            op="adasum",
            per_layer=False,
            wire_codecs=("fp16",),
            topology="tree_any",
        )
        assert built.num_ranks == manual.num_ranks == 4
        assert built.reducer.topology == manual.reducer.topology == "tree_any"
        assert built.reducer.per_layer is manual.reducer.per_layer is False
        assert built.wire_fp16 is manual.wire_fp16 is True

    def test_trainer_from_config_bit_identical_to_manual(self):
        model_a, x, y = _toy_problem()
        model_b, _, _ = _toy_problem()
        cfg = RunConfig(op="adasum", num_ranks=4, microbatch=8, seed=3)

        t_cfg = ParallelTrainer.from_config(
            model_a, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05), x, y, cfg
        )
        t_man = _HandWired(
            model_b,
            DistributedOptimizer(
                model_b, lambda ps: SGD(ps, 0.05), num_ranks=4,
                op="adasum",
            ),
            x,
            y,
            cfg,
        )
        for epoch in range(2):
            loss_cfg = t_cfg.train_epoch(epoch, max_steps=3)
            loss_man = t_man.train_epoch(epoch, max_steps=3)
            assert loss_cfg == loss_man
        for (na, pa), (nb, pb) in zip(
            sorted(model_a.named_parameters()), sorted(model_b.named_parameters())
        ):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_hierarchical_trainer_from_config_bit_identical_to_reference(self):
        # RunConfig(topology="hierarchical", gpus_per_node=g) end to end:
        # the trained weights must match a hand-wired step whose reducer
        # is the reference adasum-tree-over-node-sums cell.
        from repro.core.strategies import get_strategy

        model_a, x, y = _toy_problem()
        model_b, _, _ = _toy_problem()
        cfg = RunConfig(
            op="adasum", topology="hierarchical", num_ranks=8, gpus_per_node=2,
            microbatch=8, seed=3,
        )
        assert cfg.make_reducer().strategy is not get_strategy(
            "adasum", "hierarchical"
        )  # bound copy, registry default untouched

        t_cfg = ParallelTrainer.from_config(
            model_a, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05), x, y, cfg
        )
        t_ref = _HandWired(
            model_b,
            DistributedOptimizer(
                model_b, lambda ps: SGD(ps, 0.05), num_ranks=8,
                op="adasum", topology="hierarchical",
                gpus_per_node=2,
            ),
            x,
            y,
            cfg,
        )
        for epoch in range(2):
            assert t_cfg.train_epoch(epoch, max_steps=3) == t_ref.train_epoch(
                epoch, max_steps=3
            )
        for (na, pa), (nb, pb) in zip(
            sorted(model_a.named_parameters()), sorted(model_b.named_parameters())
        ):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

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


class _HandWired:
    """The reference a trainer must equal, wired by hand: a
    ``DistributedOptimizer`` built by keyword, the rank executor from
    ``build_rank_executor`` and the one step, ``phased_step``, over the
    same seeded shards."""

    def __init__(self, model, dist_opt, x, y, config):
        self.dist_opt = dist_opt
        self.executor = build_rank_executor(
            model, nn.CrossEntropyLoss(), dist_opt, x, y, config
        )
        sampler = ShardedSampler(len(x), config.num_ranks, seed=config.seed)
        self.iterator = BatchIterator(sampler, config.microbatch)

    def train_epoch(self, epoch, max_steps):
        losses = [
            float(np.mean(phased_step(self.executor, self.dist_opt, idx)))
            for step, idx in self.iterator.epoch(epoch)
            if step < max_steps
        ]
        return float(np.mean(losses))


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

    @pytest.mark.parametrize("topology", ["tree", "rvh"])
    def test_elastic_world_must_reduce_every_size(self, topology):
        """``tree`` used to be widened to ``tree_any`` behind the
        config's back; a 4-rank world can step with 3."""
        cfg = RunConfig(topology=topology, num_ranks=4)
        with pytest.raises(ValueError, match="power-of-two.*may reduce 3"):
            cfg.validate_for_pool(4)
        assert RunConfig(topology=topology, num_ranks=2).validate_for_pool(4)


# ----------------------------------------------------------------------
# Generated construction: what builds, runs
# ----------------------------------------------------------------------
def _rejected_by_config(exc):
    """The error was raised while a ``RunConfig`` validated itself."""
    return any(
        frame.filename.endswith(os.path.join("core", "config.py"))
        for frame in traceback.extract_tb(exc.__traceback__)
    )


FAULTS = {"none": None, "plan": FaultPlan, "schedule": ElasticSchedule}

_RUN_CONFIGS = st.fixed_dictionaries({
    "op": st.sampled_from(["sum", "average", "adasum"]),
    "topology": st.sampled_from(
        ["tree", "tree_any", "linear", "rvh", "ring", "hierarchical"]),
    "gpus_per_node": st.sampled_from([1, 1, 2, 3]),
    "num_ranks": st.integers(1, 8),
    "min_ranks": st.sampled_from([1, 1, 2, 3, 8]),
    "microbatch": st.integers(1, 3),
    "wire_codecs": st.sampled_from(
        [(), ("fp16",), ("int8",), ("fp16", "int8", "topk:0.1")]),
    "bucket_cap_mb": st.sampled_from([None, 0.0002, 1.0]),
    "overlap": st.booleans(),
    # Rarely: every processes example starts a worker pool.
    "execution": st.integers(0, 11).map(lambda i: "processes" if i == 0 else "serial"),
    "reduce_mode": st.sampled_from(["parent", "workers"]),
    "faults": st.sampled_from(sorted(FAULTS)),
})


@settings(max_examples=200, deadline=None)
@given(fields=_RUN_CONFIGS)
def test_a_config_that_builds_runs(fields):
    """Draw a run over every axis.  If ``RunConfig`` builds, a
    ``ParallelTrainer`` builds and takes a step; if
    ``validate_for_pool(8)`` passes too, so does an ``ElasticTrainer``.
    Every rejection comes from ``RunConfig``, but for one: a
    ``ParallelTrainer`` refuses an elastic schedule."""
    fields = dict(fields)
    faults = FAULTS[fields.pop("faults")]
    fields["faults"] = faults and faults()
    try:
        config = RunConfig(**fields)
    except ValueError as exc:
        assert _rejected_by_config(exc), exc
        event("RunConfig rejects")
        return
    event(f"ParallelTrainer, {config.execution}")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((48, 5)).astype(np.float32)
    y = rng.integers(0, 3, 48)

    def model():
        return MLP((5, 6, 3), rng=np.random.default_rng(1))

    if isinstance(config.faults, ElasticSchedule):
        with pytest.raises(ValueError, match="ElasticSchedule"):
            ParallelTrainer(model(), nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1),
                            x, y, config)
    else:
        with ParallelTrainer(model(), nn.CrossEntropyLoss(),
                             lambda ps: SGD(ps, 0.1), x, y, config) as trainer:
            _, rank_indices = next(iter(trainer.iterator.epoch(0)))
            assert np.isfinite(trainer.train_step(rank_indices))
    try:
        config.validate_for_pool(8)
    except ValueError as exc:
        assert _rejected_by_config(exc), exc
        event("validate_for_pool rejects")
        return
    event(f"ElasticTrainer, {config.execution}")
    with ElasticTrainer(model(), nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1),
                        x, y, config) as trainer:
        assert trainer.dist_opt.topology == config.topology
        trainer.begin_epoch(0)
        assert np.isfinite(trainer.train_step())
