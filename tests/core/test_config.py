"""RunConfig: parsing, central validation, and from_config equivalence.

A ``RunConfig`` that constructs is runnable — every inconsistent
combination must fail in ``__post_init__``, and the ``from_config``
trainers must behave identically to hand-wired keyword construction.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    DistributedOptimizer,
    ReduceOpType,
    RunConfig,
    parse_op,
    parse_topology,
)
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer


class TestParsers:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("sum", ReduceOpType.SUM),
            ("SUM", ReduceOpType.SUM),
            ("Average", ReduceOpType.AVERAGE),
            ("adasum", ReduceOpType.ADASUM),
            (ReduceOpType.ADASUM, ReduceOpType.ADASUM),
        ],
    )
    def test_parse_op(self, value, expected):
        assert parse_op(value) is expected

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
        assert cfg.reduce_op is ReduceOpType.ADASUM

    def test_normalizes_op_and_topology(self):
        cfg = RunConfig(op=ReduceOpType.SUM, topology="Tree-Any")
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
            op=ReduceOpType.ADASUM,
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
        t_man = ParallelTrainer(
            model_b,
            nn.CrossEntropyLoss(),
            DistributedOptimizer(
                model_b, lambda ps: SGD(ps, 0.05), num_ranks=4,
                op=ReduceOpType.ADASUM,
            ),
            x,
            y,
            8,
            seed=3,
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
        # the trained weights must match a manual trainer whose reducer
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
        t_ref = ParallelTrainer(
            model_b,
            nn.CrossEntropyLoss(),
            DistributedOptimizer(
                model_b, lambda ps: SGD(ps, 0.05), num_ranks=8,
                op=ReduceOpType.ADASUM, topology="hierarchical",
                gpus_per_node=2,
            ),
            x,
            y,
            8,
            seed=3,
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
        # And the trainer itself still guards direct keyword use.
        dist = DistributedOptimizer(
            model, lambda ps: SGD(ps, 0.05), num_ranks=2, op=ReduceOpType.SUM
        )
        with pytest.raises(ValueError, match="mutually exclusive"):
            ParallelTrainer(
                model, nn.CrossEntropyLoss(), dist, x, y, 4,
                overlap=True, execution="processes",
            )
