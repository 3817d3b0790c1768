"""Span arithmetic and wrapper installation."""

import types

import pytest

from perfbench import spans
from perfbench.spans import Span, Tracer


def test_self_time_with_nested_and_sibling_children():
    #  root 0..10
    #    a 1..4          (self 3 - 1 = 2)
    #      a1 2..3       (self 1)
    #    b 5..9          (self 4 - 1 - 2 = 1)
    #      b1 5..6
    #      b2 6.5..8.5
    recorded = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b1", 5.0, 6.0, 3, 0),
        Span("b2", 6.5, 8.5, 3, 0),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    # Self times partition the root exactly.
    assert sum(own) == pytest.approx(recorded[0].duration)
    totals = spans.totals_by_name(recorded)
    assert totals["b"].total_s == pytest.approx(4.0)
    assert totals["b"].self_s == pytest.approx(1.0)


def test_spans_outside_blocks_are_not_counted():
    recorded = [Span("build", 0.0, 5.0, -1, -1), Span("block", 5.0, 6.0, -1, 0)]
    assert set(spans.totals_by_name(recorded)) == {"block"}


def test_tracer_records_parents_blocks_and_failures():
    tracer = Tracer()

    def inner():
        raise KeyError("boom")

    traced = tracer.wrap("inner", inner)
    with tracer.span("block", block=7):
        with tracer.span("outer"):
            with pytest.raises(KeyError):
                traced()
    names = [(s.name, s.parent, s.block, s.failed) for s in tracer.spans]
    assert names == [("block", -1, 7, False), ("outer", 0, 7, False), ("inner", 1, 7, True)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_leaf_span_silences_wrappers():
    tracer = Tracer()
    traced = tracer.wrap("forward", lambda: 1)
    with tracer.span("eval", leaf=True):
        assert traced() == 1
    assert [s.name for s in tracer.spans] == ["eval"]
    traced()
    assert [s.name for s in tracer.spans] == ["eval", "forward"]


def test_install_wraps_and_restore_puts_the_originals_back():
    from repro.core.distributed_optimizer import DistributedOptimizer
    from repro.elastic.trainer import ElasticTrainer
    import repro.elastic.trainer as elastic_trainer

    table = (
        ("core.apply", "repro.core.distributed_optimizer",
         "DistributedOptimizer.apply_reduced_flat"),
        ("elastic.build", "repro.elastic.trainer", "ElasticTrainer.from_config"),
        ("elastic.collective", "repro.elastic.trainer", "cluster_reduce"),
        ("gone", "repro.elastic.trainer", "ElasticTrainer.no_such_method"),
        ("gone", "repro.no_such_module", "anything"),
    )
    before = (
        vars(DistributedOptimizer)["apply_reduced_flat"],
        vars(ElasticTrainer)["from_config"],
        elastic_trainer.cluster_reduce,
    )
    saved, unmeasured = spans.install(Tracer(), table)
    try:
        assert unmeasured == [
            "repro.elastic.trainer:ElasticTrainer.no_such_method",
            "repro.no_such_module:anything",
        ]
        assert vars(DistributedOptimizer)["apply_reduced_flat"] is not before[0]
        # A classmethod stays a classmethod, bound to the class.
        assert isinstance(vars(ElasticTrainer)["from_config"], classmethod)
        assert isinstance(ElasticTrainer.from_config, types.MethodType)
        assert elastic_trainer.cluster_reduce is not before[2]
    finally:
        spans.restore(saved)
    after = (
        vars(DistributedOptimizer)["apply_reduced_flat"],
        vars(ElasticTrainer)["from_config"],
        elastic_trainer.cluster_reduce,
    )
    assert all(a is b for a, b in zip(before, after))


def test_every_boundary_in_the_table_exists_today():
    from perfbench.layers import BOUNDARIES

    saved, unmeasured = spans.install(Tracer(), BOUNDARIES)
    spans.restore(saved)
    assert unmeasured == []
