"""Census of the one-spelling surface.

Every ``RunConfig`` field, execution backend and registry cell is a
configuration the test matrix has to cover, so growing any of them is a
decision, not an accident: this file pins the counts.  It also pins that
there is one training loop — ``train_step`` over explicit per-rank
indices is the per-rank loop the experiments used to hand-roll, whose
dict entry points are gone — and the one phased step
(``phased_step`` over a rank executor) that both trainers run — with
or without an overlap bucket plan, which has no step, thread or
validation rule of its own — and who finishes a row under each backend:
this process under ``serial``, the rank workers under ``processes``
(no parent-side optimizer step or encode, no extra pipe round).  And it
pins that there is one performance harness: ``perfbench/`` measures,
``perf``-marked ratio tests guard, and the snapshot script, its records
and its CI steps are gone for good.
"""

import dataclasses
import inspect
import os
import pathlib
import re

import numpy as np
import pytest

import repro.core.config
import repro.elastic.trainer as elastic_trainer
import repro.train.trainer as train_trainer
import repro.utils
from repro import nn
from repro.core import DistributedOptimizer, GradientArena
from repro.core.config import EXECUTIONS, RunConfig
from repro.core.overlap import build_fused_engine
from repro.core.strategies import OPS, TOPOLOGIES, registered_cells
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models import MLP, MiniBERT
from repro.models.fused_bert import FusedBertRankCompute
from repro.optim import SGD, Adam
from repro.train.trainer import (
    FusedRankExecutor,
    ParallelTrainer,
    ProcessRankExecutor,
    SerialRankExecutor,
    StackedAutograd,
)
from tests.reference_step import cell, check_run

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
    assert len(registered_cells()) == len(OPS) * len(TOPOLOGIES) == 15


#: Trainer-side parameters that share a ``RunConfig`` field's name, and why.
SAME_NAME_AS_A_FIELD = {
    ("build_rank_executor", "faults"): (
        "the process transport's FaultPlan, passed by ParallelTrainer from "
        "config.faults; an elastic config's faults is the ElasticSchedule "
        "its supervisor injects itself, so ElasticTrainer passes none"
    ),
    ("DistributedOptimizer", "num_ranks"): (
        "the elastic world-size override: a world rebuilt at its survivor "
        "count reduces fewer rows than config.num_ranks, and re-validating "
        "a replaced config on every world change would be wasted work"
    ),
}


@pytest.mark.parametrize("fn,count", [
    (ParallelTrainer.__init__, 12),
    (ElasticTrainer.__init__, 11),
    (train_trainer.build_rank_executor, 10),
    (DistributedOptimizer.__init__, 5),
])
def test_no_keyword_copies_a_config_field(fn, count):
    """A trainer, and the optimizer it builds, is built from a
    ``RunConfig`` alone: no parameter repeats one of its fields
    (counting ``self``)."""
    params = inspect.signature(fn).parameters
    assert len(params) == count
    owner = fn.__qualname__.split(".")[0]
    copies = {(owner, name) for name in params} & {
        (owner, f.name) for f in dataclasses.fields(RunConfig)}
    assert copies == {key for key in SAME_NAME_AS_A_FIELD if key[0] == owner}


#: One line of each rule about which runs are valid; each is stated
#: once under ``src/`` (in ``core/config.py``).
RULES = (
    "per-layer readiness, so there is",           # overlap x processes
    "reduce_mode must be 'parent' or 'workers'",  # reduce_mode values
    "only worker processes can run pair combines",  # workers need processes
    "pair-combine schedule at",                   # a cell with no schedule
    "ElasticTrainer has no overlap mode",         # elastic x overlap
    "an elastic step over",                       # the elastic world rule
    "microbatch must be >= 1",
)
#: The copies and the hard-coded clause the rules replaced.
RETIRED_RULES = (
    "the elastic collective does not support the 'rvh' topology",
    "worker_reduce needs reduce_mode",
    "needs execution='processes' ",
)


def _src_text():
    """Every source file but the samplers, which guard their own
    constructor arguments (a ``BatchIterator`` needs ``microbatch >= 1``
    whoever builds it)."""
    sampler = ROOT / "src" / "repro" / "data" / "sampler.py"
    return "\n".join(path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))
                     if path != sampler)


def test_every_rule_is_stated_once():
    text = _src_text()
    assert {rule: text.count(rule) for rule in RULES} == dict.fromkeys(RULES, 1)
    assert {rule: text.count(rule) for rule in RETIRED_RULES} == (
        dict.fromkeys(RETIRED_RULES, 0))
    config_py = (ROOT / "src" / "repro" / "core" / "config.py").read_text()
    assert all(rule in config_py for rule in RULES)


@pytest.mark.parametrize("topology,num_ranks,gpus_per_node", [
    ("tree", 2, 1), ("rvh", 2, 1), ("tree", 3, 1), ("linear", 3, 1),
    ("ring", 3, 1), ("hierarchical", 4, 2),
])
def test_elastic_trainer_runs_the_configs_cell(topology, num_ranks, gpus_per_node):
    """No widening behind the config's back, at the first world or a
    rebuilt one."""
    x, y = _task()
    config = RunConfig(topology=topology, num_ranks=num_ranks,
                       gpus_per_node=gpus_per_node, microbatch=4)
    with ElasticTrainer(MLP((6, 8, 2), rng=np.random.default_rng(1)),
                        nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1), x, y,
                        config) as trainer:
        assert trainer.dist_opt.topology == config.topology
        trainer.lend_ranks(1)
        assert trainer.dist_opt.topology == config.topology


@pytest.mark.parametrize("op", ["sum", "average", "adasum"])
@pytest.mark.parametrize("pre_optimizer", [False, True])
@pytest.mark.parametrize("accumulation", [1, 2])
def test_train_step_is_the_per_rank_loop(op, pre_optimizer, accumulation):
    """``train_step`` is the per-rank ``compute_grads`` loop (accumulated,
    then averaged) followed by the reduction: the reference step, which
    is that loop (pre-optimizer SGD and post-optimizer Adam deltas)."""
    check_run(cell(op=op, adasum_pre_optimizer=pre_optimizer, accumulation=accumulation,
                   optimizer="momentum" if pre_optimizer else "adam"))


def test_the_dict_entry_points_are_gone():
    """One training loop: no ``step(grad_dicts)`` adapter on the
    optimizer, no helper copying a model's gradients into a dict."""
    assert not hasattr(DistributedOptimizer, "step")
    assert not hasattr(repro.utils, "grads_to_dict")


def test_the_collective_twins_are_gone():
    """One way to run each simulated collective: a cell's
    ``combine_comm`` through ``cluster_allreduce`` — no layout-taking
    twins, one-call wrappers, group allreduce, barrier, per-call retry
    knobs, second tracing switch, fusion packer or worker combine spec."""
    import repro.comm
    import repro.core.adasum_ring
    import repro.core.adasum_rvh
    import repro.core.strategies
    from repro.comm import Cluster, Comm, GroupComm

    gone = {
        repro.core: ("adasum_rvh", "adasum_ring", "allreduce_adasum_cluster",
                     "allreduce_adasum_ring_cluster", "adasum_ring_cost"),
        repro.comm: ("allreduce_group", "FusionBuffer"),
        repro.core.adasum_rvh: ("adasum_rvh", "allreduce_adasum_cluster"),
        repro.core.adasum_ring: ("adasum_ring", "allreduce_adasum_ring_cluster",
                                 "adasum_ring_cost"),
        repro.core.strategies: ("CombineSpec",),
    }
    for package, names in gone.items():
        for name in names:
            assert name not in getattr(package, "__all__", ()), name
            # A submodule of the same name may be imported; nothing else.
            assert inspect.ismodule(getattr(package, name, inspect)), name
    for cls in (Comm, GroupComm):
        assert not hasattr(cls, "barrier")
        for method in (cls.send, cls.sendrecv):
            assert not {"retries", "backoff"} & set(
                inspect.signature(method).parameters)
    assert not hasattr(Cluster, "enable_tracing")
    assert "cross_topology" not in inspect.signature(
        repro.comm.hierarchical_adasum_allreduce).parameters
    assert not hasattr(repro.core.strategies.StrategyReducer, "combine_spec")


def test_the_second_spellings_of_a_reduction_are_gone():
    """One tree, one way to build a reducer, one optimizer constructor:
    ``tree`` reduces any world, so ``tree_any`` is no cell (its retired
    spelling resolves to ``tree``); a reducer is a ``StrategyReducer``
    or ``RunConfig.make_reducer()``; and the trainers' telemetry that
    nothing read is gone with the definitions nothing referenced."""
    import repro.core.strategies
    import repro.train.metrics
    from repro.comm.fusion import FusedTensorLayout
    from repro.core import operator
    from repro.elastic.schedule import ElasticSchedule
    from repro.scheduler.job import JobSpec
    from repro.scheduler.ledger import RankLedger

    assert "tree_any" not in TOPOLOGIES
    assert len(registered_cells()) == 15
    assert RunConfig(topology="tree_any").topology == "tree"
    for name in ("make_reducer", "allreduce"):
        assert not hasattr(repro.core, name), name
    for name in ("reduce_dicts", "reduce_flat"):
        assert not hasattr(repro.core.strategies, name), name
    assert not hasattr(operator, "adasum_tree_any")
    assert "allow_non_pow2" not in inspect.signature(
        operator.adasum_per_layer).parameters
    assert not hasattr(DistributedOptimizer, "from_config")
    assert not hasattr(DistributedOptimizer, "wire_row_nbytes")
    assert not hasattr(repro.train.metrics, "Meter")
    assert not {"tracer", "time_model"} & set(
        inspect.signature(ParallelTrainer).parameters)
    assert "probe" not in inspect.signature(ElasticTrainer).parameters
    for owner, name in (
        (ParallelTrainer, "_trace_step"), (FusedTensorLayout, "slices_within"),
        (RankLedger, "free_ranks"), (RankLedger, "holders"),
        (RankLedger, "active_loans"), (ElasticSchedule, "delayed_globals"),
        (ElasticTrainer, "loaned_ranks"), (GradientArena, "zero_"),
        (GradientArena, "zero_rank_"), (JobSpec, "total_samples"),
    ):
        assert not hasattr(owner, name), (owner.__name__, name)


def test_kernel_specialization_is_not_a_knob():
    """One value was ever in use: it is a constant of ``phased_step``."""
    for cls in (ParallelTrainer, ElasticTrainer, ProcessRankExecutor,
                SerialRankExecutor):
        assert "specialize_kernels" not in inspect.signature(cls).parameters


def test_rank_executors_share_one_surface():
    """What the step calls — ``compute`` / ``close`` / ``arena`` — is
    spelled identically on every backend, readiness callback included;
    the process backend adds only the worker-parallel reduce."""
    def public(cls):
        return {n for n in dir(cls)
                if callable(getattr(cls, n)) and not n.startswith("_")}

    assert public(SerialRankExecutor) == public(FusedRankExecutor) == {"compute", "close"}
    assert public(ProcessRankExecutor) == {"compute", "close", "worker_reduce"}
    for cls in (FusedRankExecutor, ProcessRankExecutor):
        for name in ("compute", "close"):
            assert inspect.signature(getattr(SerialRankExecutor, name)) == (
                inspect.signature(getattr(cls, name)))
    assert list(inspect.signature(SerialRankExecutor.compute).parameters) == [
        "self", "rank_indices", "ranks", "on_ready"]
    assert "arena" in inspect.signature(SerialRankExecutor).parameters
    assert "arena" in inspect.signature(ProcessRankExecutor).parameters


def test_overlap_left_no_second_step_behind():
    """Overlap is a plan handed to the one step: the trainer has no
    overlap step, fused-engine bookkeeping or scheduler lifecycle of its
    own, and the overlap x processes rule has no function of its own."""
    x, y = _task()
    model = MLP((6, 8, 2), rng=np.random.default_rng(1))
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1),
                              x, y, RunConfig(num_ranks=4, microbatch=4, overlap=True))
    for name in ("_overlap_step", "_overlap_compute_serial", "_validate_fused",
                 "_overlap_active", "_sched", "_fused", "_fused_validated"):
        assert not hasattr(trainer, name), name
    assert not hasattr(trainer.plan, "close")
    assert not hasattr(repro.core.config, "validate_execution_strategy")


def _count_phased_steps(monkeypatch):
    calls = []
    real = train_trainer.phased_step

    def counted(*args, **kwargs):
        calls.append(kwargs.get("step"))
        return real(*args, **kwargs)

    monkeypatch.setattr(train_trainer, "phased_step", counted)
    monkeypatch.setattr(elastic_trainer, "phased_step", counted)
    return calls


def _task(n=96):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    return x, (x[:, 0] > 0).astype(np.int64)


def test_parallel_trainer_step_is_one_phased_step(monkeypatch):
    """Whole rows or an overlap plan, rank-stacked autograd or the
    registered engine: a ``train_step`` is exactly one ``phased_step``."""
    calls = _count_phased_steps(monkeypatch)
    x, y = _task()
    tokens = np.random.default_rng(0).integers(0, 64, (64, 16))
    for overlap in (False, True):
        for model, data in (
            (MLP((6, 8, 2), rng=np.random.default_rng(1)), (x, y)),
            (MiniBERT(rng=np.random.default_rng(1)), (tokens, tokens)),
        ):
            del calls[:]
            config = RunConfig(num_ranks=4, microbatch=4, overlap=overlap,
                               bucket_cap_mb=0.001)
            trainer = ParallelTrainer(model, nn.CrossEntropyLoss(),
                                      lambda ps: SGD(ps, 0.1), *data, config)
            # FusedRankExecutor <=> a rank-order-free model; its engine
            # is the registered one when there is one.
            assert isinstance(trainer.executor, FusedRankExecutor) == (
                nn.rank_order_hazard(model) is None)
            registered = build_fused_engine(model)
            assert type(trainer.executor.engine) is (
                StackedAutograd if registered is None else type(registered))
            for _, rank_indices in trainer.iterator.epoch(0):
                trainer.train_step(rank_indices)
            assert trainer.global_step > 0
            assert calls == list(range(trainer.global_step))


@pytest.mark.faults
def test_elastic_attempt_is_one_phased_step(monkeypatch):
    """One call per *attempt*: every committed step plus the one the
    scheduled kill aborted (same step id, retried after the rollback)."""
    calls = _count_phased_steps(monkeypatch)
    x, y = _task()
    model = MLP((6, 8, 2), rng=np.random.default_rng(1))
    config = RunConfig(topology="tree", num_ranks=4, microbatch=4,
                       faults=ElasticSchedule().kill(2, 1))
    trainer = ElasticTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1), x, y, config,
    )
    trainer.train_epoch(0)
    assert len(trainer.recoveries) == 1
    assert len(calls) == trainer.commits + len(trainer.recoveries)
    assert calls.count(2) == 2


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("execution,probe,expected", [
    # Serial: the distributed optimizer's mirror rewrites all four rows
    # in one call, no rank optimizer steps for real, and the whole
    # arena is encoded in one call, all in this process.
    ("serial", False, {"step": 0, "rewrite": 1, "encode_block": 1, "call": 0}),
    # Processes: the workers finish their own rows, so none of that runs
    # here, and it costs no extra pipe round — compute + two combine
    # levels — unless a probe must read the rows raw first.
    ("processes", False, {"step": 0, "rewrite": 0, "encode_block": 0, "call": 3}),
    ("processes", True, {"step": 0, "rewrite": 0, "encode_block": 0, "call": 4}),
])
def test_who_finishes_a_row(monkeypatch, execution, probe, expected):
    _count_row_finishers(monkeypatch, execution, probe, expected,
                         lambda ps: Adam(ps, 0.01))


def test_who_finishes_a_row_the_mirror_rejects(monkeypatch):
    """LAMB (Table 3's Adasum-LAMB) is no update rule the mirror
    replays: its four rank optimizers step for real."""
    from repro.optim import LAMB

    _count_row_finishers(monkeypatch, "serial", False,
                         {"step": 4, "rewrite": 0, "encode_block": 1, "call": 0},
                         lambda ps: LAMB(ps, 0.01))


def _count_row_finishers(monkeypatch, execution, probe, expected, make_opt):
    from repro.comm.codec import CodecPipeline
    from repro.comm.transport import ProcessTransport
    from repro.core.orthogonality import OrthogonalityProbe
    from repro.core.overlap import FlatOptimizerMirror
    from repro.optim.optimizer import Optimizer

    calls = dict.fromkeys(expected, 0)
    _count_calls(monkeypatch, Optimizer, "step", calls)
    _count_calls(monkeypatch, FlatOptimizerMirror, "rewrite", calls)
    _count_calls(monkeypatch, CodecPipeline, "encode_block", calls)
    _count_calls(monkeypatch, ProcessTransport, "call", calls)
    x, y = _task()
    model = MLP((6, 8, 2), rng=np.random.default_rng(1))
    config = RunConfig(
        num_ranks=4, microbatch=4, topology="tree", execution=execution,
        reduce_mode="workers" if execution == "processes" else "parent",
        wire_codecs=("fp16", "int8", "topk:0.1"),
    )
    with ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(), make_opt, x, y, config,
        probe=OrthogonalityProbe() if probe else None,
    ) as trainer:
        batches = [idx for _, idx in trainer.iterator.epoch(0)][:3]
        for idx in batches:
            before = dict(calls)
            trainer.train_step(idx)
            assert {k: calls[k] - before[k] for k in calls} == expected
        pipe = trainer.dist_opt.wire_pipeline
        # Under processes the parent's pipeline is bound to zero rows:
        # it holds no residual array to allocate, copy or roll back.
        assert sum(r.size for r in pipe._residuals.values()) == (
            0 if execution == "processes" else 2 * 4 * trainer.arena.layout.total_size)


ROOT = pathlib.Path(__file__).resolve().parents[2]
# Spelled in halves so that this file passes its own search.
RETIRED_NAMES = ("bench_" "snapshot", "BENCH_" "PR")


def test_the_snapshot_harness_is_gone():
    """No script, no record, and nothing in the tree still points at
    either (the per-PR logs that tell the story excepted)."""
    assert not (ROOT / "scripts" / f"{RETIRED_NAMES[0]}.py").exists()
    assert not list((ROOT / "results").glob(f"{RETIRED_NAMES[1]}*.json"))
    logs = {ROOT / name
            for name in ("CHANGES.md", "ROADMAP.md", "ISSUE.md", "REVIEW.md")}
    mentions = []
    for folder, subfolders, files in os.walk(ROOT):
        subfolders[:] = [d for d in subfolders if d != ".git"]
        for path in (pathlib.Path(folder, name) for name in files):
            if path.suffix in (".py", ".yml", ".toml", ".md") and path not in logs:
                text = path.read_text(errors="replace")
                if any(retired in text for retired in RETIRED_NAMES):
                    mentions.append(str(path.relative_to(ROOT)))
    assert mentions == []


def test_the_engine_is_chosen_in_one_place():
    """"Engine or plain loop" follows from the model in one helper that
    the serial builder and the rank workers share: ``src/`` calls the
    registry exactly once outside its definition, and neither the
    registry nor the engine takes a world size."""
    calls = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "build_fused_engine(" in line and not line.startswith("def ")
    ]
    assert len(calls) == 1 and calls[0].startswith("src/repro/train/trainer.py"), calls
    assert list(inspect.signature(build_fused_engine).parameters) == ["model"]
    assert list(inspect.signature(FusedBertRankCompute).parameters) == ["model"]


def test_ci_perf_guard_is_one_pytest_step():
    """Beside installing its dependencies the job runs one command, the
    ``perf``-marked ratio tests: no script, no recorded number."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = re.split(r"\n  \S", workflow.split("\n  perf-guard:\n")[1])[0]
    commands = [run for run in re.findall(r"^ +(?:- )?run: *(.*)$", job, re.M)
                if "pip install" not in run]
    assert len(commands) == 1 and "pytest -m perf" in commands[0], commands


def test_step_arena_ranks_restricts_the_default_reduce():
    """``step_arena(ranks=...)`` without a ``reduce_fn`` reduces exactly
    the participating rows (what a 2-rank world holding them would)."""
    rng = np.random.default_rng(0)
    grads = rng.standard_normal((4, 6 * 8 + 8 + 8 * 3 + 3)).astype(np.float32)
    models = [MLP((6, 8, 3), rng=np.random.default_rng(1)) for _ in range(2)]
    wide = DistributedOptimizer(models[0], lambda ps: SGD(ps, 0.1),
                                RunConfig(op="sum", num_ranks=4))
    arena = GradientArena.from_model(models[0], 4)
    arena.data[:] = grads
    wide.step_arena(arena, ranks=[0, 2])
    narrow = DistributedOptimizer(models[1], lambda ps: SGD(ps, 0.1),
                                  RunConfig(op="sum", num_ranks=2))
    arena2 = GradientArena.from_model(models[1], 2)
    arena2.data[:] = grads[[0, 2]]
    narrow.step_arena(arena2)
    for p, q in zip(models[0].parameters(), models[1].parameters()):
        np.testing.assert_array_equal(p.data.view(np.uint8), q.data.view(np.uint8))
