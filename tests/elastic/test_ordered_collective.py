"""The elastic collective as an ordered replay: same bytes, same clocks,
same failure reports as the rank-thread run it replaced.

``cluster_reduce`` declares descending rank order to ``Cluster.run``.
The reference here is the same collective forced back onto rank threads
(a ``Cluster`` whose ``run`` drops the declared order); everything an
observer can read — result, ``max_clock()``, ``total_bytes()``, each
rank's trace — must be identical, and a killed step must name exactly
its victim(s) and leave arena and model untouched.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import nn
from repro.comm import Cluster, CommError, FaultPlan, NetworkModel
from repro.comm.codec import build_pipeline
from repro.core import RunConfig
from repro.core.strategies import StrategyReducer
from repro.core.strategies import registered_cells
from repro.elastic import (
    ElasticSchedule,
    ElasticTrainer,
    FailureKind,
    StragglerPolicy,
    classify_failure,
    cluster_reduce,
)
from repro.models import MLP
from repro.optim import SGD

BOUNDS = [0, 16, 20, 21, 40]
NETWORK = NetworkModel(alpha=2e-6, beta=1e-9, gamma=3e-10, name="test")

#: Every registered cell, the hierarchical ones also bound at two ranks
#: per node, and whole-model Adasum.
REDUCERS = {
    f"{op}_{topology}": partial(StrategyReducer, op, topology=topology)
    for op, topology in registered_cells()
}
REDUCERS.update({
    f"{op}_hierarchical_2": partial(StrategyReducer, op, topology=topology,
                                    gpus_per_node=2)
    for op, topology in registered_cells() if topology == "hierarchical"
})
REDUCERS["adasum_whole_model"] = partial(
    StrategyReducer, "adasum", per_layer=False, topology="tree"
)


class ThreadedCluster(Cluster):
    """The reference: ignores a declared order, so every collective
    runs on rank threads as it did before ordered runs existed."""

    def run(self, fn, rank_args=None, order=None):
        return super().run(fn, rank_args)


def _fp16_rows(data):
    """Round-trip ``data`` through the fp16 stack in place; returns the
    pipeline, whose ``wire_nbytes`` an original row's send costs."""
    pipe = build_pipeline(("fp16",))
    pipe.bind(data.shape[0], data.shape[1], BOUNDS[1:])
    pipe.begin_step()
    pipe.encode_block(data, list(range(data.shape[0])))
    pipe.end_step(False)
    return pipe


def _trace(cluster):
    return [
        [(ev.op, ev.t0, ev.t1, ev.nbytes, ev.peer) for ev in cluster.tracer.per_rank(r)]
        for r in range(cluster.size)
    ]


@st.composite
def _cases(draw):
    world = draw(st.integers(1, 9))
    participants = draw(
        st.lists(st.integers(0, world - 1), min_size=1, max_size=world, unique=True)
    )
    plan = FaultPlan(max_retries=4, backoff=1e-6)  # outlasts 2 x 2 drops
    for rank in draw(st.lists(st.integers(0, world - 1), max_size=2, unique=True)):
        plan.delay_rank(rank, draw(st.sampled_from([1.5, 4.0, 25.0])))
    if len(participants) > 1:
        # Subgroup rank i sends to rank 0 when gathering or folding
        # and to i & (i - 1) in the trees, so these links do carry
        # traffic.
        members = sorted(participants)
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(1, len(members) - 1))
            dst = members[draw(st.sampled_from([0, i & (i - 1)]))]
            plan.drop_messages(members[i], dst, count=draw(st.integers(1, 2)))
    # Any tensor-aligned column range is a valid row set to reduce.
    lo = draw(st.integers(0, len(BOUNDS) - 2))
    hi = draw(st.integers(lo + 1, len(BOUNDS) - 1))
    return {
        "world": world,
        "participants": participants,
        "reducer": draw(st.sampled_from(sorted(REDUCERS))),
        "wire": draw(st.booleans()),
        "plan": plan,
        "columns": (BOUNDS[lo], BOUNDS[hi]),
        "seed": draw(st.integers(0, 2 ** 31 - 1)),
    }


class TestOrderedMatchesThreaded:
    @settings(max_examples=120, deadline=None)
    @given(_cases())
    def test_everything_observable_is_identical(self, case):
        rng = np.random.default_rng(case["seed"])
        data = rng.standard_normal((case["world"], BOUNDS[-1])).astype(np.float32)
        pipe = _fp16_rows(data) if case["wire"] else None
        start, stop = case["columns"]
        leaf_nbytes = None if pipe is None else pipe.wire_nbytes(start, stop)
        columns = data[:, start:stop]
        bounds = [b - start for b in BOUNDS if start <= b <= stop]
        reducer = REDUCERS[case["reducer"]]()
        try:
            reducer.strategy.validate_world(len(case["participants"]))
        except ValueError:
            assume(False)  # a power-of-two cell drawn with another count

        observed = []
        for kind in (Cluster, ThreadedCluster):
            cluster = kind(
                case["world"], network=NETWORK, timeout=10.0,
                faults=case["plan"], trace=True,
            )
            result = cluster_reduce(
                cluster, columns, bounds, reducer, case["participants"],
                leaf_nbytes=leaf_nbytes,
            )
            observed.append(
                (result.tobytes(), cluster.max_clock(), cluster.total_bytes(),
                 _trace(cluster))
            )
        assert observed[0] == observed[1]
        # And both are the in-process reduction of the participants' rows.
        expected = reducer.reduce_flat(
            columns[sorted(case["participants"])].copy(), bounds
        )
        assert observed[0][0] == expected.tobytes()


def _task(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _elastic(num_ranks=8, **kw):
    x, y = _task()
    model = MLP((6, 16, 2), rng=np.random.default_rng(0))
    config = RunConfig(op="adasum", topology="tree", num_ranks=num_ranks,
                       microbatch=4, seed=0, **kw)
    trainer = ElasticTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.3), x, y, config,
    )
    trainer.begin_epoch(0)
    return trainer, model


def _comm_ops_per_rank(world):
    """How many sends + receives each rank performs in one clean step."""
    trainer, _ = _elastic(world)
    trainer.train_step()
    return [
        sum(ev.op in ("send", "recv") for ev in trainer.cluster.tracer.per_rank(r))
        for r in range(world)
    ]


def _kill_points(world):
    return [
        (victim, after_ops)
        for victim, ops in enumerate(_comm_ops_per_rank(world))
        for after_ops in range(ops)
    ]


def _failed_attempt(trainer, model):
    """Run one step attempt that must fail; returns the error after
    checking the attempt left arena rows and model exactly as it found
    them at the collective's entry."""
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    rows = {}
    run_collective = trainer._run_collective

    def spy(participants, leaf_nbytes=None):
        rows["entry"] = trainer.arena.data.copy()
        return run_collective(participants, leaf_nbytes)

    trainer._run_collective = spy
    with pytest.raises(CommError) as info:
        trainer._attempt_step()
    np.testing.assert_array_equal(trainer.arena.data, rows["entry"])
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[name])
    return info.value


@pytest.mark.faults
class TestKilledStep:
    @pytest.mark.parametrize("world", [5, 8])
    def test_every_kill_point_names_exactly_its_victim(self, world):
        points = _kill_points(world)
        # Every rank communicates, the root most (one receive per level).
        assert {victim for victim, _ in points} == set(range(world))
        for victim, after_ops in points:
            schedule = ElasticSchedule().kill(0, victim, after_ops=after_ops)
            trainer, model = _elastic(world, faults=schedule)
            error = _failed_attempt(trainer, model)
            assert set(error.rank_errors) == {victim}, (victim, after_ops)
            report = classify_failure(error)
            assert report.kind is FailureKind.KILL
            assert report.dead_local_ranks == [victim]

    def test_two_kills_in_one_step_report_both_victims(self):
        # The fault_smoke case: ranks 0 and 6 both due at the same step.
        for _ in range(5):
            schedule = ElasticSchedule().kill(0, 0).kill(0, 6)
            trainer, model = _elastic(8, faults=schedule)
            error = _failed_attempt(trainer, model)
            assert sorted(error.rank_errors) == [0, 6]
            assert classify_failure(error).dead_local_ranks == [0, 6]

    def test_two_kills_in_one_step_recover_in_one_rebuild(self):
        schedule = ElasticSchedule().kill(1, 0).kill(1, 6)
        trainer, _ = _elastic(8, faults=schedule)
        for _ in range(3):
            trainer.train_step()
        assert trainer.num_ranks == 6
        assert [r["dead_global_ranks"] for r in trainer.recoveries] == [[0, 6]]


class TestTracerStaysBounded:
    def test_tracer_holds_one_step_after_300_commits(self):
        x, y = _task(n=320)
        model = MLP((6, 16, 2), rng=np.random.default_rng(0))
        config = RunConfig(op="adasum", topology="tree", num_ranks=8,
                           microbatch=4, seed=0, network=NETWORK)
        trainer = ElasticTrainer(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.3), x, y, config,
            straggler=StragglerPolicy(mode="drop"),
        )
        trainer.begin_epoch(0)
        trainer.train_step()
        one_step = len(trainer.cluster.tracer.events)
        assert one_step > 0
        epoch = 0
        while trainer.commits < 300:
            if not trainer.iterator.has_next():
                epoch += 1
                trainer.begin_epoch(epoch)
            trainer.train_step()
        assert len(trainer.cluster.tracer.events) <= one_step


class TestNoRankThreads:
    @pytest.mark.parametrize("wire_codecs", [None, ("fp16", "int8")])
    def test_elastic_step_starts_no_rank_thread(self, started_threads, wire_codecs):
        trainer, _ = _elastic(8, wire_codecs=wire_codecs)
        for _ in range(3):
            trainer.train_step()
        assert started_threads("rank-") == []
