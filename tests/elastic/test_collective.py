"""``cluster_reduce``: the transport collective must be bit-exact with
the in-process reducers for every registered cell, any participant
subset and an fp16 wire, and the Adasum trees must cost exactly what
the recursive collective they replaced cost."""

import numpy as np
import pytest

from repro.comm import NetworkModel
from repro.comm.codec import build_pipeline
from repro.comm.transport import Cluster, GroupComm
from repro.core.strategies import StrategyReducer
from repro.core.strategies import get_strategy, registered_cells
from repro.elastic import cluster_reduce


def _rows(n, size=21, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, size)).astype(np.float32)


BOUNDS = [0, 16, 20, 21]  # three layers, one of them a single element


class TestAdasumTreeCollective:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
    def test_full_world_matches_in_process(self, n):
        data = _rows(n)
        reducer = StrategyReducer("adasum", topology="tree")
        got = cluster_reduce(Cluster(n, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("participants", [[0], [2, 5], [0, 3, 6], [1, 2, 4, 7],
                                              [0, 2, 3, 5, 6]])
    def test_participant_subset(self, participants):
        # Only the participants' rows enter the reduction; the result
        # equals reducing their stacked rows in subgroup order.
        data = _rows(8)
        reducer = StrategyReducer("adasum", topology="tree")
        got = cluster_reduce(
            Cluster(8, timeout=10.0), data, BOUNDS, reducer, participants
        )
        expected = reducer.reduce_flat(data[participants].copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    def test_whole_model_mode(self):
        # per_layer=False ignores the layer boundaries (one flat block).
        data = _rows(5)
        reducer = StrategyReducer("adasum", per_layer=False, topology="tree")
        got = cluster_reduce(Cluster(5, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)


class TestGatherCollectives:
    @pytest.mark.parametrize("op", ["sum", "average"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_linear_ops_match(self, op, n):
        data = _rows(n)
        reducer = StrategyReducer(op)
        got = cluster_reduce(Cluster(n, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    def test_linear_adasum_matches(self):
        # Linear-topology Adasum runs via the gather path with the reducer's
        # own kernel — sequential fold, still bit-exact.
        data = _rows(4)
        reducer = StrategyReducer("adasum", topology="linear")
        got = cluster_reduce(Cluster(4, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    def test_subset_sum(self):
        data = _rows(6)
        reducer = StrategyReducer("sum")
        participants = [1, 3, 4]
        got = cluster_reduce(
            Cluster(6, timeout=10.0), data, BOUNDS, reducer, participants
        )
        expected = reducer.reduce_flat(data[participants].copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)


class TestValidation:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cluster_reduce(Cluster(4, timeout=10.0), _rows(3), BOUNDS, StrategyReducer("sum"))

    def test_empty_participants_rejected(self):
        with pytest.raises(ValueError):
            cluster_reduce(Cluster(4, timeout=10.0), _rows(4), BOUNDS,
                           StrategyReducer("sum"), [])

    def test_input_rows_unmodified(self):
        data = _rows(5)
        before = data.copy()
        cluster_reduce(Cluster(5, timeout=10.0), data, BOUNDS,
                       StrategyReducer("adasum", topology="tree"))
        np.testing.assert_array_equal(data, before)


# ----------------------------------------------------------------------
# Every registered cell: the collective replays the cell's pair schedule
# ----------------------------------------------------------------------
#: Every registered cell, plus the hierarchical ones bound at two ranks
#: per node, plus the retired spelling "tree_any" that the frozen
#: benchmark's elastic config still names: ``(op, topology, gpus_per_node)``.
CELLS = [(op, topology, None) for op, topology in registered_cells()] + [
    (op, topology, 2) for op, topology in registered_cells()
    if topology == "hierarchical"
] + [(op, "tree_any", None) for op in ("sum", "average", "adasum")]
SUBSETS = ([0], [2, 5], [0, 3, 6], [1, 2, 4, 7], [0, 2, 3, 5, 6],
           [1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 7], list(range(8)))
NETWORK = NetworkModel(alpha=2e-6, beta=1e-9, gamma=3e-10, name="test")


def _fp16_rows(data):
    """Round-trip ``data`` through the fp16 stack in place; returns the
    stack's modeled per-row bytes, what an original row's send costs."""
    pipe = build_pipeline(("fp16",))
    pipe.bind(data.shape[0], data.shape[1], BOUNDS[1:])
    pipe.begin_step()
    pipe.encode_block(data, list(range(data.shape[0])))
    pipe.end_step(False)
    return pipe.wire_nbytes()


def _observe(cluster, result):
    trace = [
        [(ev.op, ev.t0, ev.t1, ev.nbytes, ev.peer) for ev in cluster.tracer.per_rank(r)]
        for r in range(cluster.size)
    ]
    return result.tobytes(), cluster.max_clock(), cluster.total_bytes(), trace


class TestEveryCell:
    @pytest.mark.parametrize("wire", [False, True], ids=["fp32", "fp16"])
    @pytest.mark.parametrize("op,topology,gpus_per_node", CELLS)
    def test_equals_the_flat_kernel_byte_for_byte(self, op, topology,
                                                  gpus_per_node, wire):
        reducer = StrategyReducer(op, topology=topology, gpus_per_node=gpus_per_node)
        data = _rows(8, seed=3)
        leaf_nbytes = _fp16_rows(data) if wire else None
        checked = 0
        for participants in SUBSETS:
            try:
                reducer.strategy.validate_world(len(participants))
            except ValueError:
                continue
            got = cluster_reduce(Cluster(8, timeout=10.0), data, BOUNDS, reducer,
                                 participants, leaf_nbytes=leaf_nbytes)
            expected = reducer.reduce_flat(data[participants].copy(), BOUNDS)
            assert got.tobytes() == expected.tobytes(), participants
            checked += 1
        assert checked >= 4


def _parent_tree_reduce(cluster, data, boundaries, reducer, participants,
                        leaf_nbytes):
    """Frozen copy of the collective ``cluster_reduce`` ran for the
    Adasum trees before it replayed the cell's pair schedule: every
    subgroup rank walks the divide-and-conquer recursion over ``[lo,
    hi)``, splitting at the largest power of two below the span, and
    only a single-rank subtree's send is charged ``leaf_nbytes``."""
    bounds = boundaries if reducer.per_layer else None
    pairwise = get_strategy("adasum", "tree").combine_pair
    part_set = set(participants)

    def combine(sub, acc, lo, hi):
        n = hi - lo
        if n <= 1:
            return acc
        p = n // 2 if n & (n - 1) == 0 else 1 << ((n - 1).bit_length() - 1)
        if sub.rank < lo + p:
            acc = combine(sub, acc, lo, lo + p)
            if sub.rank == lo:
                other = sub.recv(lo + p)
                sub.compute(acc.nbytes, label="adasum")
                pairwise(acc, other, bounds, out=acc)
        else:
            acc = combine(sub, acc, lo + p, hi)
            if sub.rank == lo + p:
                if hi - (lo + p) == 1:
                    sub.send(acc, lo, nbytes=leaf_nbytes)
                else:
                    sub.send(acc, lo)
        return acc

    def fn(comm):
        if comm.rank not in part_set:
            return None
        acc = data[comm.rank].copy()
        if len(participants) == 1:
            return acc
        sub = GroupComm(comm, participants, presorted=True)
        acc = combine(sub, acc, 0, sub.size)
        return acc if sub.rank == 0 else None

    return cluster.run(fn, order=range(cluster.size - 1, -1, -1))[participants[0]]


class TestAdasumTreesKeepTheirCost:
    """The Adasum trees' schedule is the recursion the collective used
    to walk: result, clocks, bytes and every rank's trace are unchanged."""

    @pytest.mark.parametrize("wire", [False, True], ids=["fp32", "fp16"])
    @pytest.mark.parametrize("per_layer", [True, False])
    @pytest.mark.parametrize("topology", ["tree"])
    def test_matches_the_recursive_collective(self, topology, per_layer, wire):
        reducer = StrategyReducer("adasum", per_layer=per_layer, topology=topology)
        for world in (1, 2, 3, 5, 8, 9):
            data = _rows(world, size=BOUNDS[-1], seed=world)
            leaf_nbytes = _fp16_rows(data) if wire else None
            for participants in [list(range(world))] + [
                s for s in SUBSETS if s[-1] < world
            ]:
                observed = []
                for collective in (cluster_reduce, _parent_tree_reduce):
                    cluster = Cluster(world, network=NETWORK, timeout=10.0,
                                      trace=True)
                    result = collective(cluster, data, BOUNDS, reducer,
                                        participants, leaf_nbytes)
                    observed.append(_observe(cluster, result))
                assert observed[0] == observed[1], (world, participants)
