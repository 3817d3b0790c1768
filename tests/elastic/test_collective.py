"""``cluster_reduce``: the transport collective must be bit-exact with
the in-process reducers for every op and any participant subset."""

import numpy as np
import pytest

from repro.comm.transport import Cluster
from repro.core.distributed_optimizer import make_reducer
from repro.elastic import cluster_reduce


def _rows(n, size=21, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, size)).astype(np.float32)


BOUNDS = [0, 16, 20, 21]  # three layers, one of them a single element


class TestAdasumTreeCollective:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
    def test_full_world_matches_in_process(self, n):
        data = _rows(n)
        reducer = make_reducer("adasum", topology="tree_any")
        got = cluster_reduce(Cluster(n, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("participants", [[0], [2, 5], [0, 3, 6], [1, 2, 4, 7],
                                              [0, 2, 3, 5, 6]])
    def test_participant_subset(self, participants):
        # Only the participants' rows enter the reduction; the result
        # equals reducing their stacked rows in subgroup order.
        data = _rows(8)
        reducer = make_reducer("adasum", topology="tree_any")
        got = cluster_reduce(
            Cluster(8, timeout=10.0), data, BOUNDS, reducer, participants
        )
        expected = reducer.reduce_flat(data[participants].copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    def test_whole_model_mode(self):
        # per_layer=False ignores the layer boundaries (one flat block).
        data = _rows(5)
        reducer = make_reducer("adasum", per_layer=False, topology="tree_any")
        got = cluster_reduce(Cluster(5, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)


class TestGatherCollectives:
    @pytest.mark.parametrize("op", ["sum", "average"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_linear_ops_match(self, op, n):
        data = _rows(n)
        reducer = make_reducer(op)
        got = cluster_reduce(Cluster(n, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    def test_linear_adasum_matches(self):
        # Linear-topology Adasum runs via the gather path with the reducer's
        # own kernel — sequential fold, still bit-exact.
        data = _rows(4)
        reducer = make_reducer("adasum", topology="linear")
        got = cluster_reduce(Cluster(4, timeout=10.0), data, BOUNDS, reducer)
        expected = reducer.reduce_flat(data.copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)

    def test_subset_sum(self):
        data = _rows(6)
        reducer = make_reducer("sum")
        participants = [1, 3, 4]
        got = cluster_reduce(
            Cluster(6, timeout=10.0), data, BOUNDS, reducer, participants
        )
        expected = reducer.reduce_flat(data[participants].copy(), BOUNDS)
        np.testing.assert_array_equal(got, expected)


class TestValidation:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cluster_reduce(Cluster(4, timeout=10.0), _rows(3), BOUNDS, make_reducer("sum"))

    def test_empty_participants_rejected(self):
        with pytest.raises(ValueError):
            cluster_reduce(Cluster(4, timeout=10.0), _rows(4), BOUNDS,
                           make_reducer("sum"), [])

    def test_input_rows_unmodified(self):
        data = _rows(5)
        before = data.copy()
        cluster_reduce(Cluster(5, timeout=10.0), data, BOUNDS,
                       make_reducer("adasum", topology="tree_any"))
        np.testing.assert_array_equal(data, before)
