"""Transport-layer tests: message passing, clocks, error propagation."""

import numpy as np
import pytest

from repro.comm import Cluster, CommError, NetworkModel


class TestPointToPoint:
    def test_ping_pong(self):
        cluster = Cluster(2)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.array([42.0]), 1)
                return comm.recv(1)
            payload = comm.recv(0)
            comm.send(payload * 2, 0)
            return payload

        results = cluster.run(fn)
        np.testing.assert_allclose(results[0], [84.0])
        np.testing.assert_allclose(results[1], [42.0])

    def test_sendrecv_exchange(self):
        cluster = Cluster(2)

        def fn(comm):
            mine = np.array([float(comm.rank)])
            return comm.sendrecv(mine, 1 - comm.rank)

        results = cluster.run(fn)
        assert results[0][0] == 1.0
        assert results[1][0] == 0.0

    def test_message_ordering_preserved(self):
        cluster = Cluster(2)

        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(np.array([i]), 1)
                return None
            return [int(comm.recv(0)[0]) for _ in range(5)]

        results = cluster.run(fn)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_invalid_destination(self):
        cluster = Cluster(2, timeout=2.0)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), 5)

        with pytest.raises(CommError):
            cluster.run(fn)

    def test_self_send_rejected(self):
        cluster = Cluster(2, timeout=2.0)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), 0)

        with pytest.raises(CommError):
            cluster.run(fn)

    def test_rank_exception_propagates(self):
        cluster = Cluster(2, timeout=2.0)

        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")

        with pytest.raises(CommError, match="rank 1"):
            cluster.run(fn)


class TestClocks:
    def test_send_cost_accrues(self):
        net = NetworkModel(alpha=1.0, beta=0.5)
        cluster = Cluster(2, network=net)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(8, dtype=np.float64), 1)  # 64 bytes
            else:
                comm.recv(0)
            return comm.clock

        results = cluster.run(fn)
        expected = 1.0 + 0.5 * 64
        assert results[0] == pytest.approx(expected)
        assert results[1] == pytest.approx(expected)  # receiver synchronizes

    def test_nbytes_override(self):
        net = NetworkModel(alpha=0.0, beta=1.0)
        cluster = Cluster(2, network=net)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), 1, nbytes=10_000)
            else:
                comm.recv(0)
            return comm.bytes_sent

        results = cluster.run(fn)
        assert results[0] == 10_000

    def test_receiver_clock_is_max(self):
        """A busy receiver does not go back in time when a message arrives."""
        net = NetworkModel(alpha=1.0, beta=0.0)
        cluster = Cluster(2, network=net)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), 1)  # arrival at t=1
            else:
                comm.advance(100.0)
                comm.recv(0)
            return comm.clock

        results = cluster.run(fn)
        assert results[1] == pytest.approx(100.0)

    def test_max_clock_and_total_bytes(self):
        net = NetworkModel(alpha=0.0, beta=1.0)
        cluster = Cluster(2, network=net)

        def fn(comm):
            peer = 1 - comm.rank
            comm.sendrecv(np.zeros(4, dtype=np.float32), peer)  # 16 bytes each

        cluster.run(fn)
        assert cluster.total_bytes() == 32
        assert cluster.max_clock() >= 16.0


class TestClusterValidation:
    def test_bad_size(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_rank_args_length_checked(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError):
            cluster.run(lambda c: None, rank_args=[()])

    def test_single_rank_runs_inline(self):
        cluster = Cluster(1)
        results = cluster.run(lambda c: c.rank * 10)
        assert results == [0]

    def test_rank_args_distributed(self):
        cluster = Cluster(3)
        results = cluster.run(lambda c, v: v * 2, rank_args=[(1,), (2,), (3,)])
        assert results == [2, 4, 6]
