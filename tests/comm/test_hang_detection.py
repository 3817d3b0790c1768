"""Hang-detection tests: a stuck rank is a loud, named failure.

The contract under test: ``Cluster.run`` NEVER returns a partial result
list.  A rank blocked on ``recv`` past the shared deadline — or a
thread that never exits — surfaces as a ``CommError`` naming every
stuck rank, its blocking op, its peer, and its simulated clock.
"""

import time

import numpy as np
import pytest

from repro.comm import Cluster, CommError, CommTimeoutError, GroupComm

pytestmark = pytest.mark.faults


class TestRecvHangs:
    def test_mutual_recv_deadlock_names_both_ranks(self):
        cluster = Cluster(2, timeout=0.5)

        def fn(comm):
            comm.recv(1 - comm.rank)  # nobody ever sends

        with pytest.raises(CommError) as info:
            cluster.run(fn)
        msg = str(info.value)
        assert "rank 0" in msg and "rank 1" in msg
        assert "recv" in msg

    def test_recv_timeout_is_diagnostic(self):
        """The timeout names the receiver, the expected source, and the
        rank's simulated clock — not an opaque Empty()."""
        cluster = Cluster(2, timeout=0.4)

        def fn(comm):
            if comm.rank == 1:
                comm.advance(12.5)
                comm.recv(0)

        with pytest.raises(CommError) as info:
            cluster.run(fn)
        msg = str(info.value)
        assert "Empty()" not in msg
        assert "rank 1" in msg            # the receiver
        assert "from rank 0" in msg       # the expected source
        assert "12.5" in msg              # the simulated clock
        assert isinstance(info.value.__cause__, CommTimeoutError)

    def test_no_partial_results_on_hang(self):
        """A hang produces an exception, never a list with None holes."""
        cluster = Cluster(3, timeout=0.4)

        def fn(comm):
            if comm.rank == 2:
                comm.recv(0)  # never satisfied
            return comm.rank

        with pytest.raises(CommError):
            cluster.run(fn)


class TestAbortPropagation:
    def test_peer_failure_unblocks_waiters_promptly(self):
        """A crash on one rank frees blocked peers well before the
        deadline, with the crash identified as the cause."""
        cluster = Cluster(4, timeout=30.0)

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.recv(0)

        start = time.monotonic()
        with pytest.raises(CommError) as info:
            cluster.run(fn)
        assert time.monotonic() - start < 5.0  # not the 30 s deadline
        msg = str(info.value)
        assert "rank 0 failed" in msg
        assert "aborted" in msg  # waiters report why they were woken


class TestUserCodeHangs:
    def test_unjoined_thread_is_an_error(self):
        """A rank hung outside comm ops (plain sleep) still fails loudly."""
        cluster = Cluster(2, timeout=0.3)

        def fn(comm):
            if comm.rank == 1:
                time.sleep(2.5)
            return comm.rank

        with pytest.raises(CommError, match="never exited"):
            cluster.run(fn)


class TestGenerationIsolation:
    def test_cluster_reusable_after_timeout(self):
        """A timed-out run must not poison the next one."""
        cluster = Cluster(2, timeout=0.3)

        def deadlock(comm):
            comm.recv(1 - comm.rank)

        with pytest.raises(CommError):
            cluster.run(deadlock)
        results = cluster.run(lambda c: c.rank + 10)
        assert results == [10, 11]

    def test_stale_thread_cannot_touch_new_run(self):
        """A daemon thread left sleeping by a timed-out run wakes into a
        newer generation: its sends are discarded, and the new run's
        message flow is undisturbed."""
        cluster = Cluster(2, timeout=0.4)

        def hang_then_send(comm):
            if comm.rank == 1:
                time.sleep(1.2)  # outlives the run
                comm.send(np.array([-1.0]), 0)  # stale: must be discarded
            return comm.rank

        with pytest.raises(CommError, match="never exited"):
            cluster.run(hang_then_send)

        def ping(comm):
            if comm.rank == 1:
                comm.send(np.array([7.0]), 0)
                return None
            return float(comm.recv(1)[0])

        # Run repeatedly across the stale thread's wake-up window; the
        # receiver must only ever see the new run's payload.
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline:
            results = cluster.run(ping)
            assert results[0] == 7.0


class TestGroupCommPassthroughs:
    def test_cost_counters_visible_through_group(self):
        cluster = Cluster(4)

        def fn(comm):
            if comm.rank in (0, 2):
                sub = GroupComm(comm, [0, 2])
                sub.sendrecv(np.zeros(4, dtype=np.float32), 1 - sub.rank)
                return (sub.bytes_sent, sub.messages_sent)
            return (0, 0)

        results = cluster.run(fn)
        assert results[0] == (16, 1)
        assert results[2] == (16, 1)
