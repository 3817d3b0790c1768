"""Rank loans and pause/resume on the elastic trainer.

The multi-tenant scheduler's preemption hooks: ``lend_ranks`` /
``reclaim_ranks`` (voluntary reversible shrink through the reshard
path) and ``pause`` / ``resume`` (execution layer released, everything
else untouched in memory).  Contracts under test:

* a zero-step lend/reclaim cycle and a pause/resume cycle are both
  bit-identical to never preempting;
* shrink-run-grow cycles preserve exactly-once sample delivery;
* lent ranks' optimizer states survive the loan (post-optimizer mode
  keeps per-rank slots, restored on reclaim by global id);
* the process backend leaks no shared-memory segments through any of
  it, including teardown while paused or shrunk.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import RunConfig
from repro.core.arena import leaked_shared_segments
from repro.models import MLP
from repro.optim import SGD
from repro.elastic import ElasticTrainer
from repro.elastic.membership import Membership
from tests.rank_state import (
    CODEC_STACKS, OPTIMIZERS, assert_same_bytes, dist_state, residual_rows,
    step_record,
)


def _task(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _trainer(x, y, num_ranks=8, microbatch=4, optimizer=None, wire_codecs=(), **kw):
    """``optimizer`` names an entry of ``OPTIMIZERS`` (default: the
    stateless ``SGD(0.3)`` the loan-cycle tests were written against)."""
    model = MLP((6, 16, 2), rng=np.random.default_rng(0))
    factory = OPTIMIZERS[optimizer] if optimizer else (lambda ps: SGD(ps, 0.3))
    config = RunConfig(topology="tree", num_ranks=num_ranks,
                       microbatch=microbatch, wire_codecs=wire_codecs, **kw)
    trainer = ElasticTrainer(model, nn.CrossEntropyLoss(), factory, x, y, config)
    return trainer, model


def _params(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


def _run_steps(tr, steps):
    losses = []
    for _ in range(steps):
        assert tr.iterator.has_next()
        losses.append(tr.train_step())
    return losses


class TestMembershipLoans:
    def test_lend_parks_highest_ids(self):
        m = Membership(8)
        assert m.lend(3) == [5, 6, 7]
        assert list(m) == [0, 1, 2, 3, 4]
        assert m.loaned == [5, 6, 7]

    def test_reclaim_restores_sorted_world(self):
        m = Membership(8)
        m.lend(3)
        assert m.reclaim(2) == [5, 6]
        assert list(m) == [0, 1, 2, 3, 4, 5, 6]
        assert m.loaned == [7]
        assert m.reclaim() == [7]
        assert list(m) == list(range(8))

    def test_cannot_lend_whole_world(self):
        m = Membership(4)
        with pytest.raises(ValueError):
            m.lend(4)

    def test_cannot_reclaim_more_than_loaned(self):
        m = Membership(4)
        m.lend(1)
        with pytest.raises(ValueError):
            m.reclaim(2)

    def test_death_while_loaned_is_permanent(self):
        m = Membership(8)
        m.lend(2)  # ids 6, 7 parked
        m.remove([6])
        assert m.loaned == [7]
        assert m.reclaim() == [7]
        assert 6 not in m


class TestLoanCycleBitExactness:
    def test_zero_step_lend_reclaim_is_bit_identical(self):
        x, y = _task()
        ref, m_ref = _trainer(x, y)
        ref.train_epoch(0)

        tr, m = _trainer(x, y)
        tr.begin_epoch(0)
        _run_steps(tr, 2)
        assert tr.lend_ranks(3) == [5, 6, 7]
        assert tr.num_ranks == 5
        assert tr.reclaim_ranks() == [5, 6, 7]
        assert tr.num_ranks == 8
        while tr.iterator.has_next():
            tr.train_step()

        for name, p in _params(m_ref).items():
            np.testing.assert_array_equal(p, _params(m)[name])

    def test_pause_resume_is_bit_identical(self):
        x, y = _task()
        ref, m_ref = _trainer(x, y)
        ref.train_epoch(0)

        tr, m = _trainer(x, y)
        tr.begin_epoch(0)
        _run_steps(tr, 3)
        tr.pause()
        assert tr.paused
        with pytest.raises(RuntimeError):
            tr.train_step()
        tr.resume()
        assert not tr.paused
        while tr.iterator.has_next():
            tr.train_step()

        for name, p in _params(m_ref).items():
            np.testing.assert_array_equal(p, _params(m)[name])

    def test_pause_is_idempotent(self):
        x, y = _task()
        tr, _ = _trainer(x, y)
        tr.begin_epoch(0)
        tr.pause()
        tr.pause()
        tr.resume()
        tr.resume()
        assert np.isfinite(tr.train_step())
        tr.close()


class TestShrinkRunGrow:
    def test_exactly_once_across_loan(self):
        x, y = _task(n=192)
        tr, _ = _trainer(x, y)
        tr.begin_epoch(0)
        _run_steps(tr, 2)
        tr.lend_ranks(5)
        assert tr.num_ranks == 3
        _run_steps(tr, 3)
        tr.reclaim_ranks()
        assert tr.num_ranks == 8
        while tr.iterator.has_next():
            tr.train_step()
        assert sorted(tr.epoch_visited) == list(range(len(x)))
        kinds = [ev["kind"] for ev in tr.loan_events]
        assert kinds == ["lend", "reclaim"]

    def test_lent_optimizer_state_survives_loan(self):
        # Momentum SGD keeps per-rank velocity slots in post-optimizer
        # mode; a lent rank's slot must come back bit-identical.
        x, y = _task()
        model = MLP((6, 16, 2), rng=np.random.default_rng(0))
        tr = ElasticTrainer(
            model, nn.CrossEntropyLoss(),
            lambda ps: SGD(ps, 0.3, momentum=0.9), x, y,
            RunConfig(topology="tree", num_ranks=8, microbatch=4),
        )
        tr.begin_epoch(0)
        _run_steps(tr, 2)
        from repro.elastic.state import pack_optimizer_state

        stashed = pack_optimizer_state(tr.dist_opt.rank_optimizers[7])
        tr.lend_ranks(2)  # global ids 6, 7 leave
        assert set(tr._loan_stash) == {6, 7}
        _run_steps(tr, 1)
        tr.reclaim_ranks()
        restored = pack_optimizer_state(tr.dist_opt.rank_optimizers[7])
        assert stashed["step_count"] == restored["step_count"]
        assert stashed["state"].keys() == restored["state"].keys()
        for idx, slot in stashed["state"].items():
            for key, arr in slot.items():
                np.testing.assert_array_equal(arr, restored["state"][idx][key])

    def test_lend_respects_min_ranks_floor(self):
        x, y = _task()
        tr, _ = _trainer(x, y, min_ranks=4)
        tr.begin_epoch(0)
        with pytest.raises(ValueError):
            tr.lend_ranks(5)
        tr.lend_ranks(4)
        assert tr.num_ranks == 4
        tr.close()

    def test_cannot_lend_or_reclaim_while_paused(self):
        x, y = _task()
        tr, _ = _trainer(x, y)
        tr.begin_epoch(0)
        tr.pause()
        with pytest.raises(RuntimeError):
            tr.lend_ranks(1)
        with pytest.raises(RuntimeError):
            tr.reclaim_ranks()
        tr.close()


@pytest.mark.parametrize("reduce_mode", ["parent", "workers"])
@pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
class TestWorkerHeldStateAcrossPreemption:
    """Under processes the rank workers hold the live optimizer slots
    and residual rows.  A pause must bring both back (the resumed pool
    is built from the parent's objects), a loan must stash what the
    lent rank's worker held, not a parent copy one step old."""

    def _journey(self, execution, reduce_mode, optimizer, wire_codecs, preempt):
        x, y = _task(n=96)
        kw = {"reduce_mode": reduce_mode} if execution == "processes" else {}
        tr, model = _trainer(x, y, num_ranks=4, optimizer=optimizer,
                             wire_codecs=wire_codecs, execution=execution, **kw)
        seen = []

        def steps(n):
            for loss in _run_steps(tr, n):
                seen.append((loss, *step_record(tr.dist_opt), tr.num_ranks))
        try:
            tr.begin_epoch(0)
            steps(2)
            preempt(tr, steps)
            steps(2)
            return seen, dist_state(model, tr.dist_opt, tr.membership)
        finally:
            tr.close()

    def _check(self, reduce_mode, optimizer, wire_codecs, preempt):
        ref = self._journey("serial", "parent", optimizer, wire_codecs, preempt)
        got = self._journey("processes", reduce_mode, optimizer, wire_codecs, preempt)
        assert_same_bytes(ref, got)

    def test_pause_resume(self, reduce_mode, optimizer, wire_codecs):
        held = []

        def preempt(tr, steps):
            tr.pause()
            # What the parent holds while paused is the whole truth.
            held.append((dist_state(tr.model, tr.dist_opt, tr.membership),
                         residual_rows(tr.dist_opt)))
            tr.resume()
        self._check(reduce_mode, optimizer, wire_codecs, preempt)
        assert_same_bytes(*held, "state held while paused")

    def test_lend_two_steps_reclaim(self, reduce_mode, optimizer, wire_codecs):
        def preempt(tr, steps):
            assert tr.lend_ranks(1) == [3]
            steps(2)
            assert tr.reclaim_ranks() == [3]
        self._check(reduce_mode, optimizer, wire_codecs, preempt)


class TestProcessBackendLoans:
    def test_loan_and_pause_cycle_leak_free(self):
        x, y = _task(n=96)
        tr, _ = _trainer(x, y, num_ranks=4, execution="processes")
        tr.begin_epoch(0)
        _run_steps(tr, 1)
        tr.lend_ranks(2)
        _run_steps(tr, 1)
        tr.pause()        # preempted mid-epoch while shrunk
        assert leaked_shared_segments() == []
        tr.resume()
        tr.reclaim_ranks()
        while tr.iterator.has_next():
            tr.train_step()
        assert sorted(tr.epoch_visited) == list(range(len(x)))
        tr.close()
        assert leaked_shared_segments() == []

    def test_teardown_mid_step_leaks_nothing(self):
        # A scheduler preemption can close a job whose pool was built
        # but whose step never ran; teardown must still sweep clean.
        x, y = _task(n=64)
        tr, _ = _trainer(x, y, num_ranks=4, execution="processes")
        tr.begin_epoch(0)
        tr.close()
        assert leaked_shared_segments() == []
