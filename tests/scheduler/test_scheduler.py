"""End-to-end control-plane behaviour: admission, preemption, loans.

The acceptance scenario lives in ``TestPreemptionBitExactness``: a
high-priority arrival preempts a running job via a rank loan, the
victim resumes at full width, and its final loss is bit-identical to an
uninterrupted run at the same sample budget.
"""

import json

import pytest

from repro.core.arena import leaked_shared_segments
from repro.core.config import RunConfig
from repro.scheduler import (
    JobSpec,
    Scheduler,
    StepCostModel,
    generate_trace,
)


def _spec(name, arrival, *, priority=0, ranks=4, min_ranks=1, microbatch=2,
          samples=64, epochs=1, seed=42, model="tiny", op="adasum"):
    return JobSpec(
        name=name,
        arrival=arrival,
        priority=priority,
        model=model,
        n_samples=samples,
        epochs=epochs,
        config=RunConfig(
            op=op, topology="tree", num_ranks=ranks,
            microbatch=microbatch, seed=seed, min_ranks=min_ranks,
        ),
    )


def _job_row(payload, name):
    return next(row for row in payload["jobs"] if row["name"] == name)


class TestSingleJob:
    def test_runs_to_completion(self):
        with Scheduler(pool_size=4) as sched:
            sched.submit(_spec("solo", 0.0))
            payload = sched.run()
        row = _job_row(payload, "solo")
        assert row["phase"] == "completed"
        assert row["samples"] == 64
        assert row["queue_delay"] == 0.0
        assert payload["aggregate"]["jobs"]["completed"] == 1

    def test_oversized_job_rejected(self):
        with Scheduler(pool_size=2) as sched:
            sched.submit(_spec("huge", 0.0, ranks=4))
            payload = sched.run()
        row = _job_row(payload, "huge")
        assert row["phase"] == "rejected"
        assert "pool" in row["reject_reason"]

    def test_jobs_queue_when_pool_full(self):
        with Scheduler(pool_size=4) as sched:
            sched.submit(_spec("first", 0.0, ranks=4))
            sched.submit(_spec("second", 0.0, ranks=4, seed=5))
            payload = sched.run()
        first, second = _job_row(payload, "first"), _job_row(payload, "second")
        assert first["queue_delay"] == 0.0
        assert second["queue_delay"] > 0.0
        assert second["first_admit"] >= first["finish"]


class TestPreemptionBitExactness:
    def test_pause_loan_victim_resumes_bit_identical(self):
        # Rigid victim (min_ranks == num_ranks) cannot shrink, so the
        # high-priority arrival forces a pause loan; after the loan
        # returns the victim finishes at full width with a final loss
        # bit-identical to running uninterrupted.
        victim = _spec("victim", 0.0, ranks=4, min_ranks=4, epochs=2)
        urgent = _spec("urgent", 0.004, priority=2, ranks=2, samples=48, seed=7)

        with Scheduler(pool_size=4) as sched:
            sched.submit(victim)
            sched.submit(urgent)
            interrupted = sched.run()
        with Scheduler(pool_size=4) as sched:
            sched.submit(victim)
            solo = sched.run()

        agg = interrupted["aggregate"]
        assert agg["loans"]["pause"] == 1
        assert agg["loans"]["outstanding"] == 0
        assert agg["loans"]["returned_to_lender"] == 1
        row = _job_row(interrupted, "victim")
        ref = _job_row(solo, "victim")
        assert row["preemptions"] == 1
        assert row["samples"] == ref["samples"] == 128
        assert row["final_loss"] == ref["final_loss"]
        # The urgent job barely waited; the victim paid the delay.
        assert _job_row(interrupted, "urgent")["queue_delay"] < 0.01

    def test_shrink_loan_preserves_exactly_once(self):
        victim = _spec("soft", 0.0, ranks=4, samples=96, seed=5)
        urgent = _spec("urgent", 0.004, priority=2, ranks=2, samples=48, seed=7)
        with Scheduler(pool_size=4) as sched:
            sched.submit(victim)
            sched.submit(urgent)
            payload = sched.run()
        agg = payload["aggregate"]
        assert agg["loans"]["shrink"] >= 1
        assert agg["loans"]["outstanding"] == 0
        row = _job_row(payload, "soft")
        # Exactly-once across the shrink/grow cycle: full budget, no waste.
        assert row["samples"] == 96
        assert row["wasted_samples"] == 0
        assert row["phase"] == "completed"

    def test_equal_priority_never_preempts(self):
        with Scheduler(pool_size=4) as sched:
            sched.submit(_spec("a", 0.0, ranks=4))
            sched.submit(_spec("b", 0.004, ranks=2, seed=9))
            payload = sched.run()
        assert payload["aggregate"]["preemptions"] == 0
        assert payload["aggregate"]["loans"]["total"] == 0


class TestKillPolicy:
    def test_kill_requeues_and_wastes_progress(self):
        victim = _spec("victim", 0.0, ranks=4, epochs=2)
        urgent = _spec("urgent", 0.004, priority=2, ranks=2, samples=48, seed=7)
        with Scheduler(pool_size=4, policy="kill") as sched:
            sched.submit(victim)
            sched.submit(urgent)
            payload = sched.run()
        row = _job_row(payload, "victim")
        assert row["kills"] == 1
        assert row["wasted_samples"] > 0
        assert row["phase"] == "completed"
        assert row["samples"] == 128  # full budget after the restart
        assert payload["aggregate"]["loans"]["total"] == 0

    def test_none_policy_makes_urgent_wait(self):
        victim = _spec("victim", 0.0, ranks=4, epochs=2)
        urgent = _spec("urgent", 0.004, priority=2, ranks=2, samples=48, seed=7)
        with Scheduler(pool_size=4, policy="none") as sched:
            sched.submit(victim)
            sched.submit(urgent)
            payload = sched.run()
        assert payload["aggregate"]["preemptions"] == 0
        row = _job_row(payload, "urgent")
        assert row["first_admit"] >= _job_row(payload, "victim")["finish"]


class TestTraceRuns:
    def test_trace_completes_deterministically(self):
        # The acceptance trace at test scale: every job completes, no
        # loans outstanding, and the full metrics JSON is byte-stable
        # across two independent runs.
        def run():
            specs = generate_trace(n_jobs=60, pool_size=8, seed=11)
            with Scheduler(pool_size=8, policy="loans") as sched:
                sched.submit_all(specs)
                return sched.run()

        a, b = run(), run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        agg = a["aggregate"]
        assert agg["jobs"]["completed"] + agg["jobs"]["rejected"] == 60
        assert agg["loans"]["outstanding"] == 0
        assert agg["wasted_samples"] == 0
        assert leaked_shared_segments() == []

    def test_priority_tiers_order_queue_delay(self):
        specs = generate_trace(n_jobs=120, pool_size=8, seed=0)
        with Scheduler(pool_size=8, policy="loans") as sched:
            sched.submit_all(specs)
            payload = sched.run()
        tiers = payload["aggregate"]["queue_delay"]["mean_by_tier"]
        assert set(tiers) >= {"0", "2"}
        assert tiers["2"] < tiers["0"]

    def test_utilization_and_goodput_are_positive(self):
        specs = generate_trace(n_jobs=40, pool_size=8, seed=2)
        with Scheduler(pool_size=8) as sched:
            sched.submit_all(specs)
            payload = sched.run()
        agg = payload["aggregate"]
        assert 0 < agg["utilization"]["active"] <= 1
        assert agg["utilization"]["allocated"] >= agg["utilization"]["active"]
        assert agg["goodput_samples_per_sec"] > 0

    def test_duplicate_name_rejected(self):
        with Scheduler(pool_size=4) as sched:
            sched.submit(_spec("dup", 0.0))
            with pytest.raises(ValueError):
                sched.submit(_spec("dup", 0.1))
            sched.run()


class TestStepCostModel:
    def test_wider_world_costs_more_comm(self):
        cost = StepCostModel()
        assert cost.step_seconds(8, 2, 1.0) > cost.step_seconds(2, 2, 1.0)
        assert cost.step_seconds(1, 2, 1.0) < cost.step_seconds(2, 2, 1.0)

    def test_scale_multiplies_compute(self):
        cost = StepCostModel()
        assert cost.step_seconds(4, 2, 3.0) > cost.step_seconds(4, 2, 1.0)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            StepCostModel().step_seconds(0, 2, 1.0)


class TestValidateForPool:
    def test_min_ranks_above_width_rejected(self):
        cfg = RunConfig(num_ranks=2, min_ranks=4)
        with pytest.raises(ValueError):
            cfg.validate_for_pool(8)

    @pytest.mark.parametrize("field", [{"topology": "rvh"}, {"overlap": True}])
    def test_what_the_elastic_trainer_rejects_is_rejected_at_submission(self, field):
        with pytest.raises(ValueError, match=next(iter(field))):
            RunConfig(num_ranks=4, **field).validate_for_pool(8)

    def test_valid_config_chains(self):
        cfg = RunConfig(topology="tree", num_ranks=4)
        assert cfg.validate_for_pool(8) is cfg
