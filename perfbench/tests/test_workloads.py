"""Inputs are a function of the seed and nothing else."""

import pytest

from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    digest = lambda seed: WORKLOADS[name](seed).input_digest()
    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_sched_trace_submits_the_same_work_for_every_seed():
    shape = lambda seed: sorted(
        (s.config.num_ranks, s.config.microbatch, s.config.min_ranks, s.priority,
         s.model, s.n_samples, s.epochs)
        for s in WORKLOADS["sched_trace"](seed).specs
    )
    assert shape(1) == shape(2)
    arrivals = lambda seed: [s.arrival for s in WORKLOADS["sched_trace"](seed).specs]
    assert arrivals(1) == arrivals(2)
