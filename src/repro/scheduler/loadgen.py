"""Deterministic trace-style load generator.

Produces hundreds-to-thousands of :class:`~repro.scheduler.job.JobSpec`
submissions from one seed: bursty Poisson-like arrivals (exponential
gaps, occasionally carrying a whole burst of jobs at the same instant),
mixed model sizes, rank demands, microbatches, and priority tiers.  The
same seed always yields byte-identical specs — the determinism the
scheduler's same-seed → same-metrics-JSON acceptance test builds on.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import RunConfig

from repro.scheduler.job import JobSpec


def generate_trace(
    n_jobs: int = 200,
    pool_size: int = 8,
    seed: int = 0,
    mean_interarrival: float = 0.008,
    burst_prob: float = 0.12,
    burst_size: Tuple[int, int] = (3, 8),
    sizes: Sequence[int] = (1, 2, 2, 4, 4, 8),
    priorities: Sequence[int] = (0, 0, 0, 0, 0, 0, 0, 1, 1, 2),
    models: Sequence[str] = ("tiny", "tiny", "small", "wide"),
    samples: Sequence[int] = (48, 64, 96),
    epochs: Sequence[int] = (1, 1, 2),
    microbatches: Sequence[int] = (2, 4),
    ops: Sequence[str] = ("adasum", "adasum", "adasum", "sum"),
    rigid_prob: float = 0.15,
) -> List[JobSpec]:
    """A seeded synthetic submission trace.

    Arrivals walk forward by exponential gaps of ``mean_interarrival``
    virtual seconds; with probability ``burst_prob`` an arrival instant
    carries a uniform burst of several jobs at once (a user submitting a
    sweep).  Rank demands are capped at ``pool_size`` so every spec is
    admissible.  With probability ``rigid_prob`` a job is *rigid*
    (``min_ranks == num_ranks``): it can never shrink, so preemption
    must pause it instead — exercising both loan modes.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    rng = np.random.default_rng(seed)
    specs: List[JobSpec] = []
    t = 0.0
    while len(specs) < n_jobs:
        t += float(rng.exponential(mean_interarrival))
        if rng.random() < burst_prob:
            batch = int(rng.integers(burst_size[0], burst_size[1] + 1))
        else:
            batch = 1
        for _ in range(min(batch, n_jobs - len(specs))):
            i = len(specs)
            num_ranks = min(int(rng.choice(list(sizes))), pool_size)
            rigid = bool(rng.random() < rigid_prob)
            config = RunConfig(
                op=str(rng.choice(list(ops))),
                topology="tree",
                num_ranks=num_ranks,
                microbatch=int(rng.choice(list(microbatches))),
                seed=int(rng.integers(0, 2**31 - 1)),
                min_ranks=num_ranks if rigid else 1,
            )
            specs.append(
                JobSpec(
                    name=f"job-{i:04d}",
                    arrival=round(t, 9),
                    config=config,
                    priority=int(rng.choice(list(priorities))),
                    model=str(rng.choice(list(models))),
                    n_samples=int(rng.choice(list(samples))),
                    epochs=int(rng.choice(list(epochs))),
                )
            )
    return specs
