"""The canary-normalised best-decile estimator."""

import random
import statistics

from perfbench.estimator import (
    CANARY_REF_MS, half_gap, host_factor, percentile, quiet_cost,
)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([10, 20], 10) == 11
    assert percentile([7], 10) == 7


def test_quiet_cost_recovers_the_quiet_mode_of_bimodal_data():
    # A host that runs at full speed 40 % of the time and 35 % slower in
    # stretches for the rest: the raw median lands in the slow mode.
    rng = random.Random(0)
    true_cost = 0.010
    walls, factors = [], []
    for i in range(120):
        slow = (i // 12) % 5 in (0, 2, 3)     # stretches of 12 blocks
        speed = 1.35 if slow else 1.0
        walls.append(true_cost * speed * rng.gauss(1.0, 0.01))
        canary_ms = CANARY_REF_MS * speed
        factors.append(host_factor(canary_ms * rng.gauss(1.0, 0.015),
                                   canary_ms * rng.gauss(1.0, 0.015)))
    assert abs(statistics.median(walls) / true_cost - 1.0) > 0.10
    assert abs(quiet_cost(walls, factors) / true_cost - 1.0) < 0.03
    assert half_gap(walls, factors) < 0.03
