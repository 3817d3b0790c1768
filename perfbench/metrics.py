"""End-to-end metric definitions and how child records become metrics.

:data:`END_TO_END` is the one table of end-to-end metrics: unit,
direction, regression bound and the workloads a metric exists on.  The
five that exist on every workload are the ones ``BENCHMARK.json`` lists
(a driver needs every metric from every workload); ``compare`` gates
all of them wherever they exist.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from perfbench.estimator import half_gap, percentile, quiet_cost

TRAINERS = ("lenet_tta", "bert_procs_codec", "bert_overlap")
ALL = TRAINERS + ("elastic_faults", "sched_trace")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str               # "lower" | "higher"
    bound: float              # share of the base it may worsen by
    workloads: Tuple[str, ...] = ALL
    exact: bool = False       # a count that repeats bit for bit for a seed

    @property
    def universal(self) -> bool:
        return self.workloads == ALL


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("samples_per_s", "1/s", "higher", 0.25),
    Metric("time_to_target_s", "s", "lower", 0.25),
    Metric("steps_to_target", "steps", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("algo_efficiency", "ratio", "higher", 0.0, ("lenet_tta",), exact=True),
    Metric("wire_bytes_per_step", "B", "lower", 0.0,
           TRAINERS + ("elastic_faults",), exact=True),
    Metric("failed_share", "ratio", "lower", 0.0, exact=True),
    Metric("recovery_ms_p50", "ms", "lower", 0.25, ("elastic_faults",)),
    Metric("jobs_per_s", "1/s", "higher", 0.25, ("sched_trace",)),
    Metric("virtual_goodput", "samples/vs", "higher", 0.0, ("sched_trace",), exact=True),
)

#: Goals the lead must reach, and the only ones ``steps_to_target`` is
#: the median of: how many more fit into the budget depends on the
#: host, and an exact count must not.
LEAD_GOALS = 6

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}

#: What a driver gates: defined and never zero on every workload.
DRIVER_GATED: Tuple[Metric, ...] = tuple(
    m for m in END_TO_END if m.universal and m.name != "failed_share"
)


def end_to_end(workload: str, children: Sequence[Dict], setups: Sequence[Dict] = ()) -> Dict:
    """Metrics of one workload from the records of its child processes
    (``setups``: the processes that only set up).

    Returns ``{"metrics": {name: value}, "spread": {name: half gap},
    "raw": {...}}``.  Timing metrics use the best decile of the
    host-normalised block cost pooled over the children; counts use the
    median over reached goals.
    """
    blocks = [b for c in children for b in c["blocks"]]
    factors = [b["factor"] for b in blocks]
    per_sample = [b["wall_s"] / b["samples"] for b in blocks]
    per_step = [b["wall_s"] / b["steps"] for b in blocks]
    # Replicas repeat the lead's first goal (that is their job), so only
    # the lead's goals are independent draws.
    goals = children[0]["goal_steps"][:LEAD_GOALS]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    exact: Dict[str, float] = {}
    for c in children:
        exact.update(c["exact"])

    metrics: Dict[str, Optional[float]] = {
        "setup_s": statistics.median(c["setup_s"] for c in (*children, *setups)),
        "samples_per_s": 1.0 / quiet_cost(per_sample, factors),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "failed_share": failed / attempted,
    }
    spread = {"samples_per_s": half_gap(per_sample, factors)}
    step_cost = quiet_cost(per_step, factors)
    if goals:
        metrics["steps_to_target"] = statistics.median(goals)
        metrics["time_to_target_s"] = metrics["steps_to_target"] * step_cost
        spread["time_to_target_s"] = half_gap(per_step, factors)
    else:  # a smoke run stops before any goal
        metrics["steps_to_target"] = metrics["time_to_target_s"] = None
    if "jobs" in exact:  # a block is one drained trace of that many jobs
        walls = [b["wall_s"] for b in blocks]
        metrics["jobs_per_s"] = exact["jobs"] / quiet_cost(walls, factors)
        spread["jobs_per_s"] = half_gap(walls, factors)
    recoveries = [ms for c in children for ms in c["recovery_ms"]]
    if recoveries:
        metrics["recovery_ms_p50"] = statistics.median(recoveries)
        half = len(recoveries) // 2
        a, b = statistics.median(recoveries[:half]), statistics.median(recoveries[half:])
        spread["recovery_ms_p50"] = abs(a - b) / min(a, b)
    for name in ("algo_efficiency", "wire_bytes_per_step", "virtual_goodput"):
        if name in exact:
            metrics[name] = exact[name]
    wanted = [m.name for m in END_TO_END if workload in m.workloads]
    return {
        "metrics": {n: metrics.get(n) for n in wanted},
        "spread": spread,
        "raw": {
            "blocks": len(blocks),
            "goals": goals,
            "block_wall_s_p50": percentile([b["wall_s"] for b in blocks], 50),
            "host_factor_p50": percentile(factors, 50),
            "step_ms_quiet": step_cost * 1e3,
            "setup_s": [c["setup_s"] for c in (*children, *setups)],
            "setup_raw_s": [c["setup_raw_s"] for c in (*children, *setups)],
            "measured_s": [c["measured_s"] for c in children],
            "attempted": attempted,
            "failed": failed,
        },
    }
