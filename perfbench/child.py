"""One workload measured in one fresh process.

``python -m perfbench child ...`` is what the runner spawns: it sets the
workload up (timed from the moment the runner launched the process),
runs blocks bracketed by canary readings for the given number of
seconds, runs the end-of-run checks and prints one JSON document.

The load is a closed loop driven by this one process: the next step is
issued when the previous one has committed, which is what a training
loop is.  Rank workers the *program* forks are the program's own.
"""

from __future__ import annotations

import json
import os
import resource
import time
import warnings
from typing import Dict, List, Optional

from perfbench import layers, spans
from perfbench.estimator import Canary, canary_summary, host_factor, percentile, quiet_cost


def _kernel_cache_counts() -> Dict[str, int]:
    from repro.tensor import kernel_cache_stats

    stats = kernel_cache_stats()
    caches = [stats[k] for k in ("im2col_indices", "einsum_path", "einsum_plan")]
    return {
        "hits": sum(c["hits"] for c in caches),
        "misses": sum(c["misses"] for c in caches),
    }


def _own_leaked_segments() -> List[str]:
    """Shared-memory segments this process created and left in /dev/shm."""
    from repro.core.arena import SHM_PREFIX, leaked_shared_segments

    mine = f"{SHM_PREFIX}-{os.getpid()}-"
    return [name for name in leaked_shared_segments() if name.startswith(mine)]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    launched_at: float,
    trace: bool = False,
    smoke: bool = False,
    oracle: bool = False,
    trace_out: Optional[str] = None,
    setup_only: bool = False,
    goals: int = 1,
) -> Dict:
    """Run one workload in this process; returns the child record.

    Blocks run until ``seconds`` have passed *and* ``goals`` goals are
    reached (or an episode failed).  ``setup_only`` stops after set-up:
    one more sample of ``setup_s`` for the price of half a second.
    """
    from perfbench.workloads import WORKLOADS

    cpus = WORKLOADS[workload].cpus
    if cpus is not None:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-cpus:])
    canary = Canary()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        w = WORKLOADS[workload](seed, smoke=smoke)
        w.setup()
        setup_raw_s = time.time() - launched_at

        blocks: List[Dict] = []
        tracer: Optional[spans.Tracer] = None
        saved: list = []
        unmeasured: List[str] = []
        cache_before: Dict[str, int] = {}
        # A traced run spends its first quarter untraced, so that the
        # tracing overhead is measured inside the same process.
        untraced_for = seconds / 4 if trace else seconds
        before_ms = canary.read()
        # Set-up is host-normalised like every other time, by the canary
        # reading taken the moment it ends.
        setup_s = setup_raw_s / host_factor(before_ms, before_ms)
        if setup_only:
            w.close()
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        began = time.perf_counter()
        try:
            while True:
                elapsed = time.perf_counter() - began
                if trace and tracer is None and (
                    (elapsed >= untraced_for and len(blocks) >= 2) or (smoke and blocks)
                ):
                    tracer = spans.Tracer()
                    saved, unmeasured = spans.install(tracer, layers.BOUNDARIES)
                    w.begin_traced(tracer)
                    cache_before = _kernel_cache_counts()
                block = w.block(len(blocks))
                after_ms = canary.read()
                blocks.append({
                    "wall_s": block.wall_s,
                    "steps": block.steps,
                    "samples": block.samples,
                    "factor": host_factor(before_ms, after_ms),
                    "traced": tracer is not None,
                })
                before_ms = after_ms
                elapsed = time.perf_counter() - began
                enough = smoke or (
                    elapsed >= seconds and (len(w.goal_steps) >= goals or w.failed)
                )
                if enough and (not trace or blocks[-1]["traced"]):
                    break
            cache_after = _kernel_cache_counts() if tracer is not None else {}
        finally:
            spans.restore(saved)
        measured_s = time.perf_counter() - began
        finished = w.finish(oracle=oracle)
        leaked = _own_leaked_segments()
        w.check("no_leaked_shared_segments", not leaked)
    deprecations = [str(c.message) for c in caught if issubclass(c.category, DeprecationWarning)]
    w.check("no_deprecation_warning", not deprecations)

    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "measured_s": measured_s,
        "blocks": blocks,
        "goal_steps": w.goal_steps,
        "exact": finished["exact"],
        "checks": w.checks,
        "attempted": w.attempted,
        "failed": w.failed,
        "fingerprint": w.fingerprint(),
        "input_digest": w.input_digest(),
        "peak_rss_mb": rss_kib / 1024.0,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "recovery_ms": _recovery_ms(w, blocks),
        "canary": canary_summary(canary.readings_ms),
        "deprecations": deprecations,
        "leaked_segments": leaked,
    }
    if tracer is not None:
        counters = dict(finished["counters"])
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        counters["tensor.kernel_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        counters["trace.unmeasured"] = float(len(unmeasured))
        counters["trace.overhead_pct"] = _overhead_pct(blocks)
        recoveries = record["recovery_ms"]
        counters["elastic.recovery_ms_p90"] = percentile(recoveries, 90) if recoveries else 0.0
        traced_steps = sum(b["steps"] for b in blocks if b["traced"])
        record["per_layer"] = layers.per_layer(tracer.spans, traced_steps, counters)
        record["share"] = layers.self_time_share(tracer.spans)
        record["traced_step_ms_quiet"] = _step_cost(blocks, True) * 1e3
        record["unmeasured"] = unmeasured
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump(spans.chrome_trace(tracer.spans), fh)
    return record


def _recovery_ms(w, blocks: List[Dict]) -> List[float]:
    """Host-normalised recovery latencies (``elastic_faults`` only)."""
    return [
        s * 1e3 / b["factor"] for b, secs in zip(blocks, w.recovery_s) for s in secs
    ]


def _step_cost(blocks: List[Dict], traced: bool) -> Optional[float]:
    picked = [b for b in blocks if b["traced"] is traced]
    if not picked:
        return None
    return quiet_cost([b["wall_s"] / b["steps"] for b in picked],
                      [b["factor"] for b in picked])


def _overhead_pct(blocks: List[Dict]) -> float:
    """Traced vs untraced quiet cost per step, inside this one process
    (few untraced blocks, so noisy; the runner has the better number
    whenever it also ran the untraced measurement)."""
    plain, traced = _step_cost(blocks, False), _step_cost(blocks, True)
    if plain is None or traced is None:
        return 0.0
    return (traced / plain - 1.0) * 100.0
