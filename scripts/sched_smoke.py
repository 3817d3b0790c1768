#!/usr/bin/env python
"""CI smoke test for the multi-tenant scheduler control plane.

Drives a small deterministic trace (tens of jobs, bursty arrivals,
mixed priorities and rigidity) through the :class:`Scheduler` twice and
checks the contracts the control plane must never break:

* every admissible job completes, every oversized one is rejected;
* every rank loan is settled — none outstanding at the horizon;
* the loans policy wastes zero samples (exactly-once across preemption);
* the full metrics payload is byte-stable across independent runs
  (same seed → same JSON), also when the rerun follows an unrelated
  trace in the same process — nothing process-wide (the module walk
  caches, the engine verdicts) leaks from one scheduler into the next;
* the rerun byte-validates no rank-fused engine: every computation it
  runs was validated by the first run, and the process keeps those
  verdicts (``repro.train.trainer._in_process_executor``);
* no ``/dev/shm`` segment survives the run (jobs own real
  ``ElasticTrainer`` instances, so leaked execution state would show
  up here first).

A second tiny trace runs under ``policy="kill"``, between the two
loans runs, to confirm the baseline policy still requeues and
completes.

Usage::

    PYTHONPATH=src python scripts/sched_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.arena import leaked_shared_segments  # noqa: E402
from repro.scheduler import Scheduler, generate_trace  # noqa: E402
from repro.train import FusedRankExecutor  # noqa: E402


def _run_trace(policy: str, n_jobs: int, seed: int):
    specs = generate_trace(n_jobs=n_jobs, pool_size=8, seed=seed)
    with Scheduler(pool_size=8, policy=policy) as sched:
        sched.submit_all(specs)
        return sched.run()


def _counting_validations():
    """Patch that counts the engines' byte validations (the original
    still runs) in its ``call_count``."""
    return mock.patch.object(
        FusedRankExecutor, "_validate", autospec=True,
        side_effect=FusedRankExecutor._validate,
    )


def main() -> int:
    print(f"sched smoke: python {sys.version.split()[0]}")

    before = leaked_shared_segments()

    with _counting_validations() as first:
        a = _run_trace("loans", n_jobs=40, seed=17)  # fresh: first in the process
    kill = _run_trace("kill", n_jobs=16, seed=3)["aggregate"]
    with _counting_validations() as rerun:
        b = _run_trace("loans", n_jobs=40, seed=17)  # right after an unrelated trace
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), (
        "same trace, same seed produced different metrics payloads "
        "after an unrelated trace ran in the same process"
    )
    assert first.call_count > 0, "the first run validated no engine"
    assert rerun.call_count == 0, (
        f"the rerun validated {rerun.call_count} engine(s) the process "
        "had already validated"
    )

    agg = a["aggregate"]
    done = agg["jobs"]["completed"]
    rejected = agg["jobs"]["rejected"]
    assert done + rejected == 40, f"jobs unaccounted for: {agg['jobs']}"
    assert done > 0, "trace completed no jobs"
    for row in a["jobs"]:
        assert row["phase"] in ("completed", "rejected"), (
            f"job {row['name']} stuck in phase {row['phase']}"
        )
    assert agg["loans"]["outstanding"] == 0, (
        f"{agg['loans']['outstanding']} loan(s) never settled"
    )
    assert agg["wasted_samples"] == 0, (
        f"loans policy wasted {agg['wasted_samples']} samples"
    )
    assert 0 < agg["utilization"]["active"] <= 1

    assert kill["jobs"]["completed"] + kill["jobs"]["rejected"] == 16
    assert kill["loans"]["total"] == 0

    leaked = [s for s in leaked_shared_segments() if s not in before]
    assert not leaked, f"leaked /dev/shm segments: {leaked}"

    print(
        f"sched smoke OK: {done} completed / {rejected} rejected, "
        f"{agg['preemptions']} preemptions "
        f"({agg['loans']['shrink']} shrink / {agg['loans']['pause']} pause "
        f"loans, all returned), deterministic payload, "
        f"{first.call_count} engine validations then none, no leaked segments"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
