#!/usr/bin/env python
"""Tier-2 fault-injection smoke run with a hard wall-clock budget.

Runs the ``faults``-marked pytest suite (hang detection + fault
injection) as a subprocess and kills it if it exceeds the budget —
the suite exercises deliberately-hung ranks, so a regression in hang
detection would otherwise stall CI instead of failing it.  A second
phase then runs the elastic kill -> recover -> converge scenario
end-to-end, once over raw fp32 and once under an error-feedback codec
stack (``fp16,int8``): ranks are killed mid-epoch, the supervisor must
evict them, re-shard, finish every epoch at the full sample budget, and
land within a loss tolerance of the failure-free run under the same
stack.

Usage::

    python scripts/fault_smoke.py            # default 120 s budget
    FAULT_SMOKE_BUDGET=60 python scripts/fault_smoke.py

Exit codes: 0 = all passed, 1 = suite or scenario failed,
2 = budget exceeded.
"""

import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BUDGET_S = 120.0

# Inline so the subprocess needs nothing but PYTHONPATH; asserts are the
# contract (any failure -> nonzero exit).
ELASTIC_SCENARIO = """
import numpy as np
from repro import nn
from repro.core import RunConfig
from repro.models import MLP
from repro.optim import SGD
from repro.elastic import ElasticSchedule, ElasticTrainer

rng = np.random.default_rng(0)
x = rng.standard_normal((320, 8)).astype(np.float32)
y = (x @ rng.standard_normal((8, 3))).argmax(axis=1)

def run(schedule, wire_codecs):
    model = MLP((8, 24, 3), rng=np.random.default_rng(0))
    config = RunConfig(op="adasum", topology="tree", num_ranks=8,
                       microbatch=4, seed=0, faults=schedule,
                       wire_codecs=wire_codecs)
    tr = ElasticTrainer(model, nn.CrossEntropyLoss(),
                        lambda ps: SGD(ps, lr=0.25), x, y, config)
    losses = []
    for epoch in range(3):
        losses.append(tr.train_epoch(epoch))
        assert sorted(tr.epoch_visited) == list(range(len(x))), (
            "samples dropped or duplicated after recovery")
    return tr, losses

# Raw fp32, then an error-feedback stack whose residuals a rebuild resets.
for wire_codecs in ((), ("fp16", "int8")):
    label = ",".join(wire_codecs) or "fp32"
    clean, clean_losses = run(None, wire_codecs)
    sched = ElasticSchedule().kill(2, 3).kill(12, 0).kill(12, 6)
    faulty, faulty_losses = run(sched, wire_codecs)

    assert faulty.num_ranks == 5, faulty.num_ranks
    assert len(faulty.recoveries) == 2, faulty.recoveries
    assert faulty.recovery_seconds, "recovery overhead not recorded"
    assert faulty_losses[-1] < faulty_losses[0], f"{label} kill run did not converge"
    gap = abs(faulty_losses[-1] - clean_losses[-1])
    assert gap < 0.1, f"{label}: final loss gap {gap:.4f} vs failure-free run"
    print(f"elastic scenario ({label} wire): 8 -> 7 -> 5 ranks, final loss "
          f"{faulty_losses[-1]:.4f} (failure-free {clean_losses[-1]:.4f}, "
          f"gap {gap:.4f}), max recovery "
          f"{max(faulty.recovery_seconds) * 1e3:.1f} ms")
"""


def main() -> int:
    budget = float(os.environ.get("FAULT_SMOKE_BUDGET", DEFAULT_BUDGET_S))
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + os.pathsep + existing if existing else src

    cmd = [sys.executable, "-m", "pytest", "-m", "faults", "-q", "tests"]
    print(f"fault smoke: {' '.join(cmd)} (budget {budget:g}s)")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"fault smoke: BUDGET EXCEEDED after {budget:g}s — "
              "a hang-detection regression is likely", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    status = "passed" if proc.returncode == 0 else "FAILED"
    print(f"fault smoke: {status} in {elapsed:.1f}s "
          f"(budget {budget:g}s, exit {proc.returncode})")
    if proc.returncode != 0:
        return 1

    remaining = max(10.0, budget - elapsed)
    print(f"fault smoke: elastic kill -> recover -> converge scenario "
          f"(budget {remaining:g}s)")
    try:
        proc = subprocess.run([sys.executable, "-c", ELASTIC_SCENARIO],
                              cwd=REPO_ROOT, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        print("fault smoke: elastic scenario BUDGET EXCEEDED — recovery "
              "is likely hanging instead of failing", file=sys.stderr)
        return 2
    total = time.monotonic() - start
    status = "passed" if proc.returncode == 0 else "FAILED"
    print(f"fault smoke: elastic scenario {status} "
          f"(total {total:.1f}s, exit {proc.returncode})")
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
