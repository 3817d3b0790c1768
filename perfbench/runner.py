"""Orchestration: fresh child processes per workload, pooled into a record.

An untraced measurement of one workload is five fresh processes run
one after the other: the *lead* measures blocks for the whole budget,
two *replicas* set up and reach one goal each, two more only set up.
That gives five set-up times (the metric is their median; a fresh
process' first touch of ~60 MB takes 0.2 s or 0.5 s depending on the
host's mood), lets the first goal's outputs be compared across
processes (same seed, same bits), and gives the replicas room for the
end-of-run checks (the serial-phased oracle, the paired 1-rank
baseline) without lengthening the lead.  A traced measurement is one
more process.  End-to-end metrics always come from the untraced
processes.
"""

from __future__ import annotations

import compileall
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from perfbench import env, layers, metrics
from perfbench.estimator import CANARY_REF_MS, NOISY_RATIO, percentile

SCHEMA = "perfbench-record-v1"
REPLICAS = 2
SETUP_ONLY = 2
#: Ceiling for one child; the slowest (lead of ``bert_procs_codec``) takes ~20 s.
CHILD_TIMEOUT_S = 150.0
WORKLOAD_NAMES = metrics.ALL


class ChildFailed(RuntimeError):
    """A child process exited non-zero, timed out or printed no record."""


def build() -> None:
    """Byte-compile the program and the benchmark (a fresh checkout has no
    ``__pycache__``; without this the first child's set-up pays for it)."""
    for tree in (env.ROOT / "src", env.ROOT / "perfbench"):
        compileall.compile_dir(str(tree), quiet=2)


def spawn(workload: str, seed: int, seconds: float, **flags) -> Dict:
    """Run one child to completion and return its record.

    ``flags``: ``trace``, ``smoke``, ``oracle``, ``setup_only`` (bools),
    ``goals`` (how many goals to reach at least) and ``trace_out`` (path).  The child gets its own process group so a
    timeout also stops the rank workers it forked.
    """
    cmd = [
        sys.executable, "-m", "perfbench", "child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
    ]
    for flag in ("trace", "smoke", "oracle", "setup_only"):
        if flags.get(flag):
            cmd.append(f"--{flag.replace('_', '-')}")
    if flags.get("trace_out"):
        cmd += ["--trace-out", str(flags["trace_out"])]
    if flags.get("goals"):
        cmd += ["--goals", str(flags["goals"])]
    cmd += ["--launched-at", repr(time.time())]
    proc = subprocess.Popen(
        cmd, cwd=env.ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(
            f"{workload}: child exited {proc.returncode}\n{err[-4000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def measure_untraced(workload: str, seed: int, seconds: float, smoke: bool = False) -> Dict:
    """Lead + replicas; returns the workload's end-to-end section."""
    children = [spawn(workload, seed, seconds, smoke=smoke, goals=metrics.LEAD_GOALS)]
    setups: List[Dict] = []
    if not smoke:
        for i in range(REPLICAS):
            children.append(spawn(workload, seed, 0.0, oracle=i == 0))
        setups = [spawn(workload, seed, 0.0, setup_only=True) for _ in range(SETUP_ONLY)]
    section = metrics.end_to_end(workload, children, setups)
    checks: Dict[str, bool] = {}
    for child in children:
        for name, ok in child["checks"].items():
            checks[name] = checks.get(name, True) and ok
    repeats = len({(c["fingerprint"], c["input_digest"]) for c in children}) == 1
    checks["same_outputs_in_every_process"] = repeats
    section["raw"]["attempted"] += 1
    section["raw"]["failed"] += not repeats
    section["checks"] = checks
    section["children"] = [
        {k: c[k] for k in ("setup_s", "setup_raw_s", "measured_s", "peak_rss_mb", "canary", "cpu_affinity",
                           "deprecations", "leaked_segments", "goal_steps")}
        for c in children
    ]
    return section


def measure_traced(
    workload: str, seed: int, seconds: float, smoke: bool = False,
    trace_out: Optional[str] = None,
) -> Dict:
    """One traced child; returns the workload's per-layer section."""
    child = spawn(workload, seed, seconds, trace=True, smoke=smoke, trace_out=trace_out)
    return {
        "per_layer": child["per_layer"],
        "share": child["share"],
        "unmeasured": child["unmeasured"],
        "checks": child["checks"],
        "raw": {"attempted": child["attempted"], "failed": child["failed"],
                "measured_s": child["measured_s"],
                "step_ms_quiet": child["traced_step_ms_quiet"]},
        "canary": child["canary"],
    }


def run(
    workloads: Sequence[str], seed: int, seconds: float, trace: str = "0",
    smoke: bool = False, out: Optional[str] = None,
) -> Dict:
    """Measure ``workloads``; ``trace`` is ``"0"`` (end-to-end only),
    ``"1"`` (layer trace only) or ``"both"``.  Returns the record."""
    started = time.time()
    build()
    record: Dict = {"schema": SCHEMA, "workloads": {}}
    for name in workloads:
        section: Dict = {}
        if trace != "1":
            section["end_to_end"] = measure_untraced(name, seed, seconds, smoke)
        if trace != "0":
            trace_out = f"{out}.{name}.trace.json" if out else None
            section["trace"] = measure_traced(name, seed, seconds, smoke, trace_out)
        if len(section) == 2:
            # Traced process against the untraced lead: the overhead the
            # in-process estimate (trace.overhead_pct) only approximates.
            traced = section["trace"]["raw"]["step_ms_quiet"]
            plain = section["end_to_end"]["raw"]["step_ms_quiet"]
            section["trace"]["overhead_vs_untraced_pct"] = (traced / plain - 1.0) * 100.0
        record["workloads"][name] = section
    record["meta"] = _meta(record, seed, seconds, trace, smoke, started)
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return record


def _meta(record: Dict, seed: int, seconds: float, trace: str, smoke: bool, started: float) -> Dict:
    canaries = []
    walls: Dict[str, List[float]] = {}
    for name, section in record["workloads"].items():
        e2e = section.get("end_to_end")
        if e2e:
            canaries += [c["canary"] for c in e2e["children"]]
            walls[name] = e2e["raw"]["measured_s"]
        if "trace" in section:
            canaries.append(section["trace"]["canary"])
    p10 = percentile([c["p10_ms"] for c in canaries], 10)
    p90 = percentile([c["p90_ms"] for c in canaries], 90)
    meta = env.describe()
    meta.update({
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "total_wall_s": time.time() - started,
        "raw_wall_s": walls,
        "canary": {
            "ref_ms": CANARY_REF_MS,
            "p10_ms": p10,
            "p50_ms": percentile([c["p50_ms"] for c in canaries], 50),
            "p90_ms": p90,
            "host_noisy": p90 / p10 > NOISY_RATIO,
        },
    })
    return meta


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def correct(record: Dict) -> bool:
    return all(
        ok
        for section in record["workloads"].values()
        for part in section.values()
        for ok in part["checks"].values()
    )


def contract_line(record: Dict, trace: str) -> str:
    """The driver's result line for this record."""
    parts = [
        part for section in record["workloads"].values() for part in section.values()
    ]
    many = len(record["workloads"]) > 1
    units = layers.units()
    values: Dict[str, Dict] = {}
    for name, section in record["workloads"].items():
        prefix = f"{name}/" if many else ""
        if trace == "1":
            for metric, value in section["trace"]["per_layer"].items():
                values[prefix + metric] = {"value": value, "unit": units[metric]}
        else:
            got = section["end_to_end"]["metrics"]
            for m in metrics.DRIVER_GATED:
                values[prefix + m.name] = {"value": got[m.name], "unit": m.unit}
    return json.dumps({
        "correct": correct(record),
        "attempted": sum(p["raw"]["attempted"] for p in parts),
        "failed": sum(p["raw"]["failed"] for p in parts),
        "metrics": values,
    })


def table(record: Dict) -> str:
    """Every metric by name with its unit, one block per workload."""
    lines: List[str] = []
    units = layers.units()
    for name, section in record["workloads"].items():
        lines.append(f"== {name}")
        e2e = section.get("end_to_end")
        if e2e:
            for metric, value in e2e["metrics"].items():
                m = metrics.BY_NAME[metric]
                shown = "n/a" if value is None else f"{value:.6g}"
                lines.append(f"  {metric:<28}{shown:>14} {m.unit:<10} ({m.better} is better)")
            bad = [c for c, ok in e2e["checks"].items() if not ok]
            lines.append(f"  checks: {len(e2e['checks']) - len(bad)} passed"
                         + (f", FAILED: {', '.join(bad)}" if bad else ""))
        tr = section.get("trace")
        if tr:
            for metric, value in tr["per_layer"].items():
                if value:
                    lines.append(f"  {metric:<32}{value:>14.6g} {units[metric]}")
            if "overhead_vs_untraced_pct" in tr:
                lines.append(f"  {'trace overhead vs untraced run':<32}"
                             f"{tr['overhead_vs_untraced_pct']:>14.3g} %")
            if tr["unmeasured"]:
                lines.append(f"  unmeasured boundaries: {', '.join(tr['unmeasured'])}")
    return "\n".join(lines)
