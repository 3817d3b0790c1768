"""The command end to end (smoke size), the contract file and ``compare``."""

import json
import subprocess
import sys
import time

import pytest

from perfbench import compare, env, layers, metrics
from perfbench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "record.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--smoke", "--out", str(out)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr[-2000:]
    return elapsed, proc.stdout, json.loads(out.read_text())


def test_smoke_run_is_quick_correct_and_prints_the_result_line(smoke):
    elapsed, stdout, record = smoke
    assert elapsed < 30.0
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    # A smoke run is a traced run: every per-layer metric of every workload.
    assert set(line["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in layers.units()}
    assert set(record["workloads"]) == set(WORKLOADS)
    for key in ("git_commit", "seed", "nproc", "blas_threads", "numpy", "python",
                "start_method", "canary", "total_wall_s"):
        assert key in record["meta"]
    assert set(record["meta"]["blas_threads"].values()) == {"1"}


def test_layer_self_times_account_for_the_traced_block_time(smoke):
    _, _, record = smoke
    for name, section in record["workloads"].items():
        share = section["trace"]["share"]
        layers_share = sum(v for span, v in share.items() if span != "block")
        assert 0.95 <= layers_share <= 1.0 + 1e-9, (name, share)
        assert section["trace"]["unmeasured"] == []


def test_layers_that_claim_one_workload_are_idle_elsewhere(smoke):
    _, _, record = smoke
    layer = lambda w: record["workloads"][w]["trace"]["per_layer"]
    lenet = layer("lenet_tta")
    for metric in ("comm.codec.calls", "comm.transport.calls", "core.overlap.step_ms",
                   "elastic.step_ms", "scheduler.job_step_ms"):
        assert lenet[metric] == 0, metric
    assert layer("bert_procs_codec")["comm.codec.calls"] > 0
    assert layer("bert_procs_codec")["comm.transport.calls"] > 0
    assert layer("bert_overlap")["core.overlap.buckets"] > 1
    assert layer("elastic_faults")["elastic.failed_attempts"] == 4
    assert layer("sched_trace")["scheduler.job_step_ms"] > 0


def test_benchmark_json_matches_the_tables():
    contract = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert contract["command"] == ["python3", "-m", "perfbench", "run"]
    assert contract["paths"] == ["perfbench"]
    assert [w["name"] for w in contract["workloads"]] == list(metrics.ALL)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.DRIVER_GATED]
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == layers.units()


def _record(value, spread=0.0):
    return {"workloads": {"lenet_tta": {"end_to_end": {
        "metrics": {"samples_per_s": value, "wire_bytes_per_step": 100.0},
        "spread": {"samples_per_s": spread},
    }}}}


def test_compare_verdicts():
    verdicts = lambda a, b: {r[1]: r[4] for r in compare.rows(a, b)}
    bound = metrics.BY_NAME["samples_per_s"].bound
    within, beyond = 1000.0 * (1 - bound / 2), 1000.0 * (1 - bound * 1.1)
    assert verdicts(_record(1000.0), _record(within))["samples_per_s"] == "ok"
    assert verdicts(_record(1000.0), _record(beyond))["samples_per_s"] == "regression"
    assert verdicts(_record(1000.0), _record(1500.0))["samples_per_s"] == "ok"
    # A record whose own halves disagree by more than the bound cannot
    # resolve the metric, whichever way the pair points.
    noisy = _record(1000.0, spread=bound * 1.2)
    assert verdicts(noisy, _record(990.0))["samples_per_s"] == "unresolved"
    assert verdicts(noisy, _record(beyond))["samples_per_s"] == "unresolved"
    # Exact counts have a zero bound: any worsening is a regression.
    worse = _record(1000.0)
    worse["workloads"]["lenet_tta"]["end_to_end"]["metrics"]["wire_bytes_per_step"] = 101.0
    assert verdicts(_record(1000.0), worse)["wire_bytes_per_step"] == "regression"
