"""Layer boundaries and the per-layer metrics derived from their spans.

Layers are the program's packages (``data``, ``nn``, ``tensor``,
``train``, ``core``, ``optim``, ``comm``, ``elastic``, ``scheduler``)
plus the harness' own held-out evaluation.  :data:`BOUNDARIES` names
the public callable at each boundary; :func:`per_layer` turns one
traced run's spans and counters into the metrics ``BENCHMARK.json``
lists under ``per_layer``.

Every ``*_ms`` metric is milliseconds **per training step** of the
traced section: *self* time, except the few whose kind below is
``"total"`` (a wait or a whole sub-tree).  The exact partition of the
traced time by span name is the record's ``share`` table.
``*_p50``/``*_p90``/``*_p95`` are per-call percentiles.  Worker-process
internals are invisible from outside and show up as the parent's wait
(``train.compute_ms`` on the process backend, ``comm.transport.call_ms``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from perfbench.estimator import percentile
from perfbench.spans import BLOCK, LayerTotals, Span, durations, totals_by_name

#: (span name, module, attribute).  See :func:`perfbench.spans.install`.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("data.next_batch", "repro.data.sampler", "ElasticBatchIterator.next_step"),
    ("data.next_batch", "repro.data.sampler", "ElasticBatchIterator.commit"),
    ("nn.forward", "repro.models.lenet", "LeNet5.forward"),
    ("nn.forward", "repro.models.transformer", "MiniBERT.forward"),
    ("nn.forward", "repro.models.mlp", "MLP.forward"),
    ("nn.loss", "repro.nn.losses", "CrossEntropyLoss.forward"),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    ("train.compute_grads", "repro.train.trainer", "compute_grads_into"),
    ("train.compute_grads", "repro.elastic.trainer", "compute_grads_into"),
    ("train.worker_compute", "repro.train.trainer", "ProcessRankExecutor.compute"),
    ("train.fused_compute", "repro.models.fused_bert", "FusedBertRankCompute.step"),
    ("train.step", "repro.train.trainer", "ParallelTrainer.train_step"),
    ("core.prepare_wire", "repro.core.distributed_optimizer",
     "DistributedOptimizer.prepare_wire_arena"),
    ("optim.step", "repro.optim.optimizer", "Optimizer.step"),
    ("comm.codec.encode", "repro.comm.codec", "CodecPipeline.begin_step"),
    ("comm.codec.encode", "repro.comm.codec", "CodecPipeline.encode_block"),
    ("comm.codec.encode", "repro.comm.codec", "CodecPipeline.end_step"),
    ("core.reduce", "repro.core.strategies", "GradientReducer.reduce_arena"),
    ("core.reduce", "repro.train.trainer", "ProcessRankExecutor.worker_reduce"),
    ("comm.transport.call", "repro.comm.transport", "ProcessTransport.call"),
    ("core.apply", "repro.core.distributed_optimizer",
     "DistributedOptimizer.apply_reduced_flat"),
    ("core.overlap.step", "repro.core.overlap", "OverlapScheduler.step"),
    ("elastic.step", "repro.elastic.trainer", "ElasticTrainer.train_step"),
    ("elastic.collective", "repro.elastic.trainer", "cluster_reduce"),
    ("elastic.build", "repro.elastic.trainer", "ElasticTrainer.from_config"),
    ("elastic.close", "repro.elastic.trainer", "ElasticTrainer.close"),
    ("elastic.lend", "repro.elastic.trainer", "ElasticTrainer.lend_ranks"),
    ("elastic.reclaim", "repro.elastic.trainer", "ElasticTrainer.reclaim_ranks"),
    ("elastic.pause", "repro.elastic.trainer", "ElasticTrainer.pause"),
    ("elastic.resume", "repro.elastic.trainer", "ElasticTrainer.resume"),
    ("scheduler.run", "repro.scheduler.scheduler", "Scheduler.run"),
    ("scheduler.job_start", "repro.scheduler.job", "Job.start"),
    ("scheduler.job_step", "repro.scheduler.job", "Job.run_step"),
    ("scheduler.job_close", "repro.scheduler.job", "Job.close"),
)

#: metric -> (span names, "self" | "total" | "calls").  ``total`` is
#: inclusive time (children counted): a *wait* or a whole sub-tree.
_FROM_SPANS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "data.next_batch_ms": (("data.next_batch",), "self"),
    "nn.forward_ms": (("nn.forward",), "self"),
    "nn.loss_ms": (("nn.loss",), "self"),
    "tensor.backward_ms": (("tensor.backward",), "self"),
    "train.compute_ms": (
        ("train.compute_grads", "train.worker_compute", "train.fused_compute"), "total"),
    "train.grad_copy_ms": (("train.compute_grads",), "self"),
    "train.fused_compute_ms": (("train.fused_compute",), "self"),
    "train.worker_wait_ms": (("train.worker_compute",), "self"),
    "train.step_self_ms": (("train.step",), "self"),
    "train.steps": (("train.step",), "calls"),
    "core.prepare_wire_ms": (("core.prepare_wire",), "self"),
    "optim.step_ms": (("optim.step",), "self"),
    "optim.steps": (("optim.step",), "calls"),
    "comm.codec.encode_ms": (("comm.codec.encode",), "self"),
    "comm.codec.calls": (("comm.codec.encode",), "calls"),
    "core.reduce_ms": (("core.reduce",), "self"),
    "comm.transport.call_ms": (("comm.transport.call",), "self"),
    "comm.transport.calls": (("comm.transport.call",), "calls"),
    "core.apply_ms": (("core.apply",), "self"),
    "core.overlap.step_ms": (("core.overlap.step",), "self"),
    "elastic.step_ms": (("elastic.step",), "total"),
    "elastic.supervisor_ms": (("elastic.step",), "self"),
    "elastic.collective_ms": (("elastic.collective",), "self"),
    "elastic.build_ms": (("elastic.build",), "self"),
    "elastic.close_ms": (("elastic.close",), "self"),
    "elastic.lend_ms": (("elastic.lend",), "self"),
    "elastic.lends": (("elastic.lend",), "calls"),
    "elastic.reclaim_ms": (("elastic.reclaim",), "self"),
    "elastic.reclaims": (("elastic.reclaim",), "calls"),
    "elastic.pause_ms": (("elastic.pause",), "self"),
    "elastic.pauses": (("elastic.pause",), "calls"),
    "elastic.resume_ms": (("elastic.resume",), "self"),
    "elastic.resumes": (("elastic.resume",), "calls"),
    "scheduler.run_self_ms": (("scheduler.run",), "self"),
    "scheduler.job_start_ms": (("scheduler.job_start",), "total"),
    "scheduler.job_step_ms": (("scheduler.job_step",), "total"),
    "scheduler.job_close_ms": (("scheduler.job_close",), "total"),
    "eval.ms": (("eval",), "total"),
    "harness.self_ms": ((BLOCK,), "self"),
}

#: Metrics filled from counters (program attributes, program-side
#: tracers, the scheduler payload) or computed below.
_OTHER: Dict[str, str] = {
    "tensor.kernel_cache_hit_ratio": "ratio",
    "train.step_ms_p50": "ms",
    "train.step_ms_p95": "ms",
    "comm.codec.wire_bytes": "B",
    "comm.codec.skipped_steps": "count",
    "core.reduce.combines": "count",
    "comm.transport.ctrl_bytes": "B",
    "comm.transport.rank_errors": "count",
    "core.overlap.buckets": "count",
    "core.overlap.exposed_comm_ms": "ms",
    "elastic.recovery_ms_p90": "ms",
    "elastic.recoveries": "count",
    "elastic.failed_attempts": "count",
    "elastic.useful_attempt_ratio": "ratio",
    "scheduler.events": "count",
    "scheduler.loans": "count",
    "scheduler.preemptions": "count",
    "scheduler.wasted_samples": "count",
    "scheduler.utilization": "ratio",
    "eval.last_loss": "loss",
    "trace.step_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unmeasured": "count",
}


#: Per-layer metrics where a larger value is the better one: work done
#: in the traced section and ratios of useful outcomes.  Every other
#: one is a cost (time, bytes, failures, retries).
HIGHER_IS_BETTER = (
    "train.steps", "optim.steps", "scheduler.events",
    "tensor.kernel_cache_hit_ratio", "elastic.useful_attempt_ratio",
    "scheduler.utilization",
)


def better(metric: str) -> str:
    return "higher" if metric in HIGHER_IS_BETTER else "lower"


def units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    out = {m: ("count" if kind == "calls" else "ms") for m, (_, kind) in _FROM_SPANS.items()}
    out.update(_OTHER)
    return out


def _sum(totals: Mapping[str, LayerTotals], names: Sequence[str], kind: str) -> float:
    picked = [totals[n] for n in names if n in totals]
    if kind == "calls":
        return float(sum(t.calls for t in picked))
    return sum(t.self_s if kind == "self" else t.total_s for t in picked)


def per_layer(
    spans: Sequence[Span], steps: int, counters: Mapping[str, float]
) -> Dict[str, float]:
    """All per-layer metrics of one traced section of ``steps`` steps."""
    totals = totals_by_name(spans)
    steps = max(steps, 1)
    out: Dict[str, float] = {}
    for metric, (names, kind) in _FROM_SPANS.items():
        value = _sum(totals, names, kind)
        out[metric] = value if kind == "calls" else value / steps * 1e3
    step_ms = [d * 1e3 for d in durations(spans, "train.step")]
    out["train.step_ms_p50"] = percentile(step_ms, 50) if step_ms else 0.0
    out["train.step_ms_p95"] = percentile(step_ms, 95) if step_ms else 0.0
    out["comm.transport.rank_errors"] = float(
        totals.get("comm.transport.call", LayerTotals()).failed
    )
    out["core.reduce.combines"] = _sum(totals, ("core.reduce",), "calls") * max(
        counters.get("train.ranks", 1.0) - 1.0, 0.0
    )
    out["scheduler.events"] = counters.get("scheduler.arrivals", 0.0) + _sum(
        totals, ("scheduler.job_step",), "calls"
    )
    out["trace.step_ms"] = _sum(totals, (BLOCK,), "total") / steps * 1e3
    for metric in _OTHER:
        out.setdefault(metric, float(counters.get(metric, 0.0)))
    return out


def self_time_share(spans: Sequence[Span]) -> Dict[str, float]:
    """Each span name's share of the traced block time (self time; sums to 1)."""
    totals = totals_by_name(spans)
    whole = totals[BLOCK].total_s if BLOCK in totals else 0.0
    if whole <= 0:
        return {}
    return {name: t.self_s / whole for name, t in sorted(totals.items())}
