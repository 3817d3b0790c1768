#!/usr/bin/env python
"""Kernel-benchmark snapshot for the perf trajectory (``BENCH_PR<N>.json``).

Runs the hot-path microbenchmarks (reduction kernels, LeNet/MiniBERT
train steps) under a wall-clock budget and writes
``results/bench_snapshot.json`` (or ``--out``, e.g. the PR's
``results/BENCH_PR<N>.json``) with per-op mean/stddev in milliseconds.

The first ever run of this script records the ``baseline`` section;
subsequent runs refresh the ``current`` section while preserving the
baseline, so a PR can demonstrate its speedup against the tree it
started from and future PRs inherit a perf trajectory.

Ops that the library does not support yet (e.g. the flat-buffer arena
before the PR that introduces it) are skipped, which is what makes the
same script usable on both sides of an optimisation.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py [--budget 90] \
        [--out results/BENCH_PR<N>.json] [--baseline] \
        [--compare results/BENCH_PR4.json] [--ops op1,op2]

``--baseline`` forces this run to overwrite the baseline section.
``--compare PRIOR.json`` is the perf guard: after timing, compare each
shared op's mean against the prior snapshot and exit non-zero when any
regresses by more than ``--regression-threshold`` (default 25%).
``--ops`` restricts the run to a comma-separated subset (CI uses this
to guard just the cheap kernels).  In compare mode nothing is written
unless ``--out`` is given explicitly.
``--proc-guard`` additionally requires the process backend to beat the
serial backend by ``--proc-speedup`` (default 1.2x) on LeNet at
``min(4, os.cpu_count())`` ranks (the ``lenet_guard_serial`` /
``lenet_guard_procs`` pair); it auto-skips on single-core hosts, where
one OS process per rank cannot outrun anything.
``--wire-guard`` requires the lossy codec stack (fp16+int8+topk:0.01)
to ship at most ``--wire-ratio`` (default 0.5) of the fp16-only
encoded bytes per step on the 8-rank MiniBERT wire pair; the bytes are
modeled (not timed), so this guard is deterministic and never skips.

Trainer-backed ops additionally report ``compute_s``/``reduce_s`` —
the per-step mean of each phase, from the trainer's phase timers — so
a snapshot shows *where* a train-step op spends its time, not just the
total — and ``wire_bytes``, the modeled encoded bytes shipped per step
(raw fp32 row bytes when no codec stack is active).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import nn  # noqa: E402
from repro.core import DistributedOptimizer, ReduceOpType, adasum, adasum_tree  # noqa: E402
from repro.core.arena import GradientArena  # noqa: E402
from repro.core.distributed_optimizer import make_reducer  # noqa: E402
from repro.models import LeNet5, MiniBERT  # noqa: E402
from repro.optim import SGD, Adam  # noqa: E402
from repro.train import ParallelTrainer  # noqa: E402
from repro.train.trainer import compute_grads  # noqa: E402


def _lenet_grad_dicts(num_ranks: int = 8):
    rng = np.random.default_rng(0)
    model = LeNet5(rng=rng)
    return [
        {n: rng.standard_normal(p.shape).astype(np.float32)
         for n, p in model.named_parameters()}
        for _ in range(num_ranks)
    ]


_TRAINER_MODES = {
    "serial": {},
    "overlap": {"overlap": True, "bucket_cap_mb": 0.01},
    "procs": {"execution": "processes"},
}

# Trainers whose teardown matters (the process backend owns worker
# processes and /dev/shm segments) register a close here; main() drains
# it after each op so pools don't linger and skew later measurements.
_CLEANUPS = []

# --proc-guard's rank count: as many ranks as the host can actually run
# concurrently, capped at 4 (2 on a single core, where the guard skips).
_GUARD_RANKS = max(2, min(4, os.cpu_count() or 1))

# Trainers built for the op being timed; main() reads their phase
# timers (compute vs reduce split) into the op's result row, then
# clears the list alongside _CLEANUPS.
_PHASE_TRAINERS = []


def _lenet_trainer(mode: str, num_ranks: int = 4):
    rng = np.random.default_rng(0)
    model = LeNet5(rng=rng)
    x = rng.standard_normal((256, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, 256)
    dopt = DistributedOptimizer(
        model, lambda ps: SGD(ps, 0.01, momentum=0.9),
        num_ranks=num_ranks, op=ReduceOpType.ADASUM, adasum_pre_optimizer=True,
    )
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), dopt, x, y,
                              microbatch=8, **_TRAINER_MODES[mode])
    _CLEANUPS.append(trainer.close)
    _PHASE_TRAINERS.append(trainer)
    indices = next(iter(trainer.iterator.epoch(0)))[1]
    return trainer, indices


def _minibert_trainer(mode: str, num_ranks: int = 4, wire_codecs=()):
    rng = np.random.default_rng(0)
    model = MiniBERT(rng=rng)
    x = rng.integers(0, 64, (128, 32))
    y = rng.integers(0, 64, (128, 32))
    dopt = DistributedOptimizer(
        model, lambda ps: Adam(ps, 1e-3),
        num_ranks=num_ranks, op=ReduceOpType.ADASUM, wire_codecs=wire_codecs,
    )
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), dopt, x, y,
                              microbatch=8, **_TRAINER_MODES[mode])
    _CLEANUPS.append(trainer.close)
    _PHASE_TRAINERS.append(trainer)
    indices = next(iter(trainer.iterator.epoch(0)))[1]
    return trainer, indices


def build_ops():
    """Return ``[(name, setup() -> thunk)]``; setup may raise to skip."""
    rng = np.random.default_rng(0)

    def pairwise_setup():
        g1 = rng.standard_normal(1 << 20).astype(np.float32)
        g2 = rng.standard_normal(1 << 20).astype(np.float32)
        return lambda: adasum(g1, g2)

    def tree_setup():
        grads = [rng.standard_normal(1 << 16).astype(np.float32) for _ in range(16)]
        return lambda: adasum_tree(grads)

    def adasum_reducer_setup():
        # Times the reduction the training pipeline runs per step: since
        # the flat-buffer arena became the gradient container this is
        # reduce_arena over zero-copy rows (same math, same result as
        # the historical dict reduce this op used to time).
        arena = GradientArena.from_grad_dicts(_lenet_grad_dicts(8))
        reducer = make_reducer("adasum")
        return lambda: reducer.reduce_arena(arena)

    def sum_reducer_setup():
        arena = GradientArena.from_grad_dicts(_lenet_grad_dicts(8))
        reducer = make_reducer("sum")
        return lambda: reducer.reduce_arena(arena)

    def compute_grads_setup():
        model = LeNet5(rng=np.random.default_rng(0))
        loss_fn = nn.CrossEntropyLoss()
        x = rng.standard_normal((16, 1, 28, 28)).astype(np.float32)
        y = rng.integers(0, 10, 16)
        return lambda: compute_grads(model, loss_fn, x, y)

    def train_step_setup(factory, mode, num_ranks=4):
        def setup():
            trainer, indices = factory(mode, num_ranks)
            trainer.train_step(indices)  # warm caches / worker pools
            return lambda: trainer.train_step(indices)
        return setup

    def _elastic_trainer(schedule=None, n=4096):
        from repro.elastic import ElasticTrainer
        from repro.models import MLP
        erng = np.random.default_rng(0)
        x = erng.standard_normal((n, 8)).astype(np.float32)
        y = (x @ erng.standard_normal((8, 3))).argmax(axis=1)
        model = MLP((8, 16, 3), rng=np.random.default_rng(0))
        return ElasticTrainer(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1), x, y,
            microbatch=4, num_ranks=8, op=ReduceOpType.ADASUM, seed=0,
            schedule=schedule, timeout=10.0,
        )

    def elastic_step_setup():
        # One clean elastic step: serial gradients + the Adasum tree run
        # as a real collective on the simulated 8-rank cluster.
        trainer = _elastic_trainer()
        state = {"epoch": 0}
        trainer.iterator.begin_epoch(0)
        trainer._step_with_recovery()  # warm

        def thunk():
            if not trainer.iterator.has_next():
                state["epoch"] += 1
                trainer.iterator.begin_epoch(state["epoch"])
            trainer._step_with_recovery()
        return thunk

    def elastic_recovery_setup():
        # The recovery path end-to-end: a rank is killed mid-reduction,
        # the supervisor classifies/evicts/rolls back/rebuilds 8 -> 7
        # and retries the step to its first post-recovery commit.  The
        # delta vs elastic_step_8r is the recovery-path overhead.
        from repro.elastic import ElasticSchedule

        def thunk():
            trainer = _elastic_trainer(
                schedule=ElasticSchedule().kill(0, 3), n=64
            )
            trainer.train_epoch(0, max_steps=1)
            assert trainer.num_ranks == 7 and trainer.recovery_seconds
        thunk()  # validate once before timing
        return thunk

    def sched_goodput_setup():
        # One 30-job bursty trace through the multi-tenant control
        # plane on an 8-rank pool: admission, rank-loan preemption,
        # settlement, and the real ElasticTrainer steps each job runs.
        # Guards the scheduler's end-to-end throughput (jobs/sec of
        # simulated service, dominated by numeric step + reshard cost).
        from repro.scheduler import Scheduler, generate_trace

        specs = generate_trace(n_jobs=30, pool_size=8, seed=17)

        def thunk():
            with Scheduler(pool_size=8, policy="loans") as sched:
                sched.submit_all(specs)
                payload = sched.run()
            assert payload["aggregate"]["loans"]["outstanding"] == 0
        return thunk

    def hier_latency_setup():
        # Analytic 256-rank two-level latency sweep (the Figure-4-style
        # scaling study): prices hierarchical Adasum, hierarchical sum,
        # and flat AdasumRVH across 2^12..2^28 bytes on the NVLink+IB
        # preset.  Pure cost-model arithmetic — guards the hot analytic
        # path the simclock and fig4 experiments lean on.
        from repro.experiments import run_fig4_hierarchical

        def thunk():
            result = run_fig4_hierarchical(rank_counts=(256,))
            assert result.points
        return thunk

    return [
        ("pairwise_adasum_1m", pairwise_setup),
        ("hier_latency_256r", hier_latency_setup),
        ("adasum_tree_16r_64k", tree_setup),
        ("adasum_reducer_lenet_8r", adasum_reducer_setup),
        ("sum_reducer_lenet_8r", sum_reducer_setup),
        ("lenet_compute_grads_b16", compute_grads_setup),
        ("lenet_train_step_r4", train_step_setup(_lenet_trainer, "serial")),
        ("lenet_train_step_r4_overlap", train_step_setup(_lenet_trainer, "overlap")),
        ("lenet_step_procs_2", train_step_setup(_lenet_trainer, "procs", 2)),
        ("lenet_step_procs_4", train_step_setup(_lenet_trainer, "procs", 4)),
        ("lenet_step_procs_8", train_step_setup(_lenet_trainer, "procs", 8)),
        # The --proc-guard pair: same model and step, serial vs one
        # process per rank, at a rank count this host has cores for.
        ("lenet_guard_serial",
         train_step_setup(_lenet_trainer, "serial", _GUARD_RANKS)),
        ("lenet_guard_procs",
         train_step_setup(_lenet_trainer, "procs", _GUARD_RANKS)),
        ("minibert_train_step_r4", train_step_setup(_minibert_trainer, "serial")),
        ("minibert_train_step_r4_overlap", train_step_setup(_minibert_trainer, "overlap")),
        ("minibert_step_procs_4", train_step_setup(_minibert_trainer, "procs", 4)),
        # The 8-rank wire-codec pair: identical model and step; only the
        # codec stack on the flat wire differs.  Their modeled
        # wire_bytes are what --wire-guard compares (and the timings
        # show what the encode/decode round-trip costs per step).
        ("minibert_wire_fp16",
         train_step_setup(
             lambda mode, n: _minibert_trainer(mode, n, wire_codecs=("fp16",)),
             "serial", 8)),
        ("minibert_wire_topk",
         train_step_setup(
             lambda mode, n: _minibert_trainer(
                 mode, n, wire_codecs=("fp16", "int8", "topk:0.01")),
             "serial", 8)),
        ("elastic_step_8r", elastic_step_setup),
        ("elastic_recovery_8to7", elastic_recovery_setup),
        ("sched_goodput_pool8", sched_goodput_setup),
    ]


def bench_op(thunk, budget_s: float, min_rounds: int = 5, max_rounds: int = 60,
             warmup: int = 3):
    """Time ``thunk`` repeatedly within ``budget_s``; returns (mean, stddev, n).

    Several warmup rounds (not just one) let allocator pools, kernel
    caches, and branch-history settle before timing starts — the
    single-warmup version left ``lenet_*`` stddev at 20-25% of mean.
    """
    for _ in range(max(1, warmup)):
        thunk()
    times = []
    t_start = time.perf_counter()
    while len(times) < max_rounds:
        t0 = time.perf_counter()
        thunk()
        times.append((time.perf_counter() - t0) * 1000.0)
        if len(times) >= min_rounds and time.perf_counter() - t_start > budget_s:
            break
    mean = statistics.fmean(times)
    stddev = statistics.stdev(times) if len(times) > 1 else 0.0
    return mean, stddev, len(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=90.0,
                        help="total wall-clock budget in seconds")
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--baseline", action="store_true",
                        help="record this run as the baseline section")
    parser.add_argument("--compare", default=None, metavar="PRIOR_JSON",
                        help="perf guard: exit non-zero when any shared op's "
                             "mean regresses past the threshold vs this "
                             "snapshot")
    parser.add_argument("--ops", default=None,
                        help="comma-separated subset of ops to run")
    parser.add_argument("--regression-threshold", type=float, default=0.25,
                        help="allowed fractional mean regression in compare "
                             "mode (0.25 = 25%%)")
    parser.add_argument("--proc-guard", action="store_true",
                        help="require the process backend to beat the "
                             "serial backend by --proc-speedup on LeNet at "
                             "min(4, cpu_count) ranks; auto-skipped on "
                             "single-core hosts where real parallel speedup "
                             "is impossible")
    parser.add_argument("--proc-speedup", type=float, default=1.2,
                        help="required serial/procs mean ratio for "
                             "--proc-guard (1.2 = procs at least 1.2x "
                             "faster than serial)")
    parser.add_argument("--wire-guard", action="store_true",
                        help="require the lossy codec stack "
                             "(fp16+int8+topk:0.01) to ship at most "
                             "--wire-ratio of the fp16-only encoded bytes per "
                             "step on the 8-rank MiniBERT wire pair; modeled "
                             "bytes, so deterministic on any host")
    parser.add_argument("--wire-ratio", type=float, default=0.5,
                        help="maximum topk/fp16 wire_bytes ratio for "
                             "--wire-guard (0.5 = at least 50%% fewer "
                             "encoded bytes)")
    args = parser.parse_args(argv)

    root = pathlib.Path(__file__).resolve().parent.parent
    out_path = pathlib.Path(args.out) if args.out else root / "results" / "bench_snapshot.json"
    # Guard-only invocations (compare / proc-guard) are read-only unless
    # an output path is asked for explicitly.
    write_output = ((args.compare is None and not args.proc_guard
                     and not args.wire_guard)
                    or args.out is not None)

    try:  # hot-loop temporaries should not churn mmap (see docs/performance.md)
        from repro.tensor import tune_allocator
        tune_allocator()
    except ImportError:
        pass

    ops = build_ops()
    if args.ops:
        wanted = {o.strip() for o in args.ops.split(",") if o.strip()}
        unknown = wanted - {name for name, _ in ops}
        if unknown:
            print(f"unknown ops: {sorted(unknown)}", file=sys.stderr)
            return 2
        ops = [(name, setup) for name, setup in ops if name in wanted]
    per_op_budget = args.budget / max(len(ops), 1)
    results = {}
    for name, setup in ops:
        try:
            thunk = setup()
        except (TypeError, NotImplementedError, AttributeError, ImportError) as exc:
            print(f"  skip {name}: {type(exc).__name__}: {exc}")
            continue
        mean, stddev, n = bench_op(thunk, per_op_budget)
        results[name] = {"mean_ms": round(mean, 4), "stddev_ms": round(stddev, 4),
                         "rounds": n}
        phase_line = ""
        while _PHASE_TRAINERS:
            trainer = _PHASE_TRAINERS.pop()
            steps = trainer.global_step
            if steps:
                phases = trainer.phase_seconds
                results[name]["compute_s"] = round(phases["compute"] / steps, 6)
                results[name]["reduce_s"] = round(phases["reduce"] / steps, 6)
                phase_line = (f" [compute {results[name]['compute_s'] * 1e3:.3f}"
                              f" / reduce {results[name]['reduce_s'] * 1e3:.3f} ms]")
                dopt = getattr(trainer, "dist_opt", None)
                if dopt is not None and getattr(dopt, "wire_bytes_total", 0):
                    # Modeled encoded bytes per step (all rank rows) —
                    # deterministic, so usable as an absolute guard.
                    results[name]["wire_bytes"] = round(
                        dopt.wire_bytes_total / steps
                    )
                    phase_line += f" [wire {results[name]['wire_bytes']:,} B]"
        print(f"  {name}: {mean:.3f} ms ± {stddev:.3f} ({n} rounds){phase_line}")
        while _CLEANUPS:  # tear down worker pools / shm before the next op
            _CLEANUPS.pop()()

    if write_output:
        payload = {"schema": "bench-snapshot-v1", "ops": {}}
        if out_path.exists():
            payload = json.loads(out_path.read_text())
        if args.baseline or "baseline" not in payload:
            payload["baseline"] = results
        payload["current"] = results
        payload["ops"] = sorted(set(payload.get("baseline", {})) | set(results))
        payload["meta"] = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        if payload.get("baseline"):
            speedups = {}
            for op in payload["ops"]:
                base = payload["baseline"].get(op, {}).get("mean_ms")
                cur = results.get(op, {}).get("mean_ms")
                if base and cur:
                    speedups[op] = round(base / cur, 3)
            payload["speedup_vs_baseline"] = speedups
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    if args.compare:
        prior_path = pathlib.Path(args.compare)
        prior = json.loads(prior_path.read_text())
        ref = prior.get("current") or prior.get("baseline") or {}
        threshold = args.regression_threshold
        regressions = []
        shared = sorted(set(ref) & set(results))
        if not shared:
            print(f"no shared ops with {prior_path}", file=sys.stderr)
            return 2
        print(f"perf guard vs {prior_path} (fail at >{threshold:.0%}):")
        for op in shared:
            base = ref[op]["mean_ms"]
            cur = results[op]["mean_ms"]
            ratio = cur / base
            verdict = "REGRESSION" if ratio > 1.0 + threshold else "ok"
            print(f"  {op}: {base:.3f} -> {cur:.3f} ms "
                  f"({ratio:.2f}x) {verdict}")
            if ratio > 1.0 + threshold:
                regressions.append(op)
        if regressions:
            print(f"FAIL: {len(regressions)} op(s) regressed >"
                  f"{threshold:.0%}: {regressions}", file=sys.stderr)
            return 1
        print("perf guard passed")

    if args.proc_guard:
        cpus = os.cpu_count() or 1
        if cpus < 2:
            print(f"proc guard SKIPPED: only {cpus} CPU visible — the "
                  "process backend cannot beat serial without real cores "
                  "(guard enforces on multicore CI runners)")
        else:
            serial_op, procs_op = "lenet_guard_serial", "lenet_guard_procs"
            missing = [op for op in (serial_op, procs_op) if op not in results]
            if missing:
                print(f"proc guard: missing ops {missing} (add them via "
                      "--ops or run the full suite)", file=sys.stderr)
                return 2
            ratio = results[serial_op]["mean_ms"] / results[procs_op]["mean_ms"]
            verdict = "ok" if ratio >= args.proc_speedup else "FAIL"
            print(f"proc guard ({cpus} CPUs, {_GUARD_RANKS} ranks): serial "
                  f"{results[serial_op]['mean_ms']:.3f} ms / procs "
                  f"{results[procs_op]['mean_ms']:.3f} ms = {ratio:.2f}x "
                  f"(need >= {args.proc_speedup:.2f}x) {verdict}")
            if ratio < args.proc_speedup:
                print(f"FAIL: process backend only {ratio:.2f}x vs serial "
                      f"at {_GUARD_RANKS} ranks (required "
                      f"{args.proc_speedup:.2f}x); pin BLAS to one thread "
                      "(OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1) — an "
                      "unpinned BLAS oversubscribes one-process-per-rank",
                      file=sys.stderr)
                return 1

    if args.wire_guard:
        fp16_op, topk_op = "minibert_wire_fp16", "minibert_wire_topk"
        missing = [op for op in (fp16_op, topk_op)
                   if "wire_bytes" not in results.get(op, {})]
        if missing:
            print(f"wire guard: missing wire_bytes for {missing} (add them "
                  "via --ops or run the full suite)", file=sys.stderr)
            return 2
        fp16_bytes = results[fp16_op]["wire_bytes"]
        topk_bytes = results[topk_op]["wire_bytes"]
        ratio = topk_bytes / max(fp16_bytes, 1)
        verdict = "ok" if ratio <= args.wire_ratio else "FAIL"
        print(f"wire guard (8 ranks, MiniBERT): fp16 {fp16_bytes:,} B/step / "
              f"fp16+int8+topk:0.01 {topk_bytes:,} B/step = {ratio:.3f} "
              f"(need <= {args.wire_ratio:.2f}) {verdict}")
        if ratio > args.wire_ratio:
            print(f"FAIL: lossy stack ships {ratio:.0%} of the fp16-only "
                  f"encoded bytes (required <= {args.wire_ratio:.0%})",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
