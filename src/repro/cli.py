"""Command-line experiment runner: ``python -m repro <experiment>``.

Runs one of the paper's experiments and prints its table/figure data.
``python -m repro list`` shows what's available; ``--full`` switches to
the larger (slower) profile, mirroring ``REPRO_FULL=1`` for the
benchmark suite.

``python -m repro trace ...`` executes one collective over the
simulated cluster with comm tracing enabled (optionally under injected
faults), prints per-rank summary statistics, and can export a
Chrome-trace JSON (``--out trace.json``; open in ``chrome://tracing``
or Perfetto).  See ``docs/simulator.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro import experiments
from repro.utils import format_table


def _fig1(fast: bool) -> str:
    out = []
    for model, tag in (("resnet", "1a"), ("bert", "1b")):
        r = experiments.run_fig1(model, fast=fast)
        early, late = r.early_vs_late()
        out.append(f"Figure {tag} ({model}): average orthogonality "
                   f"{early:.3f} (early) -> {late:.3f} (late), "
                   f"{len(r.per_layer)} layers, LR drops at {r.lr_drop_steps}")
    return "\n".join(out)


def _fig2(fast: bool) -> str:
    r = experiments.run_fig2(fast=fast)
    a, s = r.mean_errors()
    rows = [("mean relative error", f"{a:.4f}", f"{s:.4f}"),
            ("steps Adasum closer", f"{r.win_rate() * 100:.0f}%", "-")]
    return format_table(["metric", "Adasum", "Sync SGD"], rows)


def _fig4(fast: bool) -> str:
    r = experiments.run_fig4()
    flat = format_table(["tensor (bytes)", "Adasum (ms)", "NCCL (ms)", "ratio"],
                        r.rows())
    h = experiments.run_fig4_hierarchical()
    hier = format_table(
        ["ranks", "tensor (bytes)", "hier-Adasum (ms)", "hier-sum (ms)",
         "flat-RVH (ms)", "ratio"],
        h.rows(),
    )
    cross = h.crossover_bytes()
    note = "\n".join(
        f"  {ranks} ranks: Adasum-RVH dot-product overhead amortized above "
        + (f"{b} bytes" if b is not None else "the swept range")
        for ranks, b in sorted(cross.items())
    )
    return (
        flat
        + f"\n\ntwo-level fabric ({h.network.name}), "
        f"{h.gpus_per_node} GPUs/node:\n" + hier
        + "\ncrossover (hier-Adasum within 5% of hier-sum):\n" + note
    )


def _fig5(fast: bool) -> str:
    r = experiments.run_fig5(fast=fast)
    return format_table(
        ["config", "eff. batch", "epochs", "best acc", "min/epoch", "TTA (min)"],
        r.rows(),
    )


def _fig6(fast: bool) -> str:
    r = experiments.run_fig6(fast=fast)
    header = f"sequential baseline: {r.sequential_accuracy:.4f}\n"
    return header + format_table(
        ["method", "ranks", "LR mode", "max LR", "accuracy"], r.rows()
    )


def _table1(fast: bool) -> str:
    r = experiments.run_table1(fast=fast)
    return format_table(["metric", "without", "with"], r.rows())


def _table2(fast: bool) -> str:
    r = experiments.run_table2(fast=fast)
    return format_table(
        ["local steps", "eff. batch", "min/epoch", "epochs", "TTA (min)"], r.rows()
    )


def _table3(fast: bool) -> str:
    r = experiments.run_table3(fast=fast)
    return format_table(["variant", "phase 1", "phase 2", "best MLM acc"], r.rows())


def _table4(fast: bool) -> str:
    r = experiments.run_table4(fast=fast)
    return format_table(
        ["GPUs", "Sum p1", "Ada p1", "Sum p2", "Ada p2", "Sum min", "Ada min"],
        r.rows(),
    )


def _production(fast: bool) -> str:
    r = experiments.run_production_proxy(fast=fast)
    return format_table(["configuration", "accuracy"], r.rows())


def _elastic_recovery(fast: bool) -> str:
    r = experiments.run_elastic_recovery(fast=fast)
    header = (
        f"{r.epochs} epochs x {r.samples_per_epoch} samples each "
        f"(equal budget; every sample exactly once per epoch)\n"
        f"final-loss gap, kills vs failure-free: {r.loss_gap:.4f}\n"
    )
    return header + format_table(
        ["run", "world", "final loss", "test acc", "recoveries",
         "max recovery (ms)"],
        r.rows(),
    )


def _codec_ablation(fast: bool) -> str:
    r = experiments.run_codec_ablation(fast=fast)
    header = (
        f"LeNet-5, {r.ranks} ranks x {r.epochs} epoch(s), "
        f"microbatch {r.microbatch} (equal sample budget per cell)\n"
        + "".join(
            f"{op}: lossy stack ships {r.reduction_vs_fp16(op) * 100:.1f}% "
            f"fewer encoded bytes than fp16-only; "
            f"loss gap vs fp32 wire {r.loss_gap(op):+.4f}\n"
            for op in ("sum", "adasum")
        )
    )
    return header + format_table(
        ["op", "wire codecs", "final loss", "test acc", "wire bytes",
         "skipped"],
        r.rows(),
    )


def _sched_study(fast: bool) -> str:
    r = experiments.run_sched_study(fast=fast)
    header = (
        f"{r.n_jobs} jobs over a {r.pool_size}-rank pool (seed {r.seed})\n"
        f"goodput gain of loans over kill-and-requeue: "
        f"{r.loan_goodput_gain * 100:+.1f}%\n"
    )
    return header + format_table(
        ["policy", "done", "makespan", "tier-2 delay", "goodput/s",
         "wasted", "preempts", "util"],
        r.rows(),
    )


EXPERIMENTS: Dict[str, Tuple[Callable[[bool], str], str]] = {
    "fig1": (_fig1, "per-layer gradient orthogonality (ResNet + BERT)"),
    "fig2": (_fig2, "error vs exact-Hessian sequential emulation"),
    "fig4": (_fig4, "AdasumRVH vs NCCL allreduce latency sweep"),
    "fig5": (_fig5, "ResNet Sum vs Adasum at small/large batch"),
    "fig6": (_fig6, "LeNet-5 scaling under the aggressive LR schedule"),
    "table1": (_table1, "Adasum computation parallelization (§4.3)"),
    "table2": (_table2, "local steps on slow TCP"),
    "table3": (_table3, "BERT algorithmic efficiency (4 variants)"),
    "table4": (_table4, "BERT system efficiency at 64/256/512 GPUs"),
    "production": (_production, "§5.5 production LSTM proxy"),
    "elastic_recovery": (_elastic_recovery,
                         "rank failures vs failure-free at equal sample budget"),
    "sched_study": (_sched_study,
                    "multi-tenant preemption: rank loans vs kill-and-requeue"),
    "codec_ablation": (_codec_ablation,
                       "wire-codec stacks (fp32/fp16/lossy EF) on fig6 LeNet"),
}


TRACE_COLLECTIVES = ("adasum_rvh", "adasum_ring", "ring", "rd", "hierarchical")


def _trace_collective_fn(name: str, gpus_per_node: int) -> Callable:
    """Resolve a traceable collective to ``fn(comm, vector)``.

    Every ``(op, topology)`` collective routes through the one
    :func:`~repro.comm.collectives.cluster_allreduce` dispatcher, so
    tracing exercises the same strategy-registry path as training.
    """
    from repro.comm.collectives import cluster_allreduce

    op, topology = {
        "adasum_rvh": ("adasum", "rvh"),
        "adasum_ring": ("adasum", "ring"),
        "ring": ("sum", "ring"),
        "rd": ("sum", "tree"),
        "hierarchical": ("adasum", "hierarchical"),
    }[name]
    # Only the hierarchical cell takes a node width.
    width = gpus_per_node if topology == "hierarchical" else None
    return lambda comm, g: cluster_allreduce(
        comm, g, op=op, topology=topology, gpus_per_node=width
    )


def _trace_main(argv) -> int:
    """``python -m repro trace``: traced (and optionally faulty) collective."""
    from repro.comm import Cluster, CommError, FaultPlan, NetworkModel

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one collective over the simulated cluster with comm "
                    "tracing (and optional fault injection) enabled.",
    )
    parser.add_argument("--collective", choices=TRACE_COLLECTIVES,
                        default="adasum_rvh")
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--floats", type=int, default=4096,
                        help="gradient length per rank (float32 elements)")
    parser.add_argument("--network",
                        choices=("infiniband", "nccl_nvlink", "pcie", "slow_tcp",
                                 "two_level"),
                        default="infiniband",
                        help="'two_level' prices intra-node hops at NVLink "
                             "rates and inter-node hops at contended "
                             "InfiniBand rates")
    parser.add_argument("--gpus-per-node", type=int, default=2,
                        help="node width for --collective hierarchical and "
                             "the two_level network")
    parser.add_argument("--straggler", type=int, default=None,
                        help="rank whose sends are delayed")
    parser.add_argument("--straggler-factor", type=float, default=10.0)
    parser.add_argument("--kill", type=int, default=None,
                        help="rank killed mid-collective (after --kill-after-ops)")
    parser.add_argument("--kill-after-ops", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="hang-detection deadline (wall seconds)")
    parser.add_argument("--out", default=None,
                        help="write a Chrome-trace JSON here")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.collective == "hierarchical" and args.ranks % args.gpus_per_node:
        parser.error(f"--ranks {args.ranks} is not a multiple of "
                     f"--gpus-per-node {args.gpus_per_node}")

    plan = None
    if args.straggler is not None or args.kill is not None:
        plan = FaultPlan()
        for flag, victim in (("--straggler", args.straggler), ("--kill", args.kill)):
            if victim is not None and not 0 <= victim < args.ranks:
                parser.error(f"{flag} {victim} is out of range for --ranks {args.ranks}")
        if args.straggler is not None:
            plan.delay_rank(args.straggler, args.straggler_factor)
        if args.kill is not None:
            plan.kill_rank(args.kill, after_ops=args.kill_after_ops)

    if args.network == "two_level":
        from repro.comm import TwoLevelNetwork

        net = TwoLevelNetwork.nvlink_ib(gpus_per_node=args.gpus_per_node)
    else:
        net = getattr(NetworkModel, args.network)()
    cluster = Cluster(args.ranks, network=net, timeout=args.timeout,
                      faults=plan, trace=True)
    rng = np.random.default_rng(args.seed)
    grads = [rng.standard_normal(args.floats).astype(np.float32)
             for _ in range(args.ranks)]
    fn = _trace_collective_fn(args.collective, args.gpus_per_node)

    status = 0
    try:
        cluster.run(fn, rank_args=[(g,) for g in grads])
        print(f"{args.collective} over {args.ranks} ranks completed: "
              f"simulated latency {cluster.max_clock() * 1e3:.3f} ms, "
              f"{cluster.total_bytes()} bytes on the wire")
    except CommError as exc:
        print(f"CommError: {exc}", file=sys.stderr)
        status = 3

    tracer = cluster.tracer
    summary = tracer.summary()
    rows = [
        (r, s["sends"], s["recvs"], s["drops"], s["bytes_sent"],
         f"{s['compute_s'] * 1e3:.3f}", f"{s['clock'] * 1e3:.3f}")
        for r, s in sorted(summary["ranks"].items())
    ]
    print(format_table(
        ["rank", "sends", "recvs", "drops", "bytes", "compute (ms)", "clock (ms)"],
        rows,
    ))
    if args.out:
        tracer.save_chrome_trace(args.out)
        print(f"wrote {len(tracer.events)} events to {args.out} "
              f"(open in chrome://tracing or Perfetto)")
    return status


def _add_cell_args(parser, topology: str, topology_help: str = None) -> None:
    """``--op`` / ``--topology``, choosing among the registered cells
    (:func:`~repro.core.strategies.registered_cells`), so an op or
    topology added to the registry is selectable here with no edit."""
    from repro.core.strategies import registered_cells

    cells = registered_cells()
    parser.add_argument("--op", choices=sorted({op for op, _ in cells}),
                        default="adasum")
    parser.add_argument("--topology", choices=sorted({t for _, t in cells}),
                        default=topology, help=topology_help)


def _elastic_main(argv) -> int:
    """``python -m repro elastic``: elastic training run with injected kills."""
    from repro import nn
    from repro.core.config import RunConfig
    from repro.models import MLP
    from repro.optim import SGD
    from repro.elastic import ElasticSchedule, ElasticTrainer, StragglerPolicy

    parser = argparse.ArgumentParser(
        prog="python -m repro elastic",
        description="Train a small classifier elastically on the simulated "
                    "cluster: ranks killed mid-run are evicted, the world "
                    "re-shards, and training continues at an equal sample "
                    "budget.  See docs/elastic.md.",
    )
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--samples", type=int, default=480)
    parser.add_argument("--microbatch", type=int, default=4)
    parser.add_argument("--lr", type=float, default=0.2)
    _add_cell_args(parser, "tree_any",
                   "reduction recursion order; an elastic world "
                   "can shrink to any size, so the Adasum tree is "
                   "'tree_any' ('tree' needs power-of-two worlds: "
                   "at most 2 ranks here); 'hierarchical' sums "
                   "within nodes of --gpus-per-node and applies "
                   "Adasum across them, falling back to tree_any "
                   "when a kill breaks node symmetry")
    parser.add_argument("--gpus-per-node", type=int, default=1,
                        help="node width for --topology hierarchical")
    parser.add_argument("--wire-codecs", default=None, metavar="STACK",
                        help="comma-separated wire-codec stack for the "
                             "collective, e.g. 'fp16' or 'fp16,int8,topk:0.01' "
                             "(lossy codecs carry error-feedback residuals)")
    parser.add_argument("--kill", action="append", default=[],
                        metavar="STEP:RANK",
                        help="kill global RANK during the reduction of STEP "
                             "(repeatable, e.g. --kill 3:2 --kill 9:0)")
    parser.add_argument("--straggle", default=None, metavar="RANK:FACTOR",
                        help="persistently delay RANK's sends by FACTOR")
    parser.add_argument("--straggler-policy", choices=("wait", "drop"),
                        default="wait")
    parser.add_argument("--min-ranks", type=int, default=1)
    parser.add_argument("--checkpoint", default=None,
                        help="write periodic .npz checkpoints here")
    parser.add_argument("--checkpoint-every", type=int, default=5,
                        help="committed steps between checkpoints")
    parser.add_argument("--resume", default=None,
                        help="resume from a checkpoint (any saved world size)")
    parser.add_argument("--execution", choices=("serial", "processes"),
                        default="serial",
                        help="phase-1 compute backend: 'processes' runs one "
                             "OS process per rank over shared-memory gradient "
                             "rows (bit-identical; pools respawn on rebuild)")
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    schedule = ElasticSchedule()
    for spec in args.kill:
        try:
            step_s, rank_s = spec.split(":")
            schedule.kill(int(step_s), int(rank_s))
        except ValueError:
            parser.error(f"--kill expects STEP:RANK, got {spec!r}")
    if args.straggle is not None:
        try:
            rank_s, factor_s = args.straggle.split(":")
            schedule.delay(int(rank_s), float(factor_s))
        except ValueError:
            parser.error(f"--straggle expects RANK:FACTOR, got {args.straggle!r}")
    have_faults = bool(args.kill) or args.straggle is not None

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.samples, 10)).astype(np.float32)
    y = (x @ rng.standard_normal((10, 3))).argmax(axis=1)
    model = MLP((10, 32, 3), rng=np.random.default_rng(args.seed))

    from repro.comm import NetworkModel
    network = (
        NetworkModel(alpha=1e-6, beta=2e-9, gamma=0.0, name="lossy")
        if args.straggle is not None else None
    )
    # One declarative config from the parsed flags; the trainer (and its
    # DistributedOptimizer) is built from it alone.  An invalid flag
    # combination is a usage error.
    try:
        config = RunConfig(
            op=args.op, topology=args.topology, gpus_per_node=args.gpus_per_node,
            wire_codecs=args.wire_codecs or (),
            num_ranks=args.ranks, microbatch=args.microbatch, seed=args.seed,
            faults=schedule if have_faults else None,
            network=network, timeout=args.timeout, min_ranks=args.min_ranks,
            execution=args.execution,
        ).validate_for_pool(args.ranks)
    except ValueError as exc:
        parser.error(str(exc))
    trainer = ElasticTrainer.from_config(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=args.lr), x, y,
        config,
        straggler=StragglerPolicy(mode=args.straggler_policy),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every if args.checkpoint else None,
    )
    start_epoch = 0
    if args.resume is not None:
        saved = trainer.restore_from_checkpoint(args.resume)
        start_epoch = int(saved["iterator"]["epoch"])
        print(f"resumed from {args.resume}: step {trainer.global_step}, "
              f"epoch {start_epoch}, saved world "
              f"{len(saved['global_ranks'])} -> current {trainer.num_ranks}")
        if trainer.iterator.has_next():
            loss = trainer.finish_epoch()
            print(f"epoch {start_epoch} (resumed mid-epoch): loss {loss:.4f} "
                  f"over {trainer.num_ranks} ranks")
        start_epoch += 1

    for epoch in range(start_epoch, args.epochs):
        loss = trainer.train_epoch(epoch)
        visited = len(set(trainer.epoch_visited))
        print(f"epoch {epoch}: loss {loss:.4f} over {trainer.num_ranks} ranks "
              f"({visited}/{len(x)} samples visited)")
    for rec in trainer.recoveries:
        print(f"  recovery at step {rec['step']}: {rec['kind']} of global "
              f"ranks {rec['dead_global_ranks']} -> world {rec['world_size']}")
    if trainer.recovery_seconds:
        print(f"  recovery overhead: "
              f"{max(trainer.recovery_seconds) * 1e3:.1f} ms max "
              f"(kill to first post-recovery committed step)")
    print(f"final world: {list(trainer.membership)} "
          f"(simulated comm time {trainer.sim_time * 1e3:.3f} ms)")
    trainer.close()
    return 0


def _train_main(argv) -> int:
    """``python -m repro train``: one training run per execution backend."""
    from repro import nn
    from repro.core.config import EXECUTIONS, RunConfig
    from repro.models import MLP, LeNet5
    from repro.optim import SGD
    from repro.train.trainer import ParallelTrainer

    parser = argparse.ArgumentParser(
        prog="python -m repro train",
        description="Train a small model under one or more execution "
                    "backends (serial / processes) and report "
                    "wall-clock per step.  Both backends are bit-identical; "
                    "'processes' runs one OS process per rank writing "
                    "gradients into shared memory.  See docs/performance.md.",
    )
    parser.add_argument("--execution", action="append", choices=EXECUTIONS,
                        default=None,
                        help="backend to run (repeatable; default: both)")
    parser.add_argument("--model", choices=("mlp", "lenet"), default="mlp")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument("--microbatch", type=int, default=4)
    parser.add_argument("--lr", type=float, default=0.1)
    _add_cell_args(parser, "tree_any")
    parser.add_argument("--gpus-per-node", type=int, default=1)
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="process-backend start method (default: fork "
                             "where available)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    backends = args.execution or list(EXECUTIONS)

    rng = np.random.default_rng(args.seed)
    if args.model == "lenet":
        x = rng.standard_normal((args.samples, 1, 28, 28)).astype(np.float32)
        y = rng.integers(0, 10, args.samples)
    else:
        x = rng.standard_normal((args.samples, 16)).astype(np.float32)
        y = (x @ rng.standard_normal((16, 4))).argmax(axis=1)

    def build_model():
        model_rng = np.random.default_rng(args.seed)
        if args.model == "lenet":
            return LeNet5(rng=model_rng)
        return MLP((16, 64, 64, 4), rng=model_rng)

    config = RunConfig(
        op=args.op, topology=args.topology, gpus_per_node=args.gpus_per_node,
        num_ranks=args.ranks, microbatch=args.microbatch, seed=args.seed,
    )
    reference = None
    for execution in backends:
        model = build_model()
        kwargs = {}
        if execution == "processes" and args.start_method:
            kwargs["start_method"] = args.start_method
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=args.lr),
            x, y, config.replace(execution=execution), **kwargs,
        )
        t0 = time.time()
        steps = 0
        loss = float("nan")
        for _, rank_indices in trainer.iterator.epoch(0):
            if steps >= args.steps:
                break
            loss = trainer.train_step(rank_indices)
            steps += 1
        per_step = (time.time() - t0) / max(1, steps)
        trainer.close()
        params = {n: p.data.copy() for n, p in model.named_parameters()}
        if reference is None:
            reference = params
            match = "(reference)"
        else:
            identical = all(
                np.array_equal(params[n].view(np.uint8),
                               reference[n].view(np.uint8))
                for n in reference
            )
            match = "bit-identical" if identical else "DIVERGED"
        print(f"{execution:10s}: {per_step * 1e3:8.3f} ms/step  "
              f"loss {loss:.4f}  {match}")
    return 0


def _overlap_main(argv) -> int:
    """``python -m repro overlap``: phased vs bucketed-overlap training."""
    from repro import nn
    from repro.comm import CommTracer
    from repro.core.config import RunConfig
    from repro.models import MLP
    from repro.optim import SGD
    from repro.train.trainer import ParallelTrainer

    parser = argparse.ArgumentParser(
        prog="python -m repro overlap",
        description="Train the same model twice — phased (reduce after the "
                    "whole backward) and overlapped (bucketed reverse-order "
                    "reductions launched as gradients complete) — check the "
                    "results are bit-identical, and report step times.  "
                    "See docs/performance.md.",
    )
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--samples", type=int, default=640)
    parser.add_argument("--microbatch", type=int, default=4)
    parser.add_argument("--lr", type=float, default=0.1)
    _add_cell_args(parser, "tree",
                   "reduction recursion order for the flat kernels")
    parser.add_argument("--gpus-per-node", type=int, default=1,
                        help="node width for --topology hierarchical")
    parser.add_argument("--bucket-cap-mb", type=float, default=1.0,
                        help="overlap bucket size cap in MB")
    parser.add_argument("--wire-codecs", default=None, metavar="STACK",
                        help="comma-separated wire-codec stack for bucket "
                             "payloads, e.g. 'fp16' or 'fp16,int8,topk:0.01' "
                             "(results then differ from the raw-fp32 run by "
                             "design)")
    parser.add_argument("--out", default=None,
                        help="write the overlap run's compute/comm lanes as a "
                             "Chrome-trace JSON here")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.samples, 16)).astype(np.float32)
    y = (x @ rng.standard_normal((16, 4))).argmax(axis=1)
    # One declarative config from the parsed flags; both runs derive
    # from it (the overlap flag is the only difference).
    config = RunConfig(
        op=args.op, topology=args.topology, gpus_per_node=args.gpus_per_node,
        wire_codecs=args.wire_codecs or (),
        bucket_cap_mb=args.bucket_cap_mb, num_ranks=args.ranks,
        microbatch=args.microbatch, seed=args.seed,
    )

    def run(overlap: bool, tracer=None):
        model = MLP((16, 64, 64, 4), rng=np.random.default_rng(args.seed))
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=args.lr),
            x, y, config.replace(overlap=overlap), overlap_tracer=tracer,
        )
        t0 = time.time()
        steps = 0
        for _, rank_indices in trainer.iterator.epoch(0):
            if steps >= args.steps:
                break
            trainer.train_step(rank_indices)
            steps += 1
        return model, (time.time() - t0) / max(1, steps)

    tracer = CommTracer() if args.out else None
    m_phased, t_phased = run(overlap=False)
    m_overlap, t_overlap = run(overlap=True, tracer=tracer)

    identical = all(
        np.array_equal(p.data.view(np.uint32), q.data.view(np.uint32))
        for (_, p), (_, q) in zip(
            m_phased.named_parameters(), m_overlap.named_parameters()
        )
    )
    wire_desc = ",".join(config.wire_codecs) if config.wire_codecs else "fp32"
    print(f"{args.steps} steps x {args.ranks} ranks, op={args.op}, "
          f"bucket cap {args.bucket_cap_mb} MB, wire {wire_desc}")
    print(f"phased  : {t_phased * 1e3:8.3f} ms/step")
    print(f"overlap : {t_overlap * 1e3:8.3f} ms/step")
    print(f"bit-identical parameters: {identical}")
    if args.out:
        tracer.save_chrome_trace(args.out)
        print(f"wrote {len(tracer.events)} events to {args.out} "
              f"(compute lane 0, per-bucket comm lane 1)")
    if not config.wire_codecs and not identical:
        print("ERROR: overlap diverged from the phased path at fp32",
              file=sys.stderr)
        return 3
    return 0


def _serve_main(argv) -> int:
    """``python -m repro serve``: multi-tenant scheduler over a rank pool."""
    from repro.scheduler import (
        POLICIES,
        Scheduler,
        StepCostModel,
        generate_trace,
        write_json,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the training-as-a-service control plane: a seeded "
                    "trace of job submissions (bursty arrivals, mixed sizes "
                    "and priorities) multiplexed over a shared rank pool, "
                    "with preemption via rank loans through the elastic "
                    "reshard path.  Deterministic: the same seed always "
                    "produces the same metrics JSON.  See docs/scheduler.md.",
    )
    parser.add_argument("--pool", type=int, default=8,
                        help="shared rank-pool size")
    parser.add_argument("--jobs", type=int, default=200,
                        help="number of submissions in the generated trace")
    parser.add_argument("--policy", choices=POLICIES, default="loans",
                        help="preemption policy: 'loans' shrinks/pauses "
                             "victims reversibly, 'kill' requeues them from "
                             "scratch, 'none' makes arrivals wait")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mean-interarrival", type=float, default=0.008,
                        help="mean gap between arrival instants (virtual s)")
    parser.add_argument("--burst-prob", type=float, default=0.12,
                        help="probability an arrival instant is a burst")
    parser.add_argument("--out", default=None,
                        help="write the sched-trace-v1 metrics JSON here")
    args = parser.parse_args(argv)

    specs = generate_trace(
        n_jobs=args.jobs,
        pool_size=args.pool,
        seed=args.seed,
        mean_interarrival=args.mean_interarrival,
        burst_prob=args.burst_prob,
    )
    t0 = time.time()
    with Scheduler(
        pool_size=args.pool, policy=args.policy, cost_model=StepCostModel()
    ) as sched:
        sched.submit_all(specs)
        payload = sched.run()
    wall = time.time() - t0
    agg = payload["aggregate"]
    print(f"{args.jobs} jobs over a {args.pool}-rank pool, "
          f"policy={args.policy}, seed={args.seed} "
          f"({wall:.1f}s wall, {agg['jobs']['completed']} completed, "
          f"{agg['jobs']['rejected']} rejected)")
    tier_rows = [
        (f"tier {tier}", f"{delay:.4f}")
        for tier, delay in agg["queue_delay"]["mean_by_tier"].items()
    ]
    rows = [
        ("virtual horizon (s)", f"{payload['meta']['horizon']:.4f}"),
        ("mean queue delay (s)", f"{agg['queue_delay']['mean']:.4f}"),
        *[(f"  {name} mean delay (s)", v) for name, v in tier_rows],
        ("p95 queue delay (s)", f"{agg['queue_delay']['p95']:.4f}"),
        ("mean makespan (s)", f"{agg['makespan']['mean']:.4f}"),
        ("goodput (samples/s)", f"{agg['goodput_samples_per_sec']:.0f}"),
        ("wasted samples", str(agg["wasted_samples"])),
        ("pool utilization (active)", f"{agg['utilization']['active']:.3f}"),
        ("pool utilization (allocated)", f"{agg['utilization']['allocated']:.3f}"),
        ("preemptions", str(agg["preemptions"])),
        ("loans (shrink / pause)",
         f"{agg['loans']['shrink']} / {agg['loans']['pause']}"),
        ("loans returned to lender",
         str(agg["loans"]["returned_to_lender"])),
    ]
    print(format_table(["metric", "value"], rows))
    if agg["loans"]["outstanding"]:
        print(f"ERROR: {agg['loans']['outstanding']} loans never settled",
              file=sys.stderr)
        return 3
    if args.out:
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "elastic":
        return _elastic_main(argv[1:])
    if argv and argv[0] == "overlap":
        return _overlap_main(argv[1:])
    if argv and argv[0] == "train":
        return _train_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce a table/figure from the Adasum paper "
                    "(or 'trace' a collective; see 'trace --help').",
    )
    parser.add_argument("experiment",
                        help="experiment id (or 'list' / 'all' / 'trace' / "
                             "'elastic' / 'overlap' / 'train' / 'serve')")
    parser.add_argument("--full", action="store_true",
                        help="run the larger (slower) profile")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"  {name:12s} {desc}")
        print("  trace        traced collective run (python -m repro trace --help)")
        print("  elastic      elastic training run (python -m repro elastic --help)")
        print("  overlap      phased vs bucketed-overlap comparison "
              "(python -m repro overlap --help)")
        print("  train        execution-backend comparison incl. "
              "--execution processes (python -m repro train --help)")
        print("  serve        multi-tenant scheduler over a shared rank pool "
              "(python -m repro serve --help)")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s) {unknown}; try 'list'", file=sys.stderr)
        return 2
    for name in names:
        fn, desc = EXPERIMENTS[name]
        print(f"=== {name}: {desc} ===")
        t0 = time.time()
        print(fn(not args.full))
        print(f"[{time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
