"""Bit-exactness and lifecycle of ``execution="processes"``.

The process backend must be invisible in the numbers: for every
reduction op and world size (including non-powers-of-two), training with
one OS process per rank over a shared-memory arena produces the same
bytes as the serial backend.  And however a run ends —
normal close, fault-plan kill mid-step — no ``/dev/shm`` segment may
survive it.
"""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.comm.faults import FaultPlan
from repro.comm.tracing import CommTracer
from repro.comm.transport import CommError
from repro.core import (
    DistributedOptimizer,
    RunConfig,
    StrategyReducer,
    leaked_shared_segments,
)
from repro.core.arena import GradientArena, SharedGradientArena
from repro.core.orthogonality import OrthogonalityProbe
from repro.data.sampler import BatchIterator, ShardedSampler
from repro.models import BertConfig, MiniBERT
from repro.models.mlp import MLP
from repro.optim import SGD
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.trainer import (
    FusedRankExecutor, ParallelTrainer, SerialRankExecutor, _param_publisher,
    _ProcessRankWorker, build_rank_executor, phased_step,
)
from tests.rank_state import (
    CODEC_STACKS, LOSSY, OPTIMIZERS, OVERFLOWING, SpikeLoss, assert_same_bytes,
    dist_state, residual_rows, step_record,
)


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    before = leaked_shared_segments()
    yield
    assert leaked_shared_segments() == before


def _task():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((128, 12)).astype(np.float32)
    y = (x @ rng.standard_normal((12, 4))).argmax(axis=1)
    return x, y, MLP((12, 16, 4), rng=np.random.default_rng(3))


def _run(execution, op="adasum", num_ranks=4, topology="tree", steps=2,
         gpus_per_node=1, accumulation=1, optimizer="sgd", wire_codecs=(),
         loss_fn=None, trace=None, **trainer_kwargs):
    """Train a few steps under one backend; return (losses, params).

    ``optimizer`` names an entry of ``OPTIMIZERS`` (or is a factory);
    a ``trace`` dict is filled with what the steps left behind: the lr /
    wire bytes / skip count after every step, :func:`dist_state` on the
    live trainer and again after ``close()``, and the residual rows.
    """
    x, y, model = _task()
    config = RunConfig(
        op=op, topology=topology, gpus_per_node=gpus_per_node,
        num_ranks=num_ranks, microbatch=2, seed=0, execution=execution,
        wire_codecs=wire_codecs,
    )
    trainer = ParallelTrainer.from_config(
        model, loss_fn or nn.CrossEntropyLoss(),
        OPTIMIZERS.get(optimizer, optimizer),
        x, y, config, accumulation=accumulation, **trainer_kwargs,
    )
    dist_opt = trainer.dist_opt
    losses = []
    try:
        for _, rank_indices in trainer.iterator.epoch(0):
            if len(losses) >= steps:
                break
            losses.append(trainer.train_step(rank_indices))
            if trace is not None:
                trace.setdefault("per_step", []).append(step_record(dist_opt))
        if trace is not None:
            trace["live"] = dist_state(model, dist_opt)
    finally:
        trainer.close()
    if trace is not None:
        trace["losses"] = losses
        trace["closed"] = dist_state(model, dist_opt)
        trace["residuals"] = residual_rows(dist_opt)
    return losses, {n: p.data.copy() for n, p in model.named_parameters()}


def _assert_bit_identical(ref_params, params, context):
    for name in ref_params:
        np.testing.assert_array_equal(
            ref_params[name].view(np.uint8), params[name].view(np.uint8),
            err_msg=f"{context}: parameter {name} diverged",
        )


class TestBitExactness:
    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
    @pytest.mark.parametrize("num_ranks", [2, 3, 5, 8])
    def test_processes_match_serial(self, op, num_ranks):
        ref_losses, ref_params = _run("serial", op=op, num_ranks=num_ranks)
        losses, params = _run("processes", op=op, num_ranks=num_ranks)
        assert losses == ref_losses, (op, num_ranks)
        _assert_bit_identical(
            ref_params, params, f"processes/{op}/world={num_ranks}"
        )

    @pytest.mark.parametrize(
        "topology,gpus_per_node", [("linear", 1), ("ring", 1), ("tree", 1),
                                   ("hierarchical", 2)],
    )
    def test_processes_across_topologies(self, topology, gpus_per_node):
        kw = dict(op="adasum", num_ranks=4, topology=topology,
                  gpus_per_node=gpus_per_node)
        ref_losses, ref_params = _run("serial", **kw)
        losses, params = _run("processes", **kw)
        assert losses == ref_losses
        _assert_bit_identical(ref_params, params, f"processes/{topology}")

    def test_processes_with_accumulation(self):
        kw = dict(op="adasum", num_ranks=3, accumulation=2)
        ref_losses, ref_params = _run("serial", **kw)
        losses, params = _run("processes", **kw)
        assert losses == ref_losses
        _assert_bit_identical(ref_params, params, "processes/accumulation=2")

    def test_spawn_start_method_matches(self):
        # Spawn-safety: workers bootstrap from pickles alone.
        kw = dict(op="adasum", num_ranks=2, steps=1)
        ref_losses, ref_params = _run("serial", **kw)
        losses, params = _run("processes", start_method="spawn", **kw)
        assert losses == ref_losses
        _assert_bit_identical(ref_params, params, "processes/spawn")


def _traced(execution, **kw):
    trace = {}
    _run(execution, trace=trace, **kw)
    return trace


@pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
class TestWorkerHeldState:
    """Rank workers hold the live optimizer slots and residual rows:
    every observable — per-step losses, lr, wire bytes and skips, model
    bytes, ``pack_dist_state`` pulled from the live pool and again after
    ``close()``, the residual rows — equals the serial run's."""

    def test_plain_steps(self, optimizer, wire_codecs):
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs, steps=4)
        assert_same_bytes(_traced("serial", **kw), _traced("processes", **kw))

    def test_accumulation(self, optimizer, wire_codecs):
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs, steps=3,
                  accumulation=2)
        assert_same_bytes(_traced("serial", **kw), _traced("processes", **kw))

    def test_probe_reads_raw_gradients(self, optimizer, wire_codecs):
        # The probe must see gradients, not deltas or decoded rows: the
        # workers finish their rows in a round of their own, after it.
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs, steps=3)
        probes = {ex: OrthogonalityProbe() for ex in ("serial", "processes")}
        traces = {ex: _traced(ex, probe=probe, **kw) for ex, probe in probes.items()}
        assert_same_bytes(traces["serial"], traces["processes"])
        assert probes["serial"].steps == [0, 1, 2]
        assert_same_bytes(probes["serial"].history, probes["processes"].history)

    def test_second_trainer_on_the_same_optimizer(self, optimizer, wire_codecs):
        # close() hands slots and residual rows back to the parent's
        # objects, and the next pool is built from them: closing one
        # executor and opening another over the same optimizer is as
        # seamless as it is in one process.  Hand-wired, as a trainer
        # builds its own optimizer.
        def two_executors(execution):
            x, y, model = _task()
            config = RunConfig(op="adasum", topology="tree", num_ranks=4,
                               microbatch=2, seed=0, execution=execution,
                               wire_codecs=wire_codecs)
            dist_opt = DistributedOptimizer(
                model, OPTIMIZERS[optimizer], config)
            sampler = ShardedSampler(len(x), 4, seed=0)
            batches = [idx for _, idx in BatchIterator(sampler, 2).epoch(0)][:4]
            losses = []
            for chunk in (batches[:2], batches[2:]):
                executor = build_rank_executor(
                    model, nn.CrossEntropyLoss(), dist_opt, x, y, config)
                try:
                    losses += [float(np.mean(phased_step(executor, dist_opt, idx)))
                               for idx in chunk]
                finally:
                    executor.close()
            return losses, dist_state(model, dist_opt)

        assert_same_bytes(two_executors("serial"), two_executors("processes"))

    def test_checkpoint_crosses_backends(self, optimizer, wire_codecs, tmp_path):
        """3 steps, ``save_checkpoint`` from the still-open trainer,
        ``load_checkpoint`` into another live trainer (one step into a
        run of its own, so a live pool holds state the load must
        replace), 3 more steps: the same bytes whichever backend saved
        and whichever loaded."""
        def flow(saver, loader):
            path = tmp_path / f"{saver}-{loader}.npz"
            trainers = []
            try:
                for execution in (saver, loader):
                    x, y, model = _task()
                    config = RunConfig(op="adasum", topology="tree", num_ranks=4,
                                       microbatch=2, seed=0, execution=execution,
                                       wire_codecs=wire_codecs)
                    trainers.append(ParallelTrainer.from_config(
                        model, nn.CrossEntropyLoss(), OPTIMIZERS[optimizer], x, y, config))
                a, b = trainers
                batches = [idx for _, idx in a.iterator.epoch(0)][:6]
                for idx in batches[:3]:
                    a.train_step(idx)
                save_checkpoint(path, a.model, dist_opt=a.dist_opt)
                b.train_step(batches[0])
                load_checkpoint(path, b.model, dist_opt=b.dist_opt)
                losses = [b.train_step(idx) for idx in batches[3:]]
                return losses, dist_state(b.model, b.dist_opt)
            finally:
                for trainer in trainers:
                    trainer.close()

        ref = flow("serial", "serial")
        if not wire_codecs:  # (residual rows are not part of a checkpoint)
            straight = _traced("serial", optimizer=optimizer, steps=6)
            assert ref[0] == straight["losses"][3:]
            assert_same_bytes(ref[1]["params"], straight["live"]["params"])
        assert_same_bytes(ref, flow("processes", "serial"), "saved by processes")
        assert_same_bytes(ref, flow("serial", "processes"), "loaded into processes")


@pytest.mark.parametrize("optimizer", sorted(OVERFLOWING))
def test_forced_fp16_overflow(optimizer):
    """Overflowing steps are skipped on the one verdict the parent
    gives: scale backed off, the workers' residual rows rolled back,
    the rank optimizers advanced — as the serial run does it."""
    kw = dict(optimizer=OVERFLOWING[optimizer], wire_codecs=LOSSY, steps=12,
              loss_fn=SpikeLoss(spike=3))
    ref = _traced("serial", **kw)
    skipped = ref["closed"]["packed"]["skipped_steps"]
    assert 0 < skipped < 12, skipped
    assert ref["closed"]["packed"]["scaler"]["overflow_count"] == skipped
    assert all(st["step_count"] == 12 for st in ref["closed"]["packed"]["per_rank"].values())
    assert_same_bytes(ref, _traced("processes", **kw))


def test_spawned_workers_hold_state():
    # Spawn pickles the parent's optimizers and pipeline beside the
    # model; the (unpicklable) optimizer factory never crosses.
    kw = dict(optimizer="adam", wire_codecs=LOSSY, steps=3)
    assert_same_bytes(_traced("serial", **kw),
                      _traced("processes", start_method="spawn", **kw))


def _bert_task():
    tokens = np.random.default_rng(7).integers(0, 24, (64, 8))
    config = BertConfig(vocab_size=24, hidden=16, layers=1, heads=2, max_seq_len=8)
    return tokens, MiniBERT(config, rng=np.random.default_rng(3))


def _bert_run(execution, reduce_mode="parent", demote=False, **trainer_kwargs):
    """Three Adam steps of MiniBERT through the ``bert_procs_codec``
    stack; ``(losses, dist_state, executor)`` off the live trainer."""
    tokens, model = _bert_task()
    config = RunConfig(
        op="adasum", topology="tree", num_ranks=4, microbatch=2, seed=0,
        execution=execution, reduce_mode=reduce_mode,
        wire_codecs=("fp16", "int8", "topk:0.01"),
    )
    with ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(), OPTIMIZERS["adam"], tokens, tokens, config,
        **trainer_kwargs,
    ) as trainer:
        if demote:
            trainer.executor.engine = None
        batches = [idx for _, idx in trainer.iterator.epoch(0)][:3]
        losses = [trainer.train_step(idx) for idx in batches]
        return losses, dist_state(model, trainer.dist_opt), trainer.executor


@pytest.mark.parametrize("reduce_mode,start_method", [
    ("parent", None), ("workers", None), ("workers", "spawn"),
])
def test_minibert_processes_match_serial_with_and_without_the_engine(
        reduce_mode, start_method):
    """MiniBERT computes through its fused engine in a phased serial
    step (four ranks stacked) and in every rank worker (one rank each):
    ``processes`` ≡ ``serial`` ≡ ``serial`` with the engine demoted, in
    model bytes and ``pack_dist_state``."""
    *ref, executor = _bert_run("serial")
    assert isinstance(executor, FusedRankExecutor) and executor.engine is not None
    assert executor._validated == {(4, (8, 8))}
    *loop, executor = _bert_run("serial", demote=True)
    assert executor.engine is None and not executor._validated
    assert_same_bytes(ref, loop, "engine demoted")
    *procs, _ = _bert_run("processes", reduce_mode, start_method=start_method)
    assert_same_bytes(ref, procs, f"processes/{reduce_mode}/{start_method}")


def test_rank_worker_validates_and_keeps_the_engine():
    """A ``_ProcessRankWorker`` driven in this process, built from a
    pickle of its spec as ``spawn`` would: after its first step it holds
    an engine validated at one rank, and its row holds the loop's bytes."""
    tokens, model = _bert_task()
    grads = SharedGradientArena.from_model(model, 3)
    params = SharedGradientArena(grads.layout, 1, dtype=np.float32)
    worker = None
    try:
        spec = {
            "model": model, "loss_fn": nn.CrossEntropyLoss(), "x": tokens, "y": tokens,
            "layout": grads.layout, "grad_segment": grads.name,
            "param_segment": params.name, "num_ranks": 3,
            "grad_dtype": grads.dtype, "param_dtype": params.dtype,
            "microbatch": 2, "accumulation": 1, "reducer": StrategyReducer(),
            "rank_optimizers": [], "pipeline": None,
        }
        worker = _ProcessRankWorker(1, pickle.loads(pickle.dumps(spec)))
        _param_publisher(model, params)()
        heap = GradientArena.from_model(model, 3)
        loop = SerialRankExecutor(model, spec["loss_fn"], tokens, tokens, 2, 1, heap)
        for step, idx in enumerate((np.arange(2), np.arange(2, 4))):
            loss, overflow = worker(("step", idx, False, None))
            assert [loss] == loop.compute([idx], ranks=[1]) and not overflow
            assert grads.row(1).tobytes() == heap.row(1).tobytes(), step
            assert isinstance(worker.local, FusedRankExecutor)
            assert worker.local.engine is not None
            assert worker.local._validated == {(1, (2, 8))}
    finally:
        if worker is not None:
            worker.close()
        params.unlink()
        grads.unlink()


class TestLifecycle:
    def test_trainer_uses_shared_arena_and_close_unlinks(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 12)).astype(np.float32)
        y = rng.integers(0, 4, 32)
        model = MLP((12, 8, 4))
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree")
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config,
        )
        assert isinstance(trainer.arena, SharedGradientArena)
        assert leaked_shared_segments()  # grad + param segments live
        trainer.close()
        trainer.close()  # idempotent

    def test_closed_trainer_is_freed_by_refcount(self):
        # The rows' handle sits between the executor and the optimizer;
        # a reference cycle there keeps every closed trainer (model,
        # pulled Adam slots, residual rows) alive until a full GC pass —
        # tens of MB of peak RSS over a run of short episodes.
        import gc
        import weakref

        x, y, model = _task()
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree", wire_codecs=LOSSY)
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), OPTIMIZERS["adam"], x, y, config)
        trainer.train_step(next(iter(trainer.iterator.epoch(0)))[1])
        refs = [weakref.ref(o) for o in (trainer.executor, trainer.dist_opt, model)]
        gc.disable()
        try:
            trainer.close()
            del trainer, model
            assert [r() for r in refs] == [None] * 3
        finally:
            gc.enable()

    def test_fault_kill_raises_comm_error_and_close_cleans_up(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 12)).astype(np.float32)
        y = rng.integers(0, 4, 64)
        model = MLP((12, 8, 4))
        config = RunConfig(num_ranks=3, microbatch=2, execution="processes",
                           topology="tree",
                           faults=FaultPlan().kill_rank(1, after_ops=0))
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config,
        )
        with pytest.raises(CommError) as err:
            for _, rank_indices in trainer.iterator.epoch(0):
                trainer.train_step(rank_indices)
        assert 1 in err.value.rank_errors
        trainer.close()  # aborted run must still reclaim every segment

    def test_comm_tracer_counts_control_plane_bytes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 12)).astype(np.float32)
        y = rng.integers(0, 4, 32)
        model = MLP((12, 8, 4))
        tracer = CommTracer()
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree")
        trainer = ParallelTrainer.from_config(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, config, comm_tracer=tracer,
        )
        try:
            for step, (_, rank_indices) in enumerate(trainer.iterator.epoch(0)):
                if step >= 1:
                    break
                trainer.train_step(rank_indices)
        finally:
            trainer.close()
        sends = [ev for ev in tracer.events if ev.op == "send"]
        recvs = [ev for ev in tracer.events if ev.op == "recv"]
        assert sends and recvs
        # Control plane only: step messages are tiny index arrays, never
        # gradient payloads (those live in shared memory).
        grad_bytes = trainer.arena.layout.total_size * 4
        assert all(ev.nbytes < grad_bytes for ev in sends)

    def test_rejects_active_dropout(self):
        class Dropped(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(4, 2)
                self.drop = nn.Dropout(0.5)

            def forward(self, x):
                return self.drop(self.lin(x))

        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = rng.integers(0, 2, 8)
        config = RunConfig(num_ranks=2, microbatch=2, execution="processes",
                           topology="tree")
        with pytest.raises(ValueError, match="dropout"):
            ParallelTrainer.from_config(
                Dropped(), nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
                x, y, config,
            )
