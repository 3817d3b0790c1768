"""Bit-exactness and lifecycle of ``execution="processes"``.

The process backend must be invisible in the numbers: for every
reduction op and world size (including non-powers-of-two), training with
one OS process per rank over a shared-memory arena is the serial
reference step of ``tests/reference_step.py``, byte for byte.  And
however a run ends —
normal close, fault-plan kill mid-step — no ``/dev/shm`` segment may
survive it.
"""

import multiprocessing
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
from repro.data.sampler import BatchIterator, ShardedSampler
from repro.models import BertConfig, MiniBERT
from repro.models.mlp import MLP
from repro.optim import SGD
import repro.train.trainer as train_trainer
from repro.train.trainer import (
    FusedRankExecutor, ParallelTrainer, SerialRankExecutor, _in_process_executor,
    _param_publisher, _ProcessRankWorker, _specialized_kernels, build_rank_executor,
    phased_step,
)
from tests.rank_state import (
    CODEC_STACKS, LOSSY, OPTIMIZERS, OVERFLOWING, assert_same_bytes, dist_state,
)
from tests.reference_step import cell, check_run


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


def _task():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((128, 12)).astype(np.float32)
    y = (x @ rng.standard_normal((12, 4))).argmax(axis=1)
    return x, y, MLP((12, 16, 4), rng=np.random.default_rng(3))


class TestBitExactness:
    """Every cell under rank processes is the reference step."""

    @pytest.mark.parametrize("op", ["sum", "average", "adasum"])
    @pytest.mark.parametrize("num_ranks", [2, 3, 5, 8])
    def test_processes_match_serial(self, op, num_ranks):
        check_run(cell(op=op, num_ranks=num_ranks, execution="processes"),
                  elastic=False)

    @pytest.mark.parametrize(
        "topology,gpus_per_node", [("linear", 1), ("ring", 1), ("tree", 1),
                                   ("hierarchical", 2)],
    )
    def test_processes_across_topologies(self, topology, gpus_per_node):
        check_run(cell(topology=topology, gpus_per_node=gpus_per_node,
                       execution="processes"), elastic=False)

    def test_processes_with_accumulation(self):
        check_run(cell(num_ranks=3, accumulation=2, execution="processes"),
                  elastic=False)

    def test_spawn_start_method_matches(self):
        # Spawn-safety: workers bootstrap from pickles alone.
        check_run(cell(num_ranks=2, execution="processes"), start_method="spawn",
                  elastic=False)


@pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
class TestWorkerHeldState:
    """Rank workers hold the live optimizer slots and residual rows:
    every observable — per-step losses, lr, wire bytes and skips, model
    bytes, ``pack_dist_state`` and the residual rows pulled from the
    live pool — equals the reference step's."""

    def test_plain_steps(self, optimizer, wire_codecs):
        check_run(cell(execution="processes", optimizer=optimizer,
                       wire_codecs=wire_codecs), elastic=False)

    def test_accumulation(self, optimizer, wire_codecs):
        check_run(cell(execution="processes", optimizer=optimizer,
                       wire_codecs=wire_codecs, accumulation=2), elastic=False)

    def test_probe_reads_raw_gradients(self, optimizer, wire_codecs):
        # The probe must see gradients, not deltas or decoded rows: the
        # workers finish their rows in a round of their own, after it.
        check_run(cell(execution="processes", optimizer=optimizer,
                       wire_codecs=wire_codecs, probe=True), elastic=False)

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

    def test_checkpoint_crosses_backends(self, optimizer, wire_codecs):
        """``save_checkpoint`` from a live trainer of one backend,
        ``load_checkpoint`` into a live trainer of the other (one step
        into a run of its own, so a live pool holds state the load must
        replace): the straight run's bytes, residual rows included."""
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs)
        check_run(cell(execution="processes", resume_at=1, loader="serial", **kw),
                  elastic=False)
        check_run(cell(resume_at=2, loader="processes", **kw), elastic=False)


@pytest.mark.parametrize("optimizer", sorted(OVERFLOWING))
def test_forced_fp16_overflow(optimizer):
    """Overflowing steps are skipped on the one verdict the parent
    gives: scale backed off, the workers' residual rows rolled back,
    the rank optimizers advanced — as the reference step does it."""
    check_run(cell(spike=True, optimizer=optimizer, wire_codecs=LOSSY, microbatch=1,
                   execution="processes"), elastic=False)


def test_spawned_workers_hold_state():
    # Spawn pickles the parent's optimizers and pipeline beside the
    # model; the (unpicklable) optimizer factory never crosses.
    check_run(cell(execution="processes", optimizer="adam", wire_codecs=LOSSY),
              start_method="spawn", elastic=False)


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


def _answer(conn):
    assert conn.poll(60), "the forked worker did not answer"
    return conn.recv()


def _serve_rank_worker(conn, spec, validations):
    """A forked child: report the engine verdicts it inherited, build the
    rank-1 worker from a pickle of ``spec`` (as ``spawn`` would) and
    answer each index array sent down ``conn`` with the step's reply,
    whether it holds a validated engine, and its validation passes."""
    conn.send(len(train_trainer._ENGINE_VERDICTS))
    del validations[:]  # the parent's, inherited with its memory
    worker = _ProcessRankWorker(1, pickle.loads(pickle.dumps(spec)))
    try:
        while (idx := conn.recv()) is not None:
            loss, overflow = worker(("step", idx, False, None))
            local = worker.local
            conn.send((loss, overflow, isinstance(local, FusedRankExecutor)
                       and local.engine is not None, local._validated, len(validations)))
    finally:
        worker.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_rank_worker_validates_and_keeps_the_engine(monkeypatch):
    """A ``_ProcessRankWorker`` in a forked process, after its parent
    validated the same MiniBERT computation: the child inherits no
    verdict, validates the engine at one rank itself on its first step,
    keeps it, and its row holds the loop's bytes."""
    tokens, model = _bert_task()
    validations = []
    validate = FusedRankExecutor._validate

    def counted(self, *args):
        validations.append(self)
        return validate(self, *args)

    monkeypatch.setattr(FusedRankExecutor, "_validate", counted)
    heap = GradientArena.from_model(model, 3)
    with _specialized_kernels():  # as in the worker
        _in_process_executor(model, nn.CrossEntropyLoss(), tokens, tokens, 2, 1,
                             heap).compute([np.arange(2)], ranks=[1])
    assert len(validations) == 1
    assert list(train_trainer._ENGINE_VERDICTS.values()) == [True]
    grads = SharedGradientArena.from_model(model, 3)
    params = SharedGradientArena(grads.layout, 1, dtype=np.float32)
    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe()
    child = None
    try:
        spec = {
            "model": model, "loss_fn": nn.CrossEntropyLoss(), "x": tokens, "y": tokens,
            "layout": grads.layout, "grad_segment": grads.name,
            "param_segment": params.name, "num_ranks": 3,
            "grad_dtype": grads.dtype, "param_dtype": params.dtype,
            "microbatch": 2, "accumulation": 1, "reducer": StrategyReducer(),
            "rank_optimizers": [], "pipeline": None,
        }
        _param_publisher(model, params)()
        child = ctx.Process(target=_serve_rank_worker, args=(child_conn, spec, validations))
        child.start()
        child_conn.close()  # a child that dies closes the pipe
        assert _answer(conn) == 0, "the worker inherited its parent's verdicts"
        loop = SerialRankExecutor(model, spec["loss_fn"], tokens, tokens, 2, 1, heap)
        for step, idx in enumerate((np.arange(2), np.arange(2, 4))):
            conn.send(idx)
            loss, overflow, engine, validated, passes = _answer(conn)
            assert [loss] == loop.compute([idx], ranks=[1]) and not overflow
            assert grads.row(1).tobytes() == heap.row(1).tobytes(), step
            assert engine and validated == {(1, (2, 8))} and passes == 1
        conn.send(None)
    finally:
        if child is not None:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
        params.unlink()
        grads.unlink()
    assert child.exitcode == 0


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
        grad_bytes = sum(p.data.nbytes for p in model.parameters())
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
