"""The five workloads.

Each workload turns a seed into inputs, hands them to the program
through its public API (``RunConfig`` + ``from_config``), and runs the
work in homogeneous timed **blocks**.  A block also makes progress
towards the workload's *goal* — a held-out loss target for the three
trainer workloads, two exactly-once epochs under four rank kills for
``elastic_faults``, a drained 60-job trace for ``sched_trace`` — and
``goal_steps`` collects how many steps each reached goal took.

What the seed controls.  Steps-to-target of a *single* SGD run moves by
20-45 % (quartile distance over median) between seeds when the seed
also redraws the task, by ~19 % when it redraws the samples and the
starting weights, and by 7-10 % when it redraws only the samples; a
driver that compares medians across seeds cannot see a 10 % regression
through the first two.  So the task is part of the workload definition
(the digit templates, the corpus' transition structure, the starting
weights, the *shape* of the job trace: fixed generator seeds below),
the seed draws everything else (which samples, their order, the
held-out set, which ranks die, which job arrives when and what it
trains on), the target sits on the steepest stretch of the held-out
loss curve, and a run trains several short independent **episodes** and
reports their median.  That brings the spread of ``steps_to_target``
across seeds to 1.3-4.2 %.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.comm.tracing import CommTracer
from repro.core.config import RunConfig
from repro.data import SyntheticTextCorpus, make_mnist_like
from repro.data.text_like import MASK
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models import MLP, BertConfig, LeNet5, MiniBERT
from repro.optim import SGD, Adam, LinearWarmupDecay
from repro.scheduler import Scheduler, generate_trace
from repro.tensor import no_grad
from repro.train import ParallelTrainer

from perfbench.spans import BLOCK, Tracer

#: Generator seed of everything that defines a *task* rather than a
#: draw from it (see the module docstring).
TASK_SEED = 0


@dataclasses.dataclass
class Block:
    """One timed block: wall seconds and the work it committed."""

    wall_s: float
    steps: int
    samples: int


def _subseed(*parts: int) -> np.random.Generator:
    return np.random.default_rng([int(p) for p in parts])


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _crossing(prev: Optional[Tuple[int, float]], step: int, loss: float, target: float) -> float:
    """Step at which the held-out loss met ``target``, interpolated
    linearly between the last two evaluations (exact for a given seed)."""
    if prev is None or prev[1] <= target:
        return float(step)
    p_step, p_loss = prev
    return p_step + (p_loss - target) / (p_loss - loss) * (step - p_step)


class Workload:
    """Common surface the harness drives; see the module docstring."""

    name = ""
    #: CPUs the measuring process may use; ``None`` leaves the mask alone.
    #: Threads under the GIL cannot run Python in parallel, and when the
    #: kernel spreads them over two cores anyway the lock ping-pongs
    #: between the cores: the 8-rank-thread collective then costs
    #: 3.0-4.2 ms a step in two unstable modes instead of a steady 2.9 ms
    #: on one core.  So every workload whose concurrency is threads runs
    #: on one CPU; only the process backend gets them all.
    cpus: Optional[int] = 1
    #: Per block, the seconds each recovery took (only faults recover).
    recovery_s: Sequence[Sequence[float]] = ()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = int(seed)
        self.smoke = smoke
        self.tracer: Optional[Tracer] = None
        self.goal_steps: List[float] = []
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0

    def span(self, name: str, **kwargs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **kwargs)

    def begin_traced(self, tracer: Tracer) -> None:
        """Blocks from here on are recorded by ``tracer``."""
        self.tracer = tracer

    # -- the harness calls these, in this order ------------------------
    def setup(self) -> None:
        """Generate inputs, build the first unit, run one warm-up step."""
        raise NotImplementedError

    def block(self, index: int) -> Block:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Digest of the first goal's outputs; equal across processes
        for equal seeds (the cross-process determinism check)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` or an unfinished goal still holds."""

    def finish(self, oracle: bool = False) -> Dict:
        """Close, run the end-of-run checks; returns the exact (count)
        metrics and per-layer counters of this workload."""
        raise NotImplementedError

    def input_digest(self) -> str:
        """Digest of the generated inputs (same seed -> same digest)."""
        raise NotImplementedError

    def check(self, name: str, ok: bool) -> None:
        """Record one correctness check (a failure counts as a failed operation)."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.attempted += 1
        self.failed += not ok


# ======================================================================
# Trainer workloads: short independent episodes to a held-out loss target
# ======================================================================
class TrainerWorkload(Workload):
    """A goal is one episode: a fresh trainer taken to ``target_loss`` on
    the held-out set, evaluated after every block."""

    ranks = 1
    microbatch = 1
    steps_per_block = 24
    target_loss = 0.0
    #: An episode that has not met the target by here is a failure.
    cap_steps = 0
    oracle_steps = 32

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self._episode = 0
        self._trainer: Optional[ParallelTrainer] = None
        self._stream: Optional[Iterator] = None
        self._eval_set: Tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))
        self._steps = 0
        self._prev: Optional[Tuple[int, float]] = None
        self._first_losses: List[float] = []
        self._tracers: List[CommTracer] = []
        self.capped = 0
        self.wire_bytes = 0
        self.train_steps = 0
        self.traced_steps = 0
        self.skipped_steps = 0
        self.last_loss = float("nan")

    # -- per-workload pieces -------------------------------------------
    def data(self, episode: int):
        """``(x_train, y_train, x_eval, y_eval)`` for one episode."""
        raise NotImplementedError

    def model(self, episode: int):
        raise NotImplementedError

    def optimizer_factory(self) -> Callable:
        raise NotImplementedError

    def config(self, episode: int) -> RunConfig:
        raise NotImplementedError

    def oracle_config(self, episode: int) -> RunConfig:
        """The serial, phased configuration this one must match bit for bit."""
        return self.config(episode)

    def trace_kwargs(self) -> Dict:
        """Extra ``from_config`` keywords for a traced run (program-side tracers)."""
        return {}

    # -- episodes --------------------------------------------------------
    def _run_seed(self, episode: int) -> int:
        return self.seed * 1000 + episode

    def _build(self, episode: int, config: RunConfig, **kwargs) -> ParallelTrainer:
        x, y, xe, ye = self.data(episode)
        self._eval_set = (xe, ye)
        return ParallelTrainer.from_config(
            self.model(episode), nn.CrossEntropyLoss(), self.optimizer_factory(),
            x, y, config, **kwargs,
        )

    @staticmethod
    def _batches(trainer: ParallelTrainer) -> Iterator[Sequence[np.ndarray]]:
        for epoch in itertools.count():
            for _, rank_indices in trainer.iterator.epoch(epoch):
                yield rank_indices

    def _begin_episode(self) -> None:
        kwargs = self.trace_kwargs() if self.tracer is not None else {}
        self._tracers.extend(v for v in kwargs.values() if isinstance(v, CommTracer))
        self._trainer = self._build(self._episode, self.config(self._episode), **kwargs)
        self._stream = self._batches(self._trainer)
        self._steps = 0
        self._prev = None

    def _end_episode(self) -> None:
        trainer = self._trainer
        self.skipped_steps += trainer.dist_opt.skipped_steps
        trainer.close()
        self._trainer = None
        self._episode += 1

    def evaluate(self, model) -> float:
        """Mean held-out cross-entropy (float64 accumulation, batches of 256)."""
        xe, ye = self._eval_set
        total = 0.0
        model.eval()
        with no_grad():
            for lo in range(0, len(xe), 256):
                logits = model(xe[lo:lo + 256]).data
                logits = logits.reshape(-1, logits.shape[-1]).astype(np.float64)
                t = ye[lo:lo + 256].reshape(-1)
                logits -= logits.max(axis=1, keepdims=True)
                logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                total -= float(logp[np.arange(len(t)), t].sum())
        model.train()
        return total / ye.size

    def begin_traced(self, tracer: Tracer) -> None:
        # The program-side tracers attach when a trainer is built, so
        # the traced section starts on a fresh episode.
        super().begin_traced(tracer)
        self.close()

    def setup(self) -> None:
        self._begin_episode()
        self._trainer.train_step(next(self._stream))
        self.wire_bytes += self._trainer.dist_opt.last_wire_bytes
        self._steps = 1
        self.train_steps += 1
        self.attempted += 1

    def block(self, index: int) -> Block:
        if self._trainer is None:
            self._begin_episode()
        trainer, stream = self._trainer, self._stream
        n = self.steps_per_block
        t0 = time.perf_counter()
        with self.span(BLOCK, block=index):
            for _ in range(n):
                with self.span("data.next_batch"):
                    rank_indices = next(stream)
                trainer.train_step(rank_indices)
                self.wire_bytes += trainer.dist_opt.last_wire_bytes
            with self.span("eval", leaf=True):
                loss = self.evaluate(trainer.model)
        wall = time.perf_counter() - t0
        self._steps += n
        self.train_steps += n
        self.traced_steps += n * (self.tracer is not None)
        self.attempted += n
        self.last_loss = loss
        if self._episode == 0:
            self._first_losses.append(loss)
        if loss <= self.target_loss or self._steps >= self.cap_steps or self.smoke:
            self.attempted += 1
            if loss <= self.target_loss:
                self.goal_steps.append(_crossing(self._prev, self._steps, loss, self.target_loss))
            elif not self.smoke:
                self.capped += 1
                self.failed += 1
            self._end_episode()
        else:
            self._prev = (self._steps, loss)
        return Block(wall, n, n * self.ranks * self.microbatch)

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self._first_losses).encode()).hexdigest()

    def input_digest(self) -> str:
        return _digest(*self.data(0))

    # -- end-of-run checks ---------------------------------------------
    def _params_after(self, config: RunConfig, steps: int) -> str:
        trainer = self._build(0, config)
        try:
            for rank_indices in itertools.islice(self._batches(trainer), steps):
                trainer.train_step(rank_indices)
            return _digest(*(p.data for _, p in trainer.model.named_parameters()))
        finally:
            trainer.close()

    def oracle_check(self) -> bool:
        """This configuration vs its serial-phased oracle, bit for bit."""
        return self._params_after(self.config(0), self.oracle_steps) == self._params_after(
            self.oracle_config(0), self.oracle_steps
        )

    def close(self) -> None:
        if self._trainer is not None:
            self._end_episode()

    def finish(self, oracle: bool = False) -> Dict:
        self.close()
        self.failed += self.skipped_steps
        self.check("target_reached", self.capped == 0)
        if oracle:
            self.check("oracle_bit_identical", self.oracle_check())
        exact = {"wire_bytes_per_step": self.wire_bytes / self.train_steps}
        return {"exact": exact, "counters": self.counters()}

    def counters(self) -> Dict[str, float]:
        """Counts read off the program's public attributes and its own tracers."""
        out = {
            "train.ranks": float(self.ranks),
            "comm.codec.wire_bytes": self.wire_bytes / self.train_steps,
            "comm.codec.skipped_steps": float(self.skipped_steps),
            "eval.last_loss": self.last_loss,
            "comm.transport.ctrl_bytes":
                _control_plane_bytes(self._tracers) / max(self.traced_steps, 1),
        }
        out.update(_overlap_counters(self._tracers))
        return out


def _control_plane_bytes(tracers: Sequence[CommTracer]) -> int:
    """Pipe bytes recorded by the ``comm_tracer`` handed to the process backend."""
    return sum(
        ev.nbytes for t in tracers for ev in t.events if ev.op in ("send", "recv")
    )


def _overlap_counters(tracers: Sequence[CommTracer]) -> Dict[str, float]:
    """Buckets per step and comm time left exposed after compute ends.

    The ``overlap_tracer`` records, per step and relative to its start,
    one ``compute`` span on lane 0 and one ``allreduce`` span per bucket
    on lane 1.  Exposed comm is how long the last bucket ran past the
    end of compute — the only part of the reduction a step waits for.
    """
    steps = buckets = 0
    exposed = 0.0
    for t in tracers:
        computes = [ev for ev in t.per_rank(0) if ev.op == "compute"]
        comms = [ev for ev in t.per_rank(1) if ev.op == "allreduce"]
        if not computes or len(comms) % len(computes):
            continue
        per_step = len(comms) // len(computes)
        for i, comp in enumerate(computes):
            last = max(ev.t1 for ev in comms[i * per_step:(i + 1) * per_step])
            exposed += max(0.0, last - comp.t1)
        steps += len(computes)
        buckets += len(comms)
    if not steps:
        return {"core.overlap.buckets": 0.0, "core.overlap.exposed_comm_ms": 0.0}
    return {
        "core.overlap.buckets": buckets / steps,
        "core.overlap.exposed_comm_ms": exposed / steps * 1e3,
    }


class LenetTTA(TrainerWorkload):
    """Figure-6 LeNet-5, 4 serial ranks, Adasum before momentum SGD: the
    plain single-process baseline.  Kernels and ``compute_grads_into`` do
    the work; codec, IPC, overlap, elastic and scheduler do none."""

    name = "lenet_tta"
    ranks, microbatch = 4, 8
    target_loss = 2.0
    cap_steps = 480
    POOL, TRAIN, HELD_OUT = 6144, 4096, 512
    BASE_LR, TOTAL_STEPS, WARMUP = 0.01, 2880, 0.17

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        # One fixed task (digit templates); seeds draw samples from it.
        self._pool = make_mnist_like(self.POOL, noise=0.6, seed=TASK_SEED)

    def data(self, episode):
        x, y = self._pool
        order = _subseed(self.seed, episode, 0).permutation(self.POOL)
        tr, ev = order[: self.TRAIN], order[self.TRAIN: self.TRAIN + self.HELD_OUT]
        return x[tr], y[tr], x[ev], y[ev]

    def model(self, episode):
        return LeNet5(rng=np.random.default_rng(TASK_SEED))

    def optimizer_factory(self):
        schedule = LinearWarmupDecay(self.BASE_LR, self.TOTAL_STEPS, self.WARMUP)
        return lambda params: SGD(params, schedule, momentum=0.9)

    def config(self, episode):
        return RunConfig(
            op="adasum", adasum_pre_optimizer=True, num_ranks=self.ranks,
            microbatch=self.microbatch, seed=self._run_seed(episode),
        )

    def sequential_steps_to_target(self) -> float:
        """Steps the 1-rank sequential run needs on episode 0's data (paper §2.3).

        About one seed in ten the small-batch run collapses at the peak
        of the shared learning-rate schedule and never gets there; that
        run counts as its cap, which makes ``algo_efficiency`` a lower
        bound.  It is the baseline that failed then, not the program
        under test, so it is not a failed operation.
        """
        config = RunConfig(op="sum", num_ranks=1, microbatch=self.microbatch,
                           seed=self._run_seed(0))
        trainer = self._build(0, config)
        stream = self._batches(trainer)
        prev = None
        try:
            for step in range(1, self.ranks * self.cap_steps + 1):
                trainer.train_step(next(stream))
                if step % self.steps_per_block == 0:
                    loss = self.evaluate(trainer.model)
                    if loss <= self.target_loss:
                        return _crossing(prev, step, loss, self.target_loss)
                    prev = (step, loss)
        finally:
            trainer.close()
        return float(self.ranks * self.cap_steps)

    def finish(self, oracle=False):
        out = super().finish(oracle)
        if oracle and self.goal_steps:
            # The paired 1-rank run rides with the oracle check: once per
            # benchmark run, outside every timed block.
            out["exact"]["algo_efficiency"] = (
                self.sequential_steps_to_target() * self.microbatch
            ) / (self.goal_steps[0] * self.ranks * self.microbatch)
        return out


class _BertWorkload(TrainerWorkload):
    steps_per_block = 12
    target_loss = 1.5
    cap_steps = 240
    VOCAB, SEQ, TRAIN, HELD_OUT = 48, 16, 1024, 128
    CORRUPT = 0.25
    LR = 2e-3

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self._corpus = SyntheticTextCorpus(vocab_size=self.VOCAB, seed=TASK_SEED)

    def data(self, episode):
        # Denoising LM with dense targets: every position is scored, a
        # quarter of the inputs are replaced by [MASK].  (ignore_index
        # targets crash the fused engine, see README "Findings".)
        rng = _subseed(self.seed, episode, 0)
        tokens = self._corpus.sample_batch(self.TRAIN + self.HELD_OUT, self.SEQ, rng)
        inputs = tokens.copy()
        inputs[rng.random(tokens.shape) < self.CORRUPT] = MASK
        n = self.TRAIN
        return inputs[:n], tokens[:n], inputs[n:], tokens[n:]

    def model(self, episode):
        cfg = BertConfig(vocab_size=self.VOCAB, hidden=64, layers=2, heads=4,
                         max_seq_len=self.SEQ)
        return MiniBERT(cfg, rng=np.random.default_rng(TASK_SEED))

    def optimizer_factory(self):
        return lambda params: Adam(params, self.LR)


class BertProcsCodec(_BertWorkload):
    """MiniBERT on 4 rank processes, Figure-3 Adasum + Adam, worker
    reduce, lossy codec stack: the only place the control-plane pipes,
    the in-shm pair-combine schedule, the per-rank optimizer rewrite and
    the codecs all run.  The parent is the serial resource."""

    name = "bert_procs_codec"
    ranks, microbatch = 4, 4
    cpus = None  # rank workers are processes: real parallelism
    CODECS = ("fp16", "int8", "topk:0.01")

    def config(self, episode):
        return RunConfig(
            op="adasum", num_ranks=self.ranks, microbatch=self.microbatch,
            execution="processes", reduce_mode="workers", wire_codecs=self.CODECS,
            seed=self._run_seed(episode),
        )

    def oracle_config(self, episode):
        return self.config(episode).replace(execution="serial", reduce_mode="parent")

    def trace_kwargs(self):
        return {"comm_tracer": CommTracer()}


class BertOverlap(_BertWorkload):
    """Same model and effective batch on 8 ranks, overlapped: the same
    reduction and optimizer layers used the other way — bucketed, on the
    comm thread, through ``FlatOptimizerMirror`` and the fused rank
    engine — so a change that helps the phased path but costs this one
    shows."""

    name = "bert_overlap"
    ranks, microbatch = 8, 2

    def config(self, episode):
        return RunConfig(
            op="adasum", num_ranks=self.ranks, microbatch=self.microbatch,
            overlap=True, bucket_cap_mb=0.01, seed=self._run_seed(episode),
        )

    def oracle_config(self, episode):
        return self.config(episode).replace(overlap=False, bucket_cap_mb=None)

    def trace_kwargs(self):
        return {"overlap_tracer": CommTracer()}


# ======================================================================
# elastic_faults: one block = one fault episode
# ======================================================================
class ElasticFaults(Workload):
    """One block is one fault episode: build an ``ElasticTrainer`` (tiny
    MLP, 8 ranks), train two epochs through four rank kills, check every
    sample was visited exactly once per epoch.  Tensor kernels are idle;
    the simulated-cluster collective over rank threads and the
    supervisor dominate.  The only source of recovery latency."""

    name = "elastic_faults"
    SAMPLES, RANKS, MICROBATCH, EPOCHS = 2048, 8, 4, 2
    #: Steps at which one rank is killed (fixed, so every episode does
    #: the same work; the seed picks the victims).
    KILL_STEPS = (10, 30, 50, 80)

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self._episode = 0
        self._first: Optional[str] = None
        self.recovery_s: List[List[float]] = []   # per block
        self.commits = 0
        self.failed_attempts = 0
        self.wire_bytes = 0
        self._covered = True
        self._recovered = True

    def inputs(self, episode: int):
        rng = _subseed(self.seed, episode, 0)
        x = rng.standard_normal((self.SAMPLES, 16)).astype(np.float32)
        teacher = rng.standard_normal((16, 4)).astype(np.float32)
        victims = [int(g) for g in rng.permutation(self.RANKS)[: len(self.KILL_STEPS)]]
        return x, (x @ teacher).argmax(axis=1), victims

    def _config(self, episode: int, victims: Sequence[int]) -> RunConfig:
        faults = ElasticSchedule()
        for step, victim in zip(self.KILL_STEPS, victims):
            faults.kill(step, victim)
        return RunConfig(
            op="adasum", topology="tree_any", num_ranks=self.RANKS,
            microbatch=self.MICROBATCH, seed=self.seed * 1000 + episode, faults=faults,
        )

    def setup(self) -> None:
        # Warm-up: one fault-free committed step on a throwaway trainer.
        x, y, _ = self.inputs(0)
        with ElasticTrainer.from_config(
            MLP((16, 32, 4), rng=_subseed(self.seed, 0, 1)), nn.CrossEntropyLoss(),
            lambda ps: SGD(ps, 0.05), x, y, self._config(0, ()), snapshot_every=1,
        ) as trainer:
            trainer.begin_epoch(0)
            trainer.train_step()

    def block(self, index: int) -> Block:
        episode = self._episode
        x, y, victims = self.inputs(episode)
        model = MLP((16, 32, 4), rng=_subseed(self.seed, episode, 1))
        config = self._config(episode, victims)
        visited: List[List[int]] = []
        wire = 0
        t0 = time.perf_counter()
        with self.span(BLOCK, block=index):
            trainer = ElasticTrainer.from_config(
                model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05), x, y, config,
                snapshot_every=1,
            )
            try:
                for epoch in range(self.EPOCHS):
                    trainer.begin_epoch(epoch)
                    while trainer.iterator.has_next():
                        trainer.train_step()
                        wire += trainer.dist_opt.last_wire_bytes
                    visited.append(list(trainer.epoch_visited))
            finally:
                trainer.close()
        wall = time.perf_counter() - t0
        everything = list(range(self.SAMPLES))
        self._covered &= all(sorted(v) == everything for v in visited)
        self._recovered &= (
            len(trainer.recoveries) == len(self.KILL_STEPS)
            and trainer.num_ranks == self.RANKS - len(self.KILL_STEPS)
        )
        attempts = trainer.commits + len(trainer.recoveries)
        self.goal_steps.append(float(attempts))
        self.recovery_s.append(list(trainer.recovery_seconds))
        self.commits += trainer.commits
        self.failed_attempts += len(trainer.recoveries)
        self.wire_bytes += wire
        self.attempted += trainer.commits + 1
        if episode == 0:
            self._first = _digest(*(p.data for _, p in model.named_parameters()))
        self._episode += 1
        return Block(wall, attempts, self.EPOCHS * self.SAMPLES)

    def fingerprint(self) -> str:
        return str(self._first)

    def input_digest(self) -> str:
        x, y, victims = self.inputs(0)
        return _digest(x, y, np.asarray(victims))

    def finish(self, oracle: bool = False) -> Dict:
        self.check("exactly_once_coverage", self._covered)
        self.check("recovered_every_kill", self._recovered)
        attempts = self.commits + self.failed_attempts
        episodes = max(self._episode, 1)
        return {
            "exact": {"wire_bytes_per_step": self.wire_bytes / max(self.commits, 1)},
            "counters": {  # per episode
                "elastic.recoveries": sum(len(r) for r in self.recovery_s) / episodes,
                "elastic.failed_attempts": self.failed_attempts / episodes,
                "elastic.useful_attempt_ratio": self.commits / max(attempts, 1),
            },
        }


# ======================================================================
# sched_trace: one block = one drained job trace
# ======================================================================
class SchedTrace(Workload):
    """One block is one drained 60-job trace under the loans policy: the
    elastic runtime used differently — construct/teardown per job,
    lend/reclaim/pause/resume instead of kills.  A control-plane change
    that does not touch the jobs' step loop must show ~0 here."""

    name = "sched_trace"
    N_JOBS, POOL = 60, 8

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self._payloads: List[str] = []
        self._payload: Dict = {}
        self.specs = self.trace(12 if smoke else self.N_JOBS)

    def trace(self, n_jobs: int):
        """The fixed-shape trace, re-dealt by the seed.

        The job bodies (ranks, microbatch, model, samples, epochs,
        priority, rigidity) and the arrival instants come from one
        fixed ``generate_trace`` call, so every seed submits the same
        total work; the seed decides which body arrives at which
        instant and what data each job trains on.
        """
        base = generate_trace(n_jobs=n_jobs, pool_size=self.POOL, seed=TASK_SEED)
        rng = _subseed(self.seed, 0)
        specs = []
        for slot, pick in zip(base, rng.permutation(len(base))):
            body = base[int(pick)]
            config = body.config.replace(seed=int(rng.integers(0, 2**31 - 1)))
            specs.append(dataclasses.replace(
                body, name=slot.name, arrival=slot.arrival, config=config))
        return specs

    def _drain(self, specs) -> Dict:
        with Scheduler(pool_size=self.POOL, policy="loans") as sched:
            sched.submit_all(specs)
            return sched.run()

    def setup(self) -> None:
        self._drain(self.specs[:3])

    def block(self, index: int) -> Block:
        t0 = time.perf_counter()
        with self.span(BLOCK, block=index):
            payload = self._drain(self.specs)
        wall = time.perf_counter() - t0
        self._payload = payload
        self._payloads.append(json.dumps(payload, sort_keys=True))
        steps = sum(job["steps"] for job in payload["jobs"])
        self.goal_steps.append(float(steps))
        self.attempted += len(self.specs)
        self.failed += len(self.specs) - payload["aggregate"]["jobs"]["completed"]
        return Block(wall, steps, payload["aggregate"]["useful_samples"])

    def fingerprint(self) -> str:
        return hashlib.sha256(self._payloads[0].encode()).hexdigest()

    def input_digest(self) -> str:
        return hashlib.sha256(repr(self.specs).encode()).hexdigest()

    def finish(self, oracle: bool = False) -> Dict:
        agg = self._payload["aggregate"]
        self.check("payload_identical_across_blocks", len(set(self._payloads)) == 1)
        self.check("no_outstanding_loans", agg["loans"]["outstanding"] == 0)
        self.check("all_jobs_completed", agg["jobs"]["completed"] == len(self.specs))
        return {
            "exact": {
                "virtual_goodput": agg["goodput_samples_per_sec"],
                "jobs": float(len(self.specs)),
            },
            "counters": {
                "scheduler.loans": float(agg["loans"]["total"]),
                "scheduler.preemptions": float(agg["preemptions"]),
                "scheduler.wasted_samples": float(agg["wasted_samples"]),
                "scheduler.utilization": float(agg["utilization"]["active"]),
                "scheduler.arrivals": float(len(self.specs)),
            },
        }


WORKLOADS = {
    cls.name: cls
    for cls in (LenetTTA, BertProcsCodec, BertOverlap, ElasticFaults, SchedTrace)
}
