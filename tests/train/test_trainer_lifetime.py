"""What a closed trainer keeps: its model, its optimizer state, its
counters and records — never its training set, arena or step buffers.

Each setup trains 2 steps over a training set of at least 8 MB, keeps
the trainer referenced and closes it.  ``tracemalloc`` then shows the
traced memory falling by at least the training set's bytes and the
closed trainer pinning no more than its model, its optimizer state and
256 KiB.  The closed trainer refuses to step, and a checkpoint written
from it restores byte for byte.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedOptimizer, RunConfig
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.elastic.state import pack_dist_state
from repro.models import MLP, BertConfig, MiniBERT
from repro.optim import SGD, Adam, LinearWarmupDecay
from repro.train import ParallelTrainer, load_checkpoint, save_checkpoint

from tests.rank_state import LOSSY, assert_same_bytes

DATA_BYTES = 8 << 20
SLACK = 256 << 10


def _mlp_set():
    """4096 samples of 512 float32 features: 8 MiB of ``x``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4096, 512)).astype(np.float32)
    return x, (x[:, 0] > 0).astype(np.int64)


def _mlp():
    return MLP((512, 128, 2), rng=np.random.default_rng(1))


def _token_set():
    """131072 sequences of 8 tokens: 8 MiB of ``x`` and as much of ``y``."""
    tokens = np.random.default_rng(0).integers(0, 24, (131072, 8))
    return tokens, tokens.copy()


def _bert():
    config = BertConfig(vocab_size=24, hidden=64, layers=1, heads=2, max_seq_len=8)
    return MiniBERT(config, rng=np.random.default_rng(3))


def _adam(ps):
    return Adam(ps, lr=LinearWarmupDecay(0.02, 12))


def _momentum(ps):
    return SGD(ps, lr=LinearWarmupDecay(0.2, 12), momentum=0.9)


def _serial(x, y):
    config = RunConfig(op="adasum", num_ranks=4, microbatch=4, seed=0)
    return ParallelTrainer(_mlp(), nn.CrossEntropyLoss(), _momentum, x, y, config)


def _overlap(x, y):
    config = RunConfig(op="adasum", num_ranks=4, microbatch=2, seed=0,
                       overlap=True, bucket_cap_mb=0.001)
    return ParallelTrainer(_bert(), nn.CrossEntropyLoss(), _adam, x, y, config)


def _processes(x, y):
    config = RunConfig(op="adasum", num_ranks=2, microbatch=2, seed=0,
                       execution="processes", reduce_mode="workers",
                       wire_codecs=LOSSY)
    return ParallelTrainer(_bert(), nn.CrossEntropyLoss(), _adam, x, y, config)


def _elastic(x, y):
    config = RunConfig(op="adasum", num_ranks=4, microbatch=4, seed=0,
                       faults=ElasticSchedule().kill(0, 1))
    return ElasticTrainer(_mlp(), nn.CrossEntropyLoss(), _momentum, x, y, config)


SETUPS = {
    "serial": (_mlp_set, _serial),
    "overlap": (_token_set, _overlap),
    "processes": (_token_set, _processes),
    "elastic": (_mlp_set, _elastic),
}


def _train_two_steps(trainer):
    if isinstance(trainer, ElasticTrainer):
        trainer.begin_epoch(0)
        trainer.train_step()
        trainer.train_step()
        assert len(trainer.recoveries) == 1 and trainer.num_ranks == 3
        return
    batches = trainer.iterator.epoch(0)
    for _ in range(2):
        trainer.train_step(next(batches)[1])


def _state_nbytes(dist_opt) -> int:
    """Bytes of the optimizer-side state: slots and codec residual rows."""
    opts = dist_opt.rank_optimizers or [dist_opt.optimizer]
    slots = sum(
        np.asarray(arr).nbytes
        for opt in opts for slot in opt.state.values() for arr in slot.values()
    )
    pipe = dist_opt.wire_pipeline
    residuals = 0 if pipe is None else sum(r.nbytes for r in pipe._residuals.values())
    return slots + residuals


def _model_nbytes(model) -> int:
    return sum(p.data.nbytes for p in model.parameters()) + sum(
        np.asarray(b).nbytes for _, b in model.named_buffers()
    )


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _closed_run(name):
    """``(trainer, training-set bytes, traced before close, after close,
    before anything was built)`` for one setup."""
    make_data, build = SETUPS[name]
    # An identical run first: kernel caches and lazy registries fill
    # here, not inside the measurement.
    warm = build(*make_data())
    _train_two_steps(warm)
    warm.close()
    del warm
    tracemalloc.start()
    try:
        base = _traced()
        trainer = build(*make_data())
        data_bytes = trainer.x.nbytes + trainer.y.nbytes
        _train_two_steps(trainer)
        # The rank workers' state comes home before ``live``, so the
        # pull inside close() is not netted against the fall.
        trainer.dist_opt.pull_rank_state(residuals=True)
        live = _traced()
        trainer.close()
        closed = _traced()
    finally:
        tracemalloc.stop()
    return trainer, data_bytes, live, closed, base


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_a_closed_trainer_pins_only_its_model_and_state(name):
    trainer, data_bytes, live, closed, base = _closed_run(name)
    assert data_bytes >= DATA_BYTES
    assert live - closed >= data_bytes, (live - closed, data_bytes)
    allowed = _model_nbytes(trainer.model) + _state_nbytes(trainer.dist_opt) + SLACK
    assert closed - base <= allowed, (closed - base, allowed)
    assert trainer.arena is None and trainer.executor is None


def test_a_paused_world_pins_no_arena():
    """``pause()`` keeps the data, the model and the optimizer state for
    ``resume()``, but the Figure-3 mirror, which holds the arena's rows,
    goes with the executor: traced memory falls by at least the arena."""
    tracemalloc.start()
    try:
        trainer = _elastic(*_mlp_set())
        _train_two_steps(trainer)
        assert trainer.dist_opt.post_optimizer_mode
        arena_bytes = trainer.arena.data.nbytes
        live = _traced()
        trainer.pause()
        paused = _traced()
    finally:
        tracemalloc.stop()
    assert live - paused >= arena_bytes, (live - paused, arena_bytes)
    assert trainer.x is not None and trainer.arena is None
    trainer.resume()
    assert np.isfinite(trainer.train_step())
    trainer.close()


@pytest.fixture(params=sorted(SETUPS))
def closed(request):
    """A trainer of one setup, 2 steps in, with its state as the live
    run left it (pulled from the rank workers), then closed."""
    make_data, build = SETUPS[request.param]
    trainer = build(*make_data())
    _train_two_steps(trainer)
    ranks = getattr(trainer, "membership", range(trainer.num_ranks))
    before = pack_dist_state(trainer.dist_opt, ranks, {})
    params = {n: p.data.copy() for n, p in trainer.model.named_parameters()}
    trainer.close()
    trainer.close()  # idempotent
    return trainer, before, params


def test_a_closed_trainer_refuses_to_step(closed):
    trainer, _, _ = closed
    if isinstance(trainer, ElasticTrainer):
        cursor = trainer.iterator.state()
        for call in (trainer.train_step, lambda: trainer.begin_epoch(1),
                     trainer.finish_epoch, lambda: trainer.lend_ranks(1),
                     trainer.reclaim_ranks, trainer.resume):
            with pytest.raises(RuntimeError, match=r"close\(\)"):
                call()
        assert trainer.iterator.state() == cursor and trainer.num_ranks == 3
    else:
        with pytest.raises(RuntimeError, match=r"close\(\)"):
            trainer.train_step([np.arange(2)] * trainer.num_ranks)


def test_a_closed_trainer_keeps_its_model_state_and_counters(closed):
    trainer, before, params = closed
    assert trainer.global_step == 2
    ranks = getattr(trainer, "membership", range(trainer.num_ranks))
    assert_same_bytes(pack_dist_state(trainer.dist_opt, ranks, {}), before)
    assert_same_bytes({n: p.data for n, p in trainer.model.named_parameters()}, params)
    if isinstance(trainer, ElasticTrainer):
        assert [r["dead_global_ranks"] for r in trainer.recoveries] == [[1]]
        assert len(trainer.recovery_seconds) == 1 and trainer.loan_events == []
        assert len(trainer.epoch_visited) == 2 * 3 * 4


def test_a_checkpoint_of_a_closed_trainer_restores_byte_for_byte(closed, tmp_path):
    trainer, before, params = closed
    path = tmp_path / "closed.npz"
    save_checkpoint(path, trainer.model, dist_opt=trainer.dist_opt)
    model = _bert() if isinstance(trainer.model, MiniBERT) else _mlp()
    factory = _adam if isinstance(trainer.model, MiniBERT) else _momentum
    dist_opt = DistributedOptimizer(model, factory, trainer.config,
                                    num_ranks=trainer.num_ranks)
    load_checkpoint(path, model, dist_opt=dist_opt)
    assert_same_bytes({n: p.data for n, p in model.named_parameters()}, params)
    ranks = getattr(trainer, "membership", range(trainer.num_ranks))
    assert_same_bytes(pack_dist_state(dist_opt, ranks, {}), before)
