"""The reduction engine's litmus test: a new aggregation operator is one
registry entry plus tests.

Two ops are registered here and nowhere else — the ``MedianStrategy``
of docs/architecture.md, which has only a flat kernel, and a toy
pairwise op with a pair schedule — and each builds a ``RunConfig`` and
trains through every layer: the serial trainer, overlap buckets, rank
processes (worker reduce too, for the op that has a schedule), an
elastic run that loses a rank, a scheduler job and the CLI's ``train``
subcommand.  Nothing outside this file changes to add them, and
``monkeypatch.setitem`` takes them out of the registry again, so every
other test still sees the 15 built-in cells.
"""

import numpy as np
import pytest

from repro import cli, nn
from repro.core import DistributedOptimizer, RunConfig, strategies
from repro.core.strategies import ReduceStrategy, pair_schedule
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models import MLP
from repro.optim import SGD
from repro.scheduler import JobSpec, Scheduler
from repro.train import ParallelTrainer


class MedianStrategy(ReduceStrategy):
    """docs/architecture.md's example: the elementwise median of the
    ranks' gradients, before one shared optimizer step."""

    op, topology = "median", "tree"
    post_optimizer = False     # raw gradients, one shared optimizer step
    scales_with_world = False  # a median does not grow with the world

    def combine_flat(self, data, boundaries=None):
        return np.median(data, axis=0).astype(data.dtype)


class MidpointStrategy(ReduceStrategy):
    """A toy pairwise op: every hop of the power-of-two-block tree keeps
    the midpoint of its two rows; it combines Figure-3 deltas."""

    op, topology = "midpoint", "tree"
    post_optimizer = True

    def combine_pair(self, acc, other, boundaries=None, out=None):
        out = np.empty_like(acc) if out is None else out
        np.add(acc, other, out=out)
        np.multiply(out, 0.5, out=out)
        return out

    def pair_schedule(self, n):
        return [[(d, s, "pair") for d, s in level] for level in pair_schedule(n)]

    def combine_flat(self, data, boundaries=None):
        rows = data.copy()
        for level in self.pair_schedule(data.shape[0]):
            for dst, src, kind in level:
                self.pair_combine(kind, rows[dst], rows[src], boundaries, out=rows[dst])
        return rows[0]


@pytest.fixture(params=[MedianStrategy(), MidpointStrategy()], ids=lambda s: s.op)
def new_op(request, monkeypatch):
    cell = request.param
    monkeypatch.setitem(strategies._REGISTRY, (cell.op, cell.topology), cell)
    return cell


def _task(n=128, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _model():
    return MLP((6, 8, 2), rng=np.random.default_rng(1))


def _sgd(params):
    return SGD(params, 0.1, momentum=0.9)


def _config(cell, **changes):
    fields = {"num_ranks": 4, "microbatch": 4, **changes}
    return RunConfig(op=cell.op, topology=cell.topology, **fields)


def _train(config, steps=4, **kwargs):
    """Train ``steps`` steps; returns the final parameters."""
    x, y = _task()
    model = _model()
    with ParallelTrainer(model, nn.CrossEntropyLoss(), _sgd, x, y, config,
                         **kwargs) as trainer:
        assert np.isfinite(trainer.train_epoch(0, max_steps=steps))
    return [p.data.tobytes() for p in model.parameters()]


def test_the_op_is_its_registered_name_and_facts(new_op):
    config = _config(new_op)
    assert (config.op, config.topology) == (new_op.op, new_op.topology)
    dist = DistributedOptimizer(_model(), _sgd, config)
    assert dist.op == new_op.op
    assert dist.reducer.strategy is new_op
    assert dist.post_optimizer_mode is new_op.post_optimizer


def test_serial_trainer_and_overlap_buckets(new_op):
    start = [p.data.tobytes() for p in _model().parameters()]
    phased = _train(_config(new_op, bucket_cap_mb=1e-4))
    assert phased != start
    # Both ops are elementwise, so reducing bucket by bucket as the
    # gradients land is bit-identical to the whole-row step.
    assert _train(_config(new_op, overlap=True, bucket_cap_mb=1e-4)) == phased


def test_rank_processes(new_op):
    serial = _train(_config(new_op))
    processes = _config(new_op, execution="processes")
    assert _train(processes, start_method="fork") == serial
    if new_op.pair_schedule(4) is None:
        with pytest.raises(ValueError, match="pair-combine schedule"):
            processes.replace(reduce_mode="workers")
    else:
        workers = processes.replace(reduce_mode="workers")
        assert _train(workers, start_method="fork") == serial


def test_elastic_run_survives_a_kill(new_op):
    x, y = _task()
    config = _config(new_op, faults=ElasticSchedule().kill(2, 1))
    with ElasticTrainer(_model(), nn.CrossEntropyLoss(), _sgd, x, y,
                        config) as trainer:
        assert np.isfinite(trainer.train_epoch(0))
    assert len(trainer.recoveries) == 1
    assert trainer.num_ranks == 3


def test_scheduler_job(new_op):
    spec = JobSpec(name="new-op", arrival=0.0, config=_config(new_op, num_ranks=2))
    with Scheduler(pool_size=4) as sched:
        sched.submit(spec)
        payload = sched.run()
    assert payload["aggregate"]["jobs"]["completed"] == 1
    assert payload["jobs"][0]["op"] == new_op.op


def test_cli_train_accepts_the_op(new_op, capsys):
    argv = ["train", "--op", new_op.op, "--topology", new_op.topology,
            "--execution", "serial", "--ranks", "2", "--steps", "2",
            "--samples", "64"]
    assert cli.main(argv) == 0
    assert "serial" in capsys.readouterr().out
