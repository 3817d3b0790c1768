"""What a steady elastic step no longer re-derives, counted.

Once a world is built, a step walks no module tree (the flattened
lists are cached until the structure changes) and lands each
parameter's rank-stacked gradient in the arena with one write.
The counts come from monkeypatching the primitives themselves, so the
guard measures the work, not a counter the code under test keeps.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro import nn
from repro.core import RunConfig
from repro.elastic import ElasticTrainer
from repro.models import MLP
from repro.optim import SGD

STEADY_STEPS = 6


class _CountingDict(OrderedDict):
    """A module's registration dict that counts every iteration."""

    counter = None  # a one-element list shared by every instance

    def _seen(self):
        if self.counter is not None:
            self.counter[0] += 1

    def __iter__(self):
        self._seen()
        return super().__iter__()

    def items(self):
        self._seen()
        return super().items()

    def keys(self):
        self._seen()
        return super().keys()

    def values(self):
        self._seen()
        return super().values()


@pytest.fixture
def trainer():
    """The 8-rank MLP of the ``elastic_faults`` workload, one step in."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((512, 16)).astype(np.float32)
    y = (x @ rng.standard_normal((16, 4)).astype(np.float32)).argmax(axis=1)
    config = RunConfig(op="adasum", topology="tree_any", num_ranks=8,
                       microbatch=4, seed=0)
    trainer = ElasticTrainer(
        MLP((16, 32, 4), rng=np.random.default_rng(1)), nn.CrossEntropyLoss(),
        lambda ps: SGD(ps, 0.05), x, y, config, snapshot_every=1,
    )
    trainer.begin_epoch(0)
    trainer.train_step()  # warm-up: builds every cache, validates the engine
    yield trainer
    trainer.close()


def _steps(trainer):
    for _ in range(STEADY_STEPS):
        trainer.train_step()


def test_steady_steps_walk_no_module_tree(trainer, monkeypatch):
    walks = [0]
    monkeypatch.setattr(_CountingDict, "counter", walks)
    for mod in list(trainer.model.modules()):
        for attr in ("_parameters", "_modules", "_buffers"):
            object.__setattr__(mod, attr, _CountingDict(getattr(mod, attr)))
    _steps(trainer)
    assert walks[0] == 0


def test_each_parameter_lands_with_one_write(trainer, monkeypatch):
    arena = trainer.arena
    assert trainer.executor.engine is not None  # the rank-stacked pass
    writes = []
    copyto = np.copyto

    def counting(dst, src, *args, **kwargs):
        if np.shares_memory(dst, arena.data):
            writes.append(dst.shape)
        return copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", counting)
    _steps(trainer)
    shapes = [(8,) + p.shape for p in trainer.model.parameters()]
    assert writes == shapes * STEADY_STEPS
