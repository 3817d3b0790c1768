"""ElasticTrainer under ``execution="processes"``.

The elastic contract extends to the process backend: failure-free runs
are bit-identical to serial elastic runs, a kill evicts the dead rank
and the rebuilt world *respawns* the worker pool over freshly-sized
shared segments, and no ``/dev/shm`` segment survives any of it.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import RunConfig, leaked_shared_segments
from repro.core.arena import SharedGradientArena
from repro.elastic import ElasticSchedule, ElasticTrainer
from repro.models.mlp import MLP
from repro.optim import SGD
from tests.rank_state import (
    CODEC_STACKS, OPTIMIZERS, assert_same_bytes, dist_state, step_record,
)


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    before = leaked_shared_segments()
    yield
    assert leaked_shared_segments() == before


def _run(execution, schedule=None, num_ranks=4, max_steps=4, optimizer="sgd",
         wire_codecs=(), reduce_mode="parent", dropped=None, trace=None,
         **trainer_kwargs):
    """One (partial) elastic epoch; returns (loss, params, size, recoveries).

    ``optimizer`` names an entry of ``OPTIMIZERS``; ``dropped`` seeds the
    straggler drop list (global rank -> steps left).  A ``trace`` dict
    receives the per-step loss / lr / wire bytes / skips / world size
    and :func:`dist_state` pulled from the still-open trainer.
    """
    model = MLP((10, 16, 3), rng=np.random.default_rng(5))
    rng = np.random.default_rng(11)
    x = rng.standard_normal((96, 10)).astype(np.float32)
    y = (x @ rng.standard_normal((10, 3))).argmax(axis=1)
    config = RunConfig(
        op="adasum", topology="tree", num_ranks=num_ranks, microbatch=4,
        seed=0, execution=execution, faults=schedule, wire_codecs=wire_codecs,
        reduce_mode=reduce_mode if execution == "processes" else "parent",
    )
    trainer = ElasticTrainer.from_config(
        model, nn.CrossEntropyLoss(), OPTIMIZERS[optimizer], x, y, config,
        **trainer_kwargs,
    )
    try:
        if dropped is not None:
            trainer._dropped = dict(dropped)
        if trace is None:
            loss = trainer.train_epoch(0, max_steps=max_steps)
        else:
            trainer.begin_epoch(0)
            steps = trace["per_step"] = []
            while trainer.iterator.has_next() and len(steps) < max_steps:
                step_loss = trainer.train_step()
                steps.append((step_loss, *step_record(trainer.dist_opt),
                              trainer.membership.size))
            loss = float(np.mean([step[0] for step in steps]))
            trace["live"] = dist_state(model, trainer.dist_opt, trainer.membership)
        params = {n: p.data.copy() for n, p in model.named_parameters()}
        return loss, params, trainer.membership.size, list(trainer.recoveries)
    finally:
        trainer.close()


def test_failure_free_matches_serial_elastic():
    loss_s, params_s, _, _ = _run("serial")
    loss_p, params_p, _, _ = _run("processes")
    assert loss_p == loss_s
    for name in params_s:
        np.testing.assert_array_equal(
            params_s[name].view(np.uint8), params_p[name].view(np.uint8),
            err_msg=f"parameter {name} diverged",
        )


def test_kill_rebuilds_pool_at_new_size_and_matches_serial():
    loss_p, params_p, size_p, rec_p = _run(
        "processes", ElasticSchedule().kill(step=1, global_rank=2)
    )
    assert size_p == 3
    assert rec_p and rec_p[0]["kind"] == "kill"
    loss_s, params_s, size_s, _ = _run(
        "serial", ElasticSchedule().kill(step=1, global_rank=2)
    )
    assert size_s == 3 and loss_p == loss_s
    for name in params_s:
        np.testing.assert_array_equal(
            params_s[name].view(np.uint8), params_p[name].view(np.uint8),
            err_msg=f"post-recovery parameter {name} diverged",
        )


def _traced(execution, schedule=None, **kw):
    trace = {}
    kw.setdefault("max_steps", 6)
    trace["result"] = _run(execution, schedule, trace=trace, **kw)
    return trace


@pytest.mark.parametrize("reduce_mode", ["parent", "workers"])
@pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
class TestWorkerHeldStateSurvivesTheWorld:
    """The workers hold the live optimizer slots; snapshots pull them,
    and a rebuilt pool is built from the restored parent objects."""

    def test_failure_free(self, optimizer, wire_codecs, reduce_mode):
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs)
        assert_same_bytes(_traced("serial", **kw),
                          _traced("processes", reduce_mode=reduce_mode, **kw))

    @pytest.mark.parametrize("snapshot_every", [1, 2])
    def test_kill_rolls_back_to_pulled_state(self, optimizer, wire_codecs,
                                             reduce_mode, snapshot_every):
        # The kill lands two commits in: the survivors restart from the
        # snapshot (the state pulled at that commit, one step old with
        # snapshot_every=2), never from what the dead pool held.
        kw = dict(optimizer=optimizer, wire_codecs=wire_codecs,
                  snapshot_every=snapshot_every)
        ref = _traced("serial", ElasticSchedule().kill(step=3, global_rank=2), **kw)
        got = _traced("processes", ElasticSchedule().kill(step=3, global_rank=2),
                      reduce_mode=reduce_mode, **kw)
        assert ref["result"][2] == 3 and ref["result"][3][0]["kind"] == "kill"
        assert_same_bytes(ref, got)


@pytest.mark.parametrize("wire_codecs", CODEC_STACKS, ids=["raw", "lossy"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
def test_dropped_straggler_keeps_its_optimizer_still(optimizer, wire_codecs):
    # participants ⊂ active: rank 0 computes but is not reduced for two
    # steps, so its optimizer — the one ``dist_opt.lr`` reads — must
    # not step in its worker either.  (Drop aging reads cluster traces:
    # the parent reduce only.)
    kw = dict(optimizer=optimizer, wire_codecs=wire_codecs, dropped={0: 2})
    ref = _traced("serial", **kw)
    counts = {g: st["step_count"] for g, st in ref["live"]["packed"]["per_rank"].items()}
    assert counts == {0: 4, 1: 6, 2: 6, 3: 6}
    assert_same_bytes(ref, _traced("processes", **kw))


@pytest.mark.parametrize("reduce_mode", ["parent", "workers"])
def test_checkpoint_and_restore_on_a_live_pool(reduce_mode, tmp_path):
    """``save_checkpoint`` pulls the workers' optimizer state into the
    file; ``restore_from_checkpoint`` two steps later pushes the file's
    state over what the live workers hold by then."""
    def journey(execution):
        model = MLP((10, 16, 3), rng=np.random.default_rng(5))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((96, 10)).astype(np.float32)
        y = (x @ rng.standard_normal((10, 3))).argmax(axis=1)
        config = RunConfig(
            op="adasum", topology="tree", num_ranks=4, microbatch=4, seed=0,
            execution=execution, wire_codecs=CODEC_STACKS[1],
            reduce_mode=reduce_mode if execution == "processes" else "parent",
        )
        path = tmp_path / f"{execution}.npz"
        with ElasticTrainer.from_config(
            model, nn.CrossEntropyLoss(), OPTIMIZERS["adam"], x, y, config,
            snapshot_every=3,
        ) as trainer:
            trainer.begin_epoch(0)
            losses = [trainer.train_step() for _ in range(2)]
            trainer.save_checkpoint(path)
            losses += [trainer.train_step() for _ in range(2)]
            trainer.restore_from_checkpoint(path)
            losses += [trainer.train_step() for _ in range(3)]
            return losses, dist_state(model, trainer.dist_opt, trainer.membership)

    assert_same_bytes(journey("serial"), journey("processes"))


def test_rebuild_swaps_segments_without_leaking():
    model = MLP((10, 16, 3), rng=np.random.default_rng(5))
    rng = np.random.default_rng(11)
    x = rng.standard_normal((96, 10)).astype(np.float32)
    y = rng.integers(0, 3, 96)
    config = RunConfig(
        op="adasum", topology="tree", num_ranks=4, microbatch=4,
        execution="processes",
        faults=ElasticSchedule().kill(step=1, global_rank=0),
    )
    trainer = ElasticTrainer.from_config(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1), x, y, config,
    )
    try:
        assert isinstance(trainer.arena, SharedGradientArena)
        first_arena = trainer.arena
        first_segments = set(leaked_shared_segments())
        trainer.train_epoch(0, max_steps=3)
        assert trainer.membership.size == 3
        # The rebuilt world runs on NEW segments sized for 3 ranks...
        assert trainer.arena is not first_arena
        assert trainer.arena.num_ranks == 3
        # ...and the 4-rank world's segments are gone already (unlinked
        # during the rebuild, not deferred to close/atexit).
        assert first_arena.name not in leaked_shared_segments()
        assert set(leaked_shared_segments()) != first_segments
    finally:
        trainer.close()


def test_threads_execution_rejected():
    model = MLP((10, 16, 3))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 10)).astype(np.float32)
    y = rng.integers(0, 3, 32)
    with pytest.raises(ValueError, match="serial.*processes|processes.*serial"):
        ElasticTrainer(
            model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr=0.1),
            x, y, RunConfig(num_ranks=2, microbatch=4, execution="threads"),
        )
