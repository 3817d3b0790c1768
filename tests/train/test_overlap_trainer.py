"""End-to-end overlap mode of :class:`ParallelTrainer`.

Covers the fused MiniBERT executor (validated once against serial
autograd, then trusted; a batch it rejects takes the hook-driven loop),
rank-stacked autograd's grad-ready hooks for models without one, and
the acceptance bit-identity of overlapped vs phased training at fp32
wire dtype.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import RunConfig
from repro.elastic.membership import Membership
from repro.elastic.state import pack_dist_state, restore_dist_state
from repro.models import MLP, LeNet5, MiniBERT
from repro.optim import SGD, Adam, LinearWarmupDecay
from repro.train import ParallelTrainer
from repro.train.trainer import FusedRankExecutor, StackedAutograd
from tests.reference_step import cell, check_run


def _assert_bit_identical(m1, m2):
    for (name, p), (_, q) in zip(m1.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(
            p.data.view(np.uint32), q.data.view(np.uint32),
            err_msg=f"parameter {name} diverged",
        )


def _train(model_fn, data_fn, opt_factory, overlap, steps=3, seed=0,
           loss_fn=None, **config_kw):
    model = model_fn()
    x, y = data_fn()
    config = RunConfig(op="adasum", num_ranks=4, microbatch=8, seed=seed,
                       overlap=overlap, bucket_cap_mb=0.01, **config_kw)
    trainer = ParallelTrainer(model, loss_fn or nn.CrossEntropyLoss(), opt_factory,
                              x, y, config)
    losses = []
    for step, rank_indices in trainer.iterator.epoch(0):
        if step >= steps:
            break
        losses.append(trainer.train_step(rank_indices))
    return model, trainer, losses


class TestOverlapTrainer:
    def test_mlp_overlap_matches_phased(self):
        check_run(cell(overlap=True, bucket_cap_mb=0.0002, optimizer="momentum"))

    def test_lenet_serial_hooks_match_phased(self):
        """LeNet has no registered engine — overlap runs rank-stacked
        autograd with grad-ready hooks, still bit-identical."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 1, 28, 28)).astype(np.float32)
        y = rng.integers(0, 10, 64)
        args = (lambda: LeNet5(rng=np.random.default_rng(0)),
                lambda: (x, y), lambda ps: SGD(ps, 0.01, momentum=0.9))
        m_phased, _, l1 = _train(*args, overlap=False, steps=2,
                                 adasum_pre_optimizer=True)
        m_overlap, trainer, l2 = _train(*args, overlap=True, steps=2,
                                        adasum_pre_optimizer=True)
        # FusedRankExecutor <=> a rank-order-free model; no registered
        # engine, so rank-stacked autograd (validated, never demoted).
        assert isinstance(trainer.executor, FusedRankExecutor)
        assert type(trainer.executor.engine) is StackedAutograd
        assert l1 == l2
        _assert_bit_identical(m_phased, m_overlap)

    def test_minibert_fused_engine_validated_and_identical(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 64, (64, 32))
        y = rng.integers(0, 64, (64, 32))
        args = (lambda: MiniBERT(rng=np.random.default_rng(0)),
                lambda: (x, y), lambda ps: Adam(ps, 1e-3))
        m_phased, _, l1 = _train(*args, overlap=False, steps=2)
        m_overlap, trainer, l2 = _train(*args, overlap=True, steps=2)
        # First overlapped step byte-compared fused vs serial autograd
        # and kept the fused engine.
        assert isinstance(trainer.executor, FusedRankExecutor)
        assert trainer.executor._validated and trainer.executor.engine is not None
        assert l1 == pytest.approx(l2, abs=0)
        _assert_bit_identical(m_phased, m_overlap)

    def test_minibert_ignore_index_targets_demote_and_match_phased(self):
        """Masked-LM targets carry ``ignore_index=-100`` positions the
        rank-fused engine cannot index; every such batch must take the
        hook-driven serial path instead, bit-identical to phased."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 64, (64, 32))
        y = rng.integers(0, 64, (64, 32))
        y[rng.random(y.shape) < 0.85] = -100
        args = (lambda: MiniBERT(rng=np.random.default_rng(0)),
                lambda: (x, y), lambda ps: Adam(ps, 1e-3))
        loss_fn = nn.CrossEntropyLoss(ignore_index=-100)
        m_phased, _, l1 = _train(*args, overlap=False, steps=2, loss_fn=loss_fn)
        m_overlap, trainer, l2 = _train(*args, overlap=True, steps=2,
                                        loss_fn=loss_fn)
        # Never accepted a batch, so never validated — and never trusted.
        assert isinstance(trainer.executor, FusedRankExecutor)
        assert not trainer.executor._validated
        assert l1 == l2
        _assert_bit_identical(m_phased, m_overlap)

    def test_overlap_with_process_backend_rejected(self):
        rng = np.random.default_rng(0)
        model = MLP((8, 4), rng=rng)
        with pytest.raises(ValueError, match="mutually exclusive"):
            ParallelTrainer(
                model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.1),
                rng.standard_normal((32, 8)).astype(np.float32),
                rng.integers(0, 4, 32),
                RunConfig(num_ranks=4, microbatch=8, overlap=True,
                          execution="processes"),
            )

    @pytest.mark.parametrize("overlap", [False, True])
    def test_partial_world_step_rejected(self, overlap):
        """A step must carry one index array per rank (bucket geometry
        and the arena assume every row participates)."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 12)).astype(np.float32)
        y = rng.integers(0, 4, 64)
        model = MLP((12, 16, 4), rng=np.random.default_rng(0))
        trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, 0.05),
                                  x, y, RunConfig(num_ranks=4, microbatch=8,
                                                  overlap=overlap))
        try:
            _, rank_indices = next(iter(trainer.iterator.epoch(0)))
            before = {n: p.data.copy() for n, p in model.named_parameters()}
            with pytest.raises(ValueError, match="expected 4, got 3"):
                trainer.train_step(rank_indices[:3])
            for n, p in model.named_parameters():
                np.testing.assert_array_equal(p.data, before[n])
            assert trainer.global_step == 0
        finally:
            trainer.close()

    @pytest.mark.parametrize("wire_codecs", [(), ("fp16", "int8", "topk:0.05")],
                             ids=["fp32", "codecs"])
    @pytest.mark.parametrize("model", ["mlp-hooks", "minibert-fused"])
    def test_overlap_run_starts_no_thread(self, started_threads, model, wire_codecs):
        """Buckets run on the calling thread: an overlap run — through
        creation, steps and ``close()`` — starts no thread at all."""
        rng = np.random.default_rng(0)
        if model == "mlp-hooks":
            net = MLP((12, 16, 4), rng=np.random.default_rng(0))
            x = rng.standard_normal((64, 12)).astype(np.float32)
            y = rng.integers(0, 4, 64)
        else:
            net = MiniBERT(rng=np.random.default_rng(0))
            x = y = rng.integers(0, 64, (64, 16))
        config = RunConfig(num_ranks=4, microbatch=4, wire_codecs=wire_codecs,
                           overlap=True, bucket_cap_mb=0.001)
        with ParallelTrainer(net, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 1e-3),
                             x, y, config) as trainer:
            assert trainer.plan.plan.num_buckets > 1
            for step, rank_indices in trainer.iterator.epoch(0):
                if step < 2:
                    trainer.train_step(rank_indices)
        assert started_threads() == []

    def test_later_batch_the_engine_rejects_falls_back_mid_run(self):
        """A clean batch validates the engine; a later batch carrying
        ``ignore_index`` targets must not crash the run after optimizer
        state has advanced — it takes the serial loop, and the engine
        is back for the next clean batch."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 64, (96, 32))
        y = rng.integers(0, 64, (96, 32))
        y[32:64, ::3] = -100  # the samples of step 1 (sequential sharding below)

        def run(overlap):
            model = MiniBERT(rng=np.random.default_rng(0))
            trainer = ParallelTrainer(
                model, nn.CrossEntropyLoss(ignore_index=-100),
                lambda ps: Adam(ps, 1e-3), x, y,
                RunConfig(num_ranks=4, microbatch=8, overlap=overlap,
                          bucket_cap_mb=0.01))
            for step in range(3):
                block = np.arange(32 * step, 32 * (step + 1))
                trainer.train_step(np.split(block, 4))
            return model, trainer.dist_opt, trainer

        m_phased, _, _ = run(False)
        m_overlap, dopt, trainer = run(True)
        assert trainer.executor._validated and trainer.executor.engine is not None
        assert [o.step_count for o in dopt.rank_optimizers] == [3] * 4
        _assert_bit_identical(m_phased, m_overlap)

    @pytest.mark.parametrize("kwargs", [{"accumulation": 2}, {"probe": True}],
                             ids=["accumulation", "probe"])
    def test_nothing_runs_early_without_readiness(self, kwargs):
        """Accumulated rows are rescaled after the last microbatch and a
        probe needs raw rows: the plan then runs every bucket after
        compute — still bit-identical to phased."""
        from repro.core import OrthogonalityProbe
        rng = np.random.default_rng(0)
        x = rng.standard_normal((128, 12)).astype(np.float32)
        y = rng.integers(0, 4, 128)
        models, probes = [], []
        for overlap in (False, True):
            model = MLP((12, 32, 4), rng=np.random.default_rng(0))
            kw = dict(kwargs)
            if kw.pop("probe", False):
                kw["probe"] = OrthogonalityProbe()
            config = RunConfig(num_ranks=4, microbatch=4, overlap=overlap,
                               bucket_cap_mb=0.0005)
            trainer = ParallelTrainer(model, nn.CrossEntropyLoss(),
                                      lambda ps: Adam(ps, 1e-3), x, y, config, **kw)
            for step, rank_indices in trainer.iterator.epoch(0):
                if step < 3:
                    trainer.train_step(rank_indices)
            assert trainer.global_step == 3
            models.append(model)
            probes.append(trainer.probe and trainer.probe.history)
        _assert_bit_identical(*models)
        assert probes[0] == probes[1]  # the probe saw raw gradients either way


OPTIMIZER_KINDS = pytest.mark.parametrize("opt_cls, opt_kw", [
    (Adam, {}), (SGD, {"momentum": 0.9}),
], ids=["adam", "momentum-sgd"])
_NAMES = {Adam: "adam", SGD: "momentum"}  # the rank_state optimizer of a kind


class TestOverlapCheckpoint:
    """The optimizer objects own the Figure-3 per-rank state between
    steps and the mirror's flat arrays are an in-place cache of it: an
    overlapped run's checkpoint carries the *stepped* state, so
    it resumes under the phased path as if it had never overlapped, and
    state loaded into an overlap trainer is what its next step uses."""

    @staticmethod
    def _build(opt_cls, opt_kw, overlap):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((256, 12)).astype(np.float32)
        y = rng.integers(0, 4, 256)
        model = MLP((12, 32, 4), rng=np.random.default_rng(0))
        trainer = ParallelTrainer(
            model, nn.CrossEntropyLoss(),
            lambda ps: opt_cls(ps, LinearWarmupDecay(0.05, 8, 0.5), **opt_kw),
            x, y, RunConfig(num_ranks=4, microbatch=8, overlap=overlap,
                            bucket_cap_mb=0.0005),
        )
        if overlap:
            assert trainer.plan.plan.num_buckets > 1
        assert trainer.dist_opt.optimizer_mirror(trainer.arena) is not None
        return model, trainer.dist_opt, trainer

    def _straight(self, opt_cls, opt_kw):
        """Six phased steps: the batches and the run."""
        ref_model, ref_opt, ref = self._build(opt_cls, opt_kw, False)
        batches = [idx for _, (_, idx) in zip(range(6), ref.iterator.epoch(0))]
        for idx in batches:
            ref.train_step(idx)
        return batches, ref_model, ref_opt

    @OPTIMIZER_KINDS
    def test_overlap_checkpoint_resumes_phased(self, opt_cls, opt_kw):
        check_run(cell(overlap=True, bucket_cap_mb=0.0002, optimizer=_NAMES[opt_cls],
                       resume_at=2, loader="serial"))

    @OPTIMIZER_KINDS
    def test_checkpoint_resumes_into_overlap(self, opt_cls, opt_kw):
        """A phased checkpoint loaded into an overlap trainer, whose
        mirror exists already: its first step re-syncs from the loaded
        slots and ``step_count`` instead of starting from zero."""
        check_run(cell(bucket_cap_mb=0.0002, optimizer=_NAMES[opt_cls],
                       resume_at=1, loader="overlap"))

    @OPTIMIZER_KINDS
    def test_restored_dist_state_rolls_overlap_back(self, opt_cls, opt_kw):
        """``restore_dist_state`` onto a running overlap trainer (an
        elastic-style rollback of two steps): the steps replayed after
        it are the straight run's."""
        batches, ref_model, ref_opt = self._straight(opt_cls, opt_kw)
        model, dopt, trainer = self._build(opt_cls, opt_kw, True)
        try:
            for idx in batches[:3]:
                trainer.train_step(idx)
            world = Membership(4)
            snapshot = ({n: p.data.copy() for n, p in model.named_parameters()},
                        pack_dist_state(dopt, world, {}))
            for idx in batches[3:5]:
                trainer.train_step(idx)
            for name, p in model.named_parameters():
                np.copyto(p.data, snapshot[0][name])
            restore_dist_state(dopt, world, snapshot[1])
            for idx in batches[3:]:
                trainer.train_step(idx)
        finally:
            trainer.close()
        assert dopt.lr == ref_opt.lr
        assert [o.step_count for o in dopt.rank_optimizers] == [6] * 4
        _assert_bit_identical(ref_model, model)
