"""Checkpoint save/load tests — resumed runs must be bit-exact."""

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedOptimizer, RunConfig
from repro.models import MLP, ResNetCIFAR
from repro.optim import Adam, SGD
from repro.train import (
    ParallelTrainer,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)


def _task(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((128, 6)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int64)
    return x, y


def _trainer(model, op="adasum", wire_codecs=(), seed=0):
    x, y = _task(seed)
    config = RunConfig(op=op, wire_codecs=wire_codecs, num_ranks=2, microbatch=8,
                       seed=seed)
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 0.01),
                              x, y, config)
    return trainer, trainer.dist_opt


class TestBareOptimizer:
    def test_roundtrip(self, tmp_path):
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), 0.01)
        x, y = _task()
        loss_fn = nn.CrossEntropyLoss()
        from repro.train.trainer import compute_grads

        for _ in range(3):
            _, g = compute_grads(model, loss_fn, x[:16], y[:16])
            for n, p in model.named_parameters():
                p.grad = g[n]
            opt.step()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=opt, extra={"epoch": 3})

        model2 = MLP((6, 8, 2), rng=np.random.default_rng(99))
        opt2 = Adam(model2.parameters(), 0.01)
        extra = load_checkpoint(path, model2, optimizer=opt2)
        assert extra == {"epoch": 3}
        assert opt2.step_count == opt.step_count
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        for idx in opt.state:
            for key in opt.state[idx]:
                np.testing.assert_array_equal(opt.state[idx][key], opt2.state[idx][key])

    def test_suffixless_path_roundtrips(self, tmp_path):
        # np.savez writes "ckpt" as "ckpt.npz"; loading and meta-reading
        # by the original suffix-less path must find the same file.
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        path = tmp_path / "ckpt"
        save_checkpoint(path, model, extra={"epoch": 1})
        assert read_checkpoint_meta(path)["extra"] == {"epoch": 1}
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(99))
        assert load_checkpoint(path, model2) == {"epoch": 1}
        for (_, p1), (_, p2) in zip(model.named_parameters(), model2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_buffers_restored(self, tmp_path):
        m1 = ResNetCIFAR(n=1, width=4, rng=np.random.default_rng(0))
        m1(np.random.default_rng(1).standard_normal((4, 3, 8, 8)).astype(np.float32))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, m1)
        m2 = ResNetCIFAR(n=1, width=4, rng=np.random.default_rng(5))
        load_checkpoint(path, m2)
        for (n1, b1), (n2, b2) in zip(m1.named_buffers(), m2.named_buffers()):
            np.testing.assert_array_equal(b1, b2)


class TestDistributedOptimizer:
    def test_resume_is_bit_exact(self, tmp_path):
        """Train 3 steps, checkpoint, train 3 more; vs 6 straight steps."""
        model_a = MLP((6, 8, 2), rng=np.random.default_rng(0))
        tr_a, dopt_a = _trainer(model_a)
        tr_a.train_epoch(0, max_steps=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model_a, dist_opt=dopt_a)

        model_b = MLP((6, 8, 2), rng=np.random.default_rng(42))
        tr_b, dopt_b = _trainer(model_b)
        load_checkpoint(path, model_b, dist_opt=dopt_b)
        # Continue both from the same point with the same data stream.
        for step, rank_idx in tr_a.iterator.epoch(1):
            if step >= 3:
                break
            tr_a.train_step(rank_idx)
        for step, rank_idx in tr_b.iterator.epoch(1):
            if step >= 3:
                break
            tr_b.train_step(rank_idx)
        for (n1, p1), (n2, p2) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_per_rank_states_roundtrip(self, tmp_path):
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        tr, dopt = _trainer(model)
        tr.train_epoch(0, max_steps=2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, dist_opt=dopt)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        _, dopt2 = _trainer(model2)
        load_checkpoint(path, model2, dist_opt=dopt2)
        for o1, o2 in zip(dopt.rank_optimizers, dopt2.rank_optimizers):
            assert o1.step_count == o2.step_count
            for idx in o1.state:
                for key in o1.state[idx]:
                    np.testing.assert_array_equal(o1.state[idx][key], o2.state[idx][key])

    def test_fp16_scale_restored(self, tmp_path):
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        tr, dopt = _trainer(model, wire_codecs=("fp16",))
        dopt._scaler.scale_value = 123.0
        dopt.skipped_steps = 7
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, dist_opt=dopt)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        _, dopt2 = _trainer(model2, wire_codecs=("fp16",))
        load_checkpoint(path, model2, dist_opt=dopt2)
        assert dopt2._scaler.scale_value == 123.0
        assert dopt2.skipped_steps == 7

    def test_mismatched_rank_count_rejected(self, tmp_path):
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        tr, dopt = _trainer(model)
        tr.train_epoch(0, max_steps=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, dist_opt=dopt)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        x, y = _task()
        dopt2 = DistributedOptimizer(
            model2, lambda ps: Adam(ps, 0.01),
            RunConfig(num_ranks=4),
        )
        with pytest.raises(ValueError):
            load_checkpoint(path, model2, dist_opt=dopt2)

    def test_fp16_dynamic_scaling_full_state_roundtrip(self, tmp_path):
        # Not just the scale: the clean-step counter and overflow count
        # must survive, or a resumed run re-doubles at the wrong step.
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        tr, dopt = _trainer(model, wire_codecs=("fp16",))
        dopt._scaler.scale_value = 4096.0
        dopt._scaler._clean_steps = 37
        dopt._scaler.overflow_count = 5
        dopt.skipped_steps = 5
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, dist_opt=dopt)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        _, dopt2 = _trainer(model2, wire_codecs=("fp16",))
        load_checkpoint(path, model2, dist_opt=dopt2)
        assert dopt2._scaler.scale_value == 4096.0
        assert dopt2._scaler._clean_steps == 37
        assert dopt2._scaler.overflow_count == 5
        assert dopt2.skipped_steps == 5


def _dopt_ranks(model, num_ranks):
    return DistributedOptimizer(
        model, lambda ps: Adam(ps, 0.01),
        RunConfig(num_ranks=num_ranks, op="adasum"),
    )


class TestRankMap:
    """N-rank checkpoints loaded into M-rank runs (elastic shrink/grow)."""

    def _trained_checkpoint(self, tmp_path, num_ranks=4):
        model = MLP((6, 8, 2), rng=np.random.default_rng(0))
        x, y = _task()
        tr = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: Adam(ps, 0.01),
                             x, y, RunConfig(topology="tree", num_ranks=num_ranks,
                                             microbatch=8))
        dopt = tr.dist_opt
        tr.train_epoch(0, max_steps=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, dist_opt=dopt)
        return path, dopt

    def test_shrink_4_to_3_by_map(self, tmp_path):
        path, dopt = self._trained_checkpoint(tmp_path)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        dopt2 = _dopt_ranks(model2, 3)
        # Survivors are checkpoint slots 0, 2, 3.
        load_checkpoint(path, model2, dist_opt=dopt2, rank_map=[0, 2, 3])
        for i, src in enumerate([0, 2, 3]):
            o1, o2 = dopt.rank_optimizers[src], dopt2.rank_optimizers[i]
            assert o1.step_count == o2.step_count
            for idx in o1.state:
                for key in o1.state[idx]:
                    np.testing.assert_array_equal(
                        o1.state[idx][key], o2.state[idx][key]
                    )

    def test_grow_2_to_4_by_map(self, tmp_path):
        path, dopt = self._trained_checkpoint(tmp_path, num_ranks=2)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        dopt2 = _dopt_ranks(model2, 4)
        load_checkpoint(path, model2, dist_opt=dopt2, rank_map=[0, 1, 0, 1])
        for i, src in enumerate([0, 1, 0, 1]):
            assert (dopt2.rank_optimizers[i].step_count
                    == dopt.rank_optimizers[src].step_count)

    def test_map_length_mismatch_rejected(self, tmp_path):
        path, _ = self._trained_checkpoint(tmp_path)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        dopt2 = _dopt_ranks(model2, 3)
        with pytest.raises(ValueError):
            load_checkpoint(path, model2, dist_opt=dopt2, rank_map=[0, 1])

    def test_out_of_range_entry_rejected(self, tmp_path):
        path, _ = self._trained_checkpoint(tmp_path)
        model2 = MLP((6, 8, 2), rng=np.random.default_rng(1))
        dopt2 = _dopt_ranks(model2, 3)
        with pytest.raises(ValueError):
            load_checkpoint(path, model2, dist_opt=dopt2, rank_map=[0, 1, 9])

    def test_read_meta_without_loading(self, tmp_path):
        from repro.train.checkpoint import read_checkpoint_meta
        path, _ = self._trained_checkpoint(tmp_path)
        meta = read_checkpoint_meta(path)
        assert meta["dist"]["num_ranks"] == 4
        assert len(meta["dist"]["optimizers"]) == 4
