"""Related-work baseline tests: async SGD / DC-ASGD and compression."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import (
    AsyncSGDSimulator,
    NoCompression,
    OneBitCompressor,
    TopKCompressor,
    dc_asgd_compensate,
)
from repro.models import MLP
from repro.optim import SGD
from repro.train import accuracy
from repro.train.trainer import compute_grads


def _task(n=192, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _run_async(n_workers, dc_lambda, steps=120, lr=0.25, seed=0):
    x, y = _task(seed=seed)
    model = MLP((6, 16, 2), rng=np.random.default_rng(1))
    sim = AsyncSGDSimulator(
        model, SGD(model.parameters(), lr), n_workers=n_workers, dc_lambda=dc_lambda
    )
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(seed)

    def grad_fn(m):
        idx = rng.integers(0, len(x), 16)
        _, g = compute_grads(m, loss_fn, x[idx], y[idx])
        return g

    for _ in range(steps):
        sim.step(grad_fn)
    sim.drain()
    return accuracy(model, x, y)


class TestDcCompensation:
    def test_formula(self, rng):
        g = {"w": rng.standard_normal(4).astype(np.float32)}
        w_old = {"w": np.zeros(4, dtype=np.float32)}
        w_now = {"w": np.ones(4, dtype=np.float32)}
        out = dc_asgd_compensate(g, w_old, w_now, lam=0.5)
        np.testing.assert_allclose(out["w"], g["w"] + 0.5 * g["w"] ** 2, rtol=1e-6)

    def test_zero_delay_is_identity(self, rng):
        g = {"w": rng.standard_normal(4).astype(np.float32)}
        w = {"w": rng.standard_normal(4).astype(np.float32)}
        out = dc_asgd_compensate(g, w, w, lam=2.0)
        np.testing.assert_allclose(out["w"], g["w"], rtol=1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            dc_asgd_compensate({}, {}, {}, lam=-1.0)


class TestAsyncSimulator:
    def test_validation(self):
        m = MLP((4, 2), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            AsyncSGDSimulator(m, SGD(m.parameters(), 0.1), n_workers=0)

    def test_single_worker_no_staleness(self):
        """n_workers=1 must equal plain sequential SGD."""
        x, y = _task()
        m1 = MLP((6, 8, 2), rng=np.random.default_rng(2))
        m2 = MLP((6, 8, 2), rng=np.random.default_rng(2))
        sim = AsyncSGDSimulator(m1, SGD(m1.parameters(), 0.1), n_workers=1)
        opt2 = SGD(m2.parameters(), 0.1)
        loss_fn = nn.CrossEntropyLoss()
        for step in range(10):
            idx = np.arange(step * 8, (step + 1) * 8) % len(x)

            def grad_fn(m, idx=idx):
                _, g = compute_grads(m, loss_fn, x[idx], y[idx])
                return g

            sim.step(grad_fn)
            _, g2 = compute_grads(m2, loss_fn, x[idx], y[idx])
            for n, p in m2.named_parameters():
                p.grad = g2[n]
            opt2.step()
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-4, atol=1e-6)

    def test_pipeline_fills_before_updates(self):
        m = MLP((4, 2), rng=np.random.default_rng(0))
        sim = AsyncSGDSimulator(m, SGD(m.parameters(), 0.1), n_workers=4)
        loss_fn = nn.CrossEntropyLoss()
        x = np.ones((2, 4), dtype=np.float32)

        def grad_fn(mm):
            _, g = compute_grads(mm, loss_fn, x, np.array([0, 1]))
            return g

        for _ in range(3):
            sim.step(grad_fn)
        assert sim.updates_applied == 0
        sim.step(grad_fn)
        assert sim.updates_applied == 1
        sim.drain()
        assert sim.updates_applied == 4

    def test_async_trains(self):
        acc = _run_async(n_workers=4, dc_lambda=None)
        assert acc > 0.75

    def test_paper_claim_staleness_hurts_and_dc_helps(self):
        """§6: stale gradients degrade convergence; DC-ASGD's Hessian
        correction recovers part of the gap (averaged over seeds)."""
        plain, dc, seq = [], [], []
        for seed in range(3):
            seq.append(_run_async(1, None, seed=seed))
            plain.append(_run_async(8, None, seed=seed))
            dc.append(_run_async(8, 1.0, seed=seed))
        assert np.mean(seq) >= np.mean(plain) - 0.02  # staleness never helps
        assert np.mean(dc) >= np.mean(plain) - 0.02  # compensation recovers


class TestCompressors:
    def test_no_compression_identity(self, rng):
        g = rng.standard_normal(16).astype(np.float32)
        c = NoCompression()
        np.testing.assert_array_equal(c.roundtrip("w", g), g)
        assert c.compressed_bytes(g) == g.nbytes

    def test_one_bit_shape_and_bytes(self, rng):
        g = rng.standard_normal(64).astype(np.float32)
        c = OneBitCompressor()
        out = c.roundtrip("w", g)
        assert out.shape == g.shape
        assert len(np.unique(out)) <= 2
        assert c.compressed_bytes(g) < g.nbytes / 4

    def test_one_bit_error_feedback_accumulates(self, rng):
        """With error feedback, the *sum* of reconstructions tracks the
        sum of true gradients over time (the Seide et al. property)."""
        c = OneBitCompressor()
        true_total = np.zeros(32)
        sent_total = np.zeros(32)
        rng2 = np.random.default_rng(0)
        g0 = rng2.standard_normal(32).astype(np.float32)
        for _ in range(200):
            g = g0 + 0.1 * rng2.standard_normal(32).astype(np.float32)
            true_total += g
            sent_total += c.roundtrip("w", g)
        # Relative drift stays small thanks to error feedback.
        drift = np.linalg.norm(true_total - sent_total) / np.linalg.norm(true_total)
        assert drift < 0.1

    def test_topk_keeps_largest(self):
        g = np.array([0.1, -5.0, 0.2, 3.0], dtype=np.float32)
        c = TopKCompressor(ratio=0.5)
        out = c.roundtrip("w", g)
        assert out[1] == pytest.approx(-5.0)
        assert out[3] == pytest.approx(3.0)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_topk_invalid_ratio(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)

    def test_topk_error_feedback_eventually_sends_small_elements(self):
        """Elements below the cut accumulate in the error memory and are
        eventually transmitted."""
        c = TopKCompressor(ratio=0.25)
        g = np.array([1.0, 0.3, 0.2, 0.1], dtype=np.float32)
        sent = np.zeros(4)
        for _ in range(30):
            sent += c.roundtrip("w", g)
        assert (sent[1:] > 0).all()  # every element got through eventually

    def test_compression_with_adasum_trains(self):
        """Compressed per-rank gradients still train through Adasum."""
        from repro.core import make_reducer

        x, y = _task(seed=3)
        model = MLP((6, 16, 2), rng=np.random.default_rng(4))
        opt = SGD(model.parameters(), 0.2, momentum=0.9)
        reducer = make_reducer("adasum")
        compressors = [OneBitCompressor() for _ in range(4)]
        loss_fn = nn.CrossEntropyLoss()
        rng = np.random.default_rng(0)
        params = dict(model.named_parameters())
        for _ in range(60):
            gds = []
            for r in range(4):
                idx = rng.integers(0, len(x), 16)
                _, g = compute_grads(model, loss_fn, x[idx], y[idx])
                gds.append({n: compressors[r].roundtrip(n, a) for n, a in g.items()})
            combined = reducer.reduce(gds)
            for n, p in params.items():
                p.grad = combined[n]
            opt.step()
        assert accuracy(model, x, y) > 0.75
