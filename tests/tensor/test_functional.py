"""Gradient and shape tests for the functional kernels (conv, pool, norm...)."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, gradcheck


def _t(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestConv2d:
    def test_shape(self, rng):
        x = _t(rng, 2, 3, 8, 8)
        w = _t(rng, 4, 3, 3, 3)
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 4, 8, 8)

    def test_shape_stride2(self, rng):
        x = _t(rng, 1, 2, 9, 9)
        w = _t(rng, 3, 2, 3, 3)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 3, 5, 5)

    def test_matches_direct_convolution(self, rng):
        """im2col path matches a naive nested-loop convolution."""
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0).data
        ref = np.zeros((1, 3, 3, 3), dtype=np.float64)
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, oc, i, j] = np.sum(x[0, :, i : i + 3, j : j + 3] * w[oc])
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_grad_x_w_b(self, rng):
        x = _t(rng, 2, 2, 5, 5, scale=0.5)
        w = _t(rng, 3, 2, 3, 3, scale=0.5)
        b = _t(rng, 3)
        assert gradcheck(lambda: (F.conv2d(x, w, b, padding=1) ** 2).sum(), [x, w, b], atol=5e-2, rtol=5e-2)

    def test_grad_stride(self, rng):
        x = _t(rng, 1, 1, 6, 6, scale=0.5)
        w = _t(rng, 2, 1, 3, 3, scale=0.5)
        assert gradcheck(lambda: (F.conv2d(x, w, stride=2) * 2).sum(), [x, w], atol=2e-2)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(_t(rng, 1, 3, 4, 4), _t(rng, 2, 4, 3, 3))


class TestPooling:
    def test_max_pool_shape(self, rng):
        x = _t(rng, 2, 3, 8, 8)
        assert F.max_pool2d(x, 2).shape == (2, 3, 4, 4)

    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad(self, rng):
        # Distinct values (scaled to keep fp32 finite differences accurate).
        data = rng.permutation(64).reshape(1, 1, 8, 8).astype(np.float32) / 64.0
        x = Tensor(data, requires_grad=True)
        assert gradcheck(lambda: (F.max_pool2d(x, 2) * 2).sum(), [x])

    def test_max_pool_overlapping(self, rng):
        data = rng.permutation(49).reshape(1, 1, 7, 7).astype(np.float32) / 49.0
        x = Tensor(data, requires_grad=True)
        out = F.max_pool2d(x, 3, stride=2)
        assert out.shape == (1, 1, 3, 3)
        assert gradcheck(lambda: (F.max_pool2d(x, 3, stride=2) * 2).sum(), [x])

    def test_avg_pool(self, rng):
        x = _t(rng, 2, 3, 8, 8)
        out = F.avg_pool2d(x, 2)
        assert out.shape == (2, 3, 4, 4)
        assert gradcheck(lambda: (F.avg_pool2d(x, 2) ** 2).sum(), [x], atol=5e-3)

    def test_global_avg_pool(self, rng):
        x = _t(rng, 2, 3, 4, 4)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)), rtol=1e-5)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        x = _t(rng, 4, 7)
        s = F.softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-5)

    def test_softmax_grad(self, rng):
        x = _t(rng, 3, 5)
        assert gradcheck(lambda: (F.softmax(x) ** 2).sum(), [x])

    def test_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        s = F.softmax(x).data
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_log_softmax_grad(self, rng):
        x = _t(rng, 3, 5)
        assert gradcheck(lambda: (F.log_softmax(x) * 0.1).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = _t(rng, 3, 5)
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-4, atol=1e-6
        )

    def test_cross_entropy_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]], dtype=np.float32)))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected, rel=1e-4)

    def test_cross_entropy_grad(self, rng):
        logits = _t(rng, 4, 6)
        targets = rng.integers(0, 6, size=4)
        assert gradcheck(lambda: F.cross_entropy(logits, targets), [logits])

    def test_cross_entropy_ignore_index(self, rng):
        logits = _t(rng, 4, 6)
        targets = np.array([1, -1, 3, -1])
        loss = F.cross_entropy(logits, targets, ignore_index=-1)
        loss.backward()
        # Ignored rows get zero gradient.
        np.testing.assert_allclose(logits.grad[1], 0.0)
        np.testing.assert_allclose(logits.grad[3], 0.0)
        assert np.abs(logits.grad[0]).sum() > 0

    def test_cross_entropy_sequence_logits(self, rng):
        logits = _t(rng, 2, 3, 5)
        targets = rng.integers(0, 5, size=(2, 3))
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        assert logits.grad.shape == (2, 3, 5)

    def test_nll_loss(self, rng):
        x = _t(rng, 3, 4)
        logp = F.log_softmax(x)
        targets = np.array([0, 1, 2])
        loss = F.nll_loss(logp, targets)
        ce = F.cross_entropy(Tensor(x.data), targets)
        assert loss.item() == pytest.approx(ce.item(), rel=1e-5)

    def test_mse(self, rng):
        pred = _t(rng, 3, 4)
        target = rng.standard_normal((3, 4))
        assert gradcheck(lambda: F.mse_loss(pred, target), [pred])


class TestNormalization:
    def test_layer_norm_stats(self, rng):
        x = _t(rng, 4, 8)
        g, b = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
        out = F.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-3)

    def test_layer_norm_grad(self, rng):
        x = _t(rng, 3, 6)
        g = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = _t(rng, 6)
        assert gradcheck(lambda: (F.layer_norm(x, g, b) ** 2).sum(), [x, g, b], atol=2e-2, rtol=5e-2)

    def test_batch_norm_train_stats(self, rng):
        x = _t(rng, 4, 3, 5, 5)
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        out = F.batch_norm2d(x, g, b, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        # Running stats moved toward the batch statistics.
        assert not np.allclose(rm, 0.0)

    def test_batch_norm_grad(self, rng):
        x = _t(rng, 2, 2, 3, 3)
        g = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        b = _t(rng, 2)
        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)

        def f():
            return (F.batch_norm2d(x, g, b, rm.copy(), rv.copy(), training=True) ** 2).sum()

        assert gradcheck(f, [x, g, b], atol=3e-2, rtol=5e-2)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = _t(rng, 2, 2, 3, 3)
        g = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        rm = np.array([1.0, -1.0], np.float32)
        rv = np.array([4.0, 4.0], np.float32)
        out = F.batch_norm2d(x, g, b, rm, rv, training=False).data
        expected = (x.data - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(out, expected, rtol=1e-5)


class TestEmbeddingDropout:
    def test_embedding_gather(self, rng):
        w = _t(rng, 10, 4)
        idx = np.array([[1, 2], [3, 1]])
        out = F.embedding(w, idx)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], w.data[1])

    def test_embedding_grad_accumulates_repeats(self, rng):
        w = _t(rng, 5, 3)
        idx = np.array([2, 2, 2])
        F.embedding(w, idx).sum().backward()
        np.testing.assert_allclose(w.grad[2], 3.0)
        np.testing.assert_allclose(w.grad[0], 0.0)

    def test_dropout_eval_passthrough(self, rng):
        x = _t(rng, 10, 10)
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_dropout_scales(self, rng):
        x = Tensor(np.ones((200, 200), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.25, training=True, rng=rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-5)
        # Expected mean preserved.
        assert out.data.mean() == pytest.approx(1.0, rel=0.05)

    def test_dropout_grad_masks(self, rng):
        x = Tensor(np.ones((50, 50), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose((x.grad > 0), (out.data > 0))


def _spelled_linear(x, w, b):
    """What ``nn.Linear`` spelled out before ``F.linear`` existed."""
    return x.matmul(w.transpose()) + b


class TestLinear:
    @pytest.mark.parametrize("batch_shape", [(6,), (3, 4)])
    def test_is_the_three_node_expression(self, rng, batch_shape):
        """Bytes and grad-ready hook order equal the spelled-out
        expression's — with a weight used twice (a tied layer), whose
        hook fires on the contribution that completes it."""
        x = rng.standard_normal(batch_shape + (5,)).astype(np.float32)
        targets = rng.integers(0, 5, batch_shape)
        start = [rng.standard_normal(s).astype(np.float32) for s in ((5, 5), (5,), (5,))]
        runs = []
        for linear in (F.linear, _spelled_linear):
            w, b1, b2 = (Tensor(a.copy(), requires_grad=True) for a in start)
            fired = []
            for name, p in (("w", w), ("b1", b1), ("b2", b2)):
                p._grad_hook = lambda t, _n=name: fired.append(_n)
            h = linear(Tensor(x), w, b1).tanh()
            loss = F.cross_entropy(linear(h, w, b2), targets)
            loss.backward()
            runs.append((loss.data.tobytes(), fired,
                         [p.grad.tobytes() for p in (w, b1, b2)]))
        assert runs[0] == runs[1]
        assert runs[0][1] == ["b2", "b1", "w"]


class TestKernelSpecialization:
    """The opt-in validated-GEMM switch (see docs/performance.md)."""

    def test_off_by_default(self):
        from repro.tensor import kernel_specialization_enabled

        assert kernel_specialization_enabled() is False

    def test_set_returns_prior_and_restores(self):
        from repro.tensor import (
            kernel_specialization_enabled,
            set_kernel_specialization,
        )

        prior = set_kernel_specialization(True)
        try:
            assert prior is False
            assert kernel_specialization_enabled() is True
            assert set_kernel_specialization(True) is True
        finally:
            set_kernel_specialization(False)
        assert kernel_specialization_enabled() is False

    def test_specialized_conv_bit_equal_and_verdicts_cached(self, rng):
        from repro.tensor import (
            clear_kernel_caches,
            kernel_cache_stats,
            set_kernel_specialization,
        )

        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        out_ref = F.conv2d(x, w, padding=1)
        out_ref.sum().backward()
        gx_ref, gw_ref = x.grad.copy(), w.grad.copy()

        x.grad = None
        w.grad = None
        clear_kernel_caches()
        prior = set_kernel_specialization(True)
        try:
            out = F.conv2d(x, w, padding=1)
            out.sum().backward()
            # Accepted or rejected, every per-shape verdict comes from a
            # byte-identity probe, so results never change.
            assert out.data.tobytes() == out_ref.data.tobytes()
            assert x.grad.tobytes() == gx_ref.tobytes()
            assert w.grad.tobytes() == gw_ref.tobytes()
            stats = kernel_cache_stats()
            assert stats["gemm_verdicts"]["entries"] > 0
        finally:
            set_kernel_specialization(prior)
        clear_kernel_caches()
        assert kernel_cache_stats()["gemm_verdicts"]["entries"] == 0


class TestPinBlasThreads:
    """Rank workers pin NumPy's bundled OpenBLAS pool themselves."""

    def test_pins_the_bundled_openblas(self):
        # In a child process: the pin would outlive this test here.
        import glob
        import os
        import subprocess
        import sys

        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        if not glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            pytest.skip("this NumPy build bundles no scipy-openblas")
        code = ("import warnings; warnings.simplefilter('error'); "
                "from repro.tensor import pin_blas_threads; "
                "print(pin_blas_threads())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "True"

    def test_missing_library_warns_and_changes_nothing(self, monkeypatch):
        import glob

        from repro.tensor import pin_blas_threads

        monkeypatch.setattr(glob, "glob", lambda pattern: [])
        with pytest.warns(RuntimeWarning, match="BLAS pool not pinned"):
            assert pin_blas_threads() is False
