"""Synthetic dataset tests: determinism, learnability signal, shapes."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import (
    SyntheticTextCorpus,
    make_command_sequences,
    make_image_classification,
    make_mnist_like,
    mask_tokens,
    train_test_split,
)
from repro.data.text_like import FIRST_REGULAR_TOKEN, MASK


class TestMnistLike:
    def test_shapes_and_ranges(self):
        x, y = make_mnist_like(32, seed=0)
        assert x.shape == (32, 1, 28, 28)
        assert y.shape == (32,)
        assert x.dtype == np.float32
        assert y.min() >= 0 and y.max() < 10
        assert x.min() >= 0.0

    def test_deterministic(self):
        x1, y1 = make_mnist_like(16, seed=5)
        x2, y2 = make_mnist_like(16, seed=5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_seeds_differ(self):
        x1, _ = make_mnist_like(16, seed=1)
        x2, _ = make_mnist_like(16, seed=2)
        assert not np.allclose(x1, x2)

    def test_classes_separable_by_template(self):
        """Same-class images correlate more than cross-class on average."""
        x, y = make_mnist_like(200, num_classes=4, noise=0.1, seed=3)
        flat = x.reshape(len(x), -1)
        flat = flat - flat.mean(axis=1, keepdims=True)
        flat /= np.linalg.norm(flat, axis=1, keepdims=True)
        sims = flat @ flat.T
        same = sims[y[:, None] == y[None, :]].mean()
        diff = sims[y[:, None] != y[None, :]].mean()
        assert same > diff + 0.1

    @pytest.mark.parametrize("n, noise, kwargs", [
        (6144, 0.6, {}),
        (512, 0.35, {}),
        (1000, 0.2, {}),
        (7, 0.0, {"num_classes": 3, "image_size": 12}),
    ])
    def test_bytes_match_the_per_sample_roll(self, n, noise, kwargs):
        x, y = make_mnist_like(n, noise=noise, seed=3, **kwargs)
        x_ref, y_ref = _mnist_like_per_sample(n, noise=noise, seed=3, **kwargs)
        assert x.tobytes() == x_ref.tobytes()
        assert x.shape == x_ref.shape and x.dtype == x_ref.dtype
        np.testing.assert_array_equal(y, y_ref)


def _sha256(x, y):
    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    return digest.hexdigest()


# Digests of the data as whole-set draws made it: built in row chunks
# since, they must stay byte for byte what every recorded run trained on.
MNIST_LIKE_6144 = "4789f1e6ebe0d02dd4e09680d10b46c6c891589066aaa6922fd91a4802d8b502"
IMAGE_CLASSIFICATION_1000 = "2ccef4ebefa38eec078657a1d49e9fdaea23347f939f2c3564352d03201c9c06"


def test_mnist_like_bytes_are_pinned():
    """``lenet_tta``'s pool."""
    assert _sha256(*make_mnist_like(6144, noise=0.6, seed=0)) == MNIST_LIKE_6144


def test_image_classification_bytes_are_pinned():
    """Figure 5's data shape."""
    x, y = make_image_classification(1000, image_size=12, noise=0.5, seed=1)
    assert _sha256(x, y) == IMAGE_CLASSIFICATION_1000


def test_mnist_like_peak_memory_is_near_its_output():
    """Row chunks bound the temporaries: the ``tracemalloc`` peak is the
    output plus 5 MiB (one chunk's float64 draw, 2 MiB, and its float32
    copies, the rolled templates and the labels), not the whole set's
    float64 draw and its float32 copies (a 78 MB peak for 19 MB of
    output when the noise was one draw)."""
    tracemalloc.start()
    try:
        x, y = make_mnist_like(6144, noise=0.6, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 5 * 2**20, (peak, x.nbytes)


def _mnist_like_per_sample(n_samples, num_classes=10, image_size=28, noise=0.35, seed=0):
    """``make_mnist_like`` as it was written first: one ``np.roll`` per
    sample.  The reference the indexed version must match byte for byte."""
    rng = np.random.default_rng(seed)
    s = image_size
    yy, xx = np.mgrid[0:s, 0:s] / s
    templates = np.zeros((num_classes, s, s), dtype=np.float32)
    for c in range(num_classes):
        for _ in range(3):
            fx, fy = rng.uniform(1.0, 4.0, size=2)
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            templates[c] += np.sin(2 * np.pi * fx * xx + px) * np.cos(
                2 * np.pi * fy * yy + py
            )
        templates[c] -= templates[c].min()
        templates[c] /= templates[c].max()
    labels = rng.integers(0, num_classes, size=n_samples)
    x = np.empty((n_samples, 1, s, s), dtype=np.float32)
    shifts = rng.integers(-2, 3, size=(n_samples, 2))
    amps = rng.uniform(0.7, 1.3, size=n_samples).astype(np.float32)
    for i in range(n_samples):
        img = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(0, 1))
        x[i, 0] = amps[i] * img
    x += noise * rng.standard_normal(x.shape).astype(np.float32)
    np.clip(x, 0.0, 1.5, out=x)
    return x, labels.astype(np.int64)


class TestImageClassification:
    def test_shapes(self):
        x, y = make_image_classification(16, image_size=8, channels=3, seed=0)
        assert x.shape == (16, 3, 8, 8)
        assert y.dtype == np.int64

    def test_num_classes_respected(self):
        _, y = make_image_classification(200, num_classes=5, seed=0)
        assert set(np.unique(y)) <= set(range(5))

    @pytest.mark.parametrize("n, kwargs", [
        (300, {}),
        (1000, {"image_size": 12, "noise": 0.5}),
        (5, {"num_classes": 3, "image_size": 4, "channels": 1}),
    ])
    def test_bytes_match_the_per_sample_roll(self, n, kwargs):
        x, y = make_image_classification(n, seed=3, **kwargs)
        x_ref, y_ref = _image_classification_per_sample(n, seed=3, **kwargs)
        assert x.tobytes() == x_ref.tobytes()
        assert x.shape == x_ref.shape and x.dtype == x_ref.dtype
        np.testing.assert_array_equal(y, y_ref)


def _image_classification_per_sample(n_samples, num_classes=10, image_size=16, channels=3,
                                     noise=0.4, seed=0):
    """``make_image_classification`` as it was written first: one
    ``np.roll`` per sample and one whole-set noise draw."""
    rng = np.random.default_rng(seed)
    s = image_size
    yy, xx = np.mgrid[0:s, 0:s] / s
    templates = np.zeros((num_classes, channels, s, s), dtype=np.float32)
    for c in range(num_classes):
        base = np.zeros((s, s), dtype=np.float32)
        for _ in range(2):
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            base += np.sin(2 * np.pi * (fx * xx + fy * yy) + px + py)
        color = rng.uniform(0.3, 1.0, size=channels).astype(np.float32)
        for ch in range(channels):
            templates[c, ch] = color[ch] * base
    labels = rng.integers(0, num_classes, size=n_samples)
    x = np.empty((n_samples, channels, s, s), dtype=np.float32)
    shifts = rng.integers(-2, 3, size=(n_samples, 2))
    contrast = rng.uniform(0.8, 1.2, size=n_samples).astype(np.float32)
    for i in range(n_samples):
        img = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(1, 2))
        x[i] = contrast[i] * img
    x += noise * rng.standard_normal(x.shape).astype(np.float32)
    return x, labels.astype(np.int64)


class TestCommandSequences:
    def test_shapes(self):
        x, y = make_command_sequences(10, vocab_size=16, seq_len=6, seed=0)
        assert x.shape == (10, 6)
        assert x.max() < 16

    def test_markov_structure_present(self):
        """Class-conditioned bigram counts deviate from uniform."""
        x, y = make_command_sequences(400, vocab_size=8, seq_len=20, num_classes=2,
                                      noise=0.0, seed=1)
        counts = np.zeros((8, 8))
        for seq in x[y == 0]:
            for a, b in zip(seq, seq[1:]):
                counts[a, b] += 1
        probs = counts / max(counts.sum(), 1)
        assert probs.max() > 3.0 / 64  # concentrated, not uniform


class TestSplit:
    def test_sizes(self):
        x, y = make_mnist_like(100, seed=0)
        xtr, ytr, xte, yte = train_test_split(x, y, 0.2, seed=0)
        assert len(xte) == 20 and len(xtr) == 80

    def test_disjoint(self):
        x = np.arange(50, dtype=np.float32).reshape(50, 1)
        y = np.arange(50)
        xtr, ytr, xte, yte = train_test_split(x, y, 0.3, seed=1)
        assert set(xtr[:, 0]).isdisjoint(set(xte[:, 0]))

    def test_invalid_frac(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(4), 1.5)


class TestTextCorpus:
    def test_vocab_guard(self):
        with pytest.raises(ValueError):
            SyntheticTextCorpus(vocab_size=2)

    def test_sample_shape_and_range(self, rng):
        corpus = SyntheticTextCorpus(vocab_size=32, seed=0)
        toks = corpus.sample_batch(8, 16, rng)
        assert toks.shape == (8, 16)
        assert toks.min() >= FIRST_REGULAR_TOKEN
        assert toks.max() < 32

    def test_corpus_deterministic_given_rngs(self):
        corpus = SyntheticTextCorpus(vocab_size=32, seed=0)
        t1 = corpus.sample_batch(4, 8, np.random.default_rng(9))
        t2 = corpus.sample_batch(4, 8, np.random.default_rng(9))
        np.testing.assert_array_equal(t1, t2)

    def test_bigram_structure(self, rng):
        """Transitions concentrate on the designed peaks (learnable signal)."""
        corpus = SyntheticTextCorpus(vocab_size=18, num_topics=1, seed=2)
        toks = corpus.sample_batch(64, 64, rng) - FIRST_REGULAR_TOKEN
        v = 16
        counts = np.zeros((v, v))
        for seq in toks:
            for a, b in zip(seq, seq[1:]):
                counts[a, b] += 1
        empirical = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        # Correlate with the true transition matrix.
        true = corpus.trans[0]
        corr = np.corrcoef(empirical.reshape(-1), true.reshape(-1))[0, 1]
        assert corr > 0.5


class TestMasking:
    def test_targets_only_at_masked_positions(self, rng):
        toks = rng.integers(FIRST_REGULAR_TOKEN, 32, size=(8, 16))
        inp, tgt = mask_tokens(toks, rng, vocab_size=32)
        selected = tgt != -100
        np.testing.assert_array_equal(tgt[selected], toks[selected])
        # Unselected inputs are untouched.
        np.testing.assert_array_equal(inp[~selected], toks[~selected])

    def test_every_sequence_has_a_target(self, rng):
        toks = rng.integers(FIRST_REGULAR_TOKEN, 32, size=(64, 4))
        _, tgt = mask_tokens(toks, rng, mask_prob=0.05, vocab_size=32)
        assert ((tgt != -100).sum(axis=1) >= 1).all()

    def test_mask_rate_roughly_correct(self, rng):
        toks = rng.integers(FIRST_REGULAR_TOKEN, 32, size=(200, 50))
        inp, tgt = mask_tokens(toks, rng, mask_prob=0.15, vocab_size=32)
        rate = (tgt != -100).mean()
        assert 0.10 < rate < 0.20

    def test_eighty_percent_become_mask_token(self, rng):
        toks = rng.integers(FIRST_REGULAR_TOKEN, 32, size=(500, 20))
        inp, tgt = mask_tokens(toks, rng, vocab_size=32)
        selected = tgt != -100
        frac_mask = (inp[selected] == MASK).mean()
        assert 0.7 < frac_mask < 0.9
