"""Synthetic vision / sequence datasets.

Design goals: deterministic given a seed, learnable but not trivial
(class signal mixed with per-sample noise and nuisance transforms), and
cheap to generate at any size.  The *relative* convergence behaviour of
Sum vs Adasum at growing batch sizes — the paper's measured phenomenon —
is what these datasets must support; see DESIGN.md.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


#: Floats of one row chunk: images are built and noised in place a
#: chunk at a time, so no float64 draw spans the whole set.  Chunks
#: draw in row order, which is the stream of one whole draw.
_CHUNK_FLOATS = 1 << 18


def _row_chunks(x: np.ndarray):
    """``[lo, hi)`` row ranges of ``x``, about ``_CHUNK_FLOATS`` each."""
    rows = max(1, _CHUNK_FLOATS // max(1, int(np.prod(x.shape[1:]))))
    return [(lo, min(lo + rows, len(x))) for lo in range(0, len(x), rows)]


def make_mnist_like(
    n_samples: int,
    num_classes: int = 10,
    image_size: int = 28,
    noise: float = 0.35,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Digit-style grayscale images: class-specific stroke templates + noise.

    Each class gets a random smooth template (low-frequency pattern);
    samples are the template under small random shifts, amplitude
    jitter, and pixel noise.  Returns ``(x, y)`` with ``x`` of shape
    ``(n, 1, s, s)`` in [0, 1] and integer labels ``y``.
    """
    rng = np.random.default_rng(seed)
    s = image_size
    # Low-frequency class templates built from a few random Gabor-ish waves.
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
    # Every (class, shift) image rolled once, indexed by shift + 2.
    rolled = np.empty((num_classes, 5, 5, s, s), dtype=np.float32)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            rolled[:, dy + 2, dx + 2] = np.roll(templates, (dy, dx), axis=(1, 2))
    for lo, hi in _row_chunks(x):
        np.multiply(
            amps[lo:hi, None, None],
            rolled[labels[lo:hi], shifts[lo:hi, 0] + 2, shifts[lo:hi, 1] + 2],
            out=x[lo:hi, 0],
        )
        x[lo:hi] += noise * rng.standard_normal(x[lo:hi].shape).astype(np.float32)
        np.clip(x[lo:hi], 0.0, 1.5, out=x[lo:hi])
    return x, labels.astype(np.int64)


def make_image_classification(
    n_samples: int,
    num_classes: int = 10,
    image_size: int = 16,
    channels: int = 3,
    noise: float = 0.4,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """CIFAR-style color images: per-class color+texture signatures.

    Classes differ in channel-correlated low-frequency texture; samples
    add shifts, contrast jitter and noise.  Shape ``(n, c, s, s)``.
    """
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
    # Every (class, shift) image rolled once, indexed by shift + 2.
    rolled = np.empty((num_classes, 5, 5, channels, s, s), dtype=np.float32)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            rolled[:, dy + 2, dx + 2] = np.roll(templates, (dy, dx), axis=(2, 3))
    for lo, hi in _row_chunks(x):
        np.multiply(
            contrast[lo:hi, None, None, None],
            rolled[labels[lo:hi], shifts[lo:hi, 0] + 2, shifts[lo:hi, 1] + 2],
            out=x[lo:hi],
        )
        x[lo:hi] += noise * rng.standard_normal(x[lo:hi].shape).astype(np.float32)
    return x, labels.astype(np.int64)


def make_command_sequences(
    n_samples: int,
    vocab_size: int = 32,
    seq_len: int = 12,
    num_classes: int = 8,
    noise: float = 0.15,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Next-command-style sequences for the §5.5 LSTM proxy.

    Each class is a Markov chain over the vocabulary; the label is the
    chain that generated the sequence, with ``noise`` fraction of tokens
    resampled uniformly.
    """
    rng = np.random.default_rng(seed)
    # Class-specific sparse transition matrices.
    trans = np.full((num_classes, vocab_size, vocab_size), 1e-3)
    for c in range(num_classes):
        for v in range(vocab_size):
            favored = rng.choice(vocab_size, size=3, replace=False)
            trans[c, v, favored] += rng.uniform(1.0, 3.0, size=3)
    trans /= trans.sum(axis=2, keepdims=True)

    labels = rng.integers(0, num_classes, size=n_samples)
    x = np.empty((n_samples, seq_len), dtype=np.int64)
    for i in range(n_samples):
        chain = trans[labels[i]]
        tok = rng.integers(0, vocab_size)
        for t in range(seq_len):
            x[i, t] = tok
            tok = rng.choice(vocab_size, p=chain[tok])
    flip = rng.random((n_samples, seq_len)) < noise
    x[flip] = rng.integers(0, vocab_size, size=int(flip.sum()))
    return x, labels.astype(np.int64)


def train_test_split(
    x: np.ndarray, y: np.ndarray, test_frac: float = 0.2, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic shuffled split; returns ``(x_tr, y_tr, x_te, y_te)``."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    n_test = int(round(len(x) * test_frac))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]
