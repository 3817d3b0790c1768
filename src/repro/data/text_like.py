"""Synthetic token corpora + masked-LM example construction.

Stands in for Wikipedia/BookCorpus in the BERT-Large reproduction.  The
corpus has real structure for a masked-LM to learn: Zipf-distributed
unigrams, a sparse bigram transition graph, and "topic" segments that
shift the distribution — so masked-token prediction improves well above
chance as training proceeds.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

#: Reserved token ids, BERT-style.
PAD, MASK = 0, 1
FIRST_REGULAR_TOKEN = 2


class SyntheticTextCorpus:
    """Deterministic token-sequence generator with bigram+topic structure.

    Parameters
    ----------
    vocab_size:
        Total vocabulary including the PAD and MASK specials.
    num_topics:
        Latent topics; each biases the transition matrix differently.
    seed:
        Generator seed (corpus is fully reproducible).
    """

    def __init__(self, vocab_size: int = 64, num_topics: int = 4, seed: int = 0):
        if vocab_size <= FIRST_REGULAR_TOKEN + 1:
            raise ValueError("vocab_size too small for special tokens")
        self.vocab_size = vocab_size
        self.num_topics = num_topics
        self.seed = seed
        rng = np.random.default_rng(seed)
        v = vocab_size - FIRST_REGULAR_TOKEN
        # Zipf-ish unigram base distribution.
        ranks = np.arange(1, v + 1)
        base = 1.0 / ranks
        # A bigram skeleton SHARED by all topics (each token has a few
        # strongly-favored successors) so the masked-LM task stays
        # predictable even with the topic marginalized out; topics
        # reweight the skeleton and add their own flavor.
        skeleton = np.zeros((v, v))
        for i in range(v):
            js = rng.choice(v, size=3, replace=False)
            skeleton[i, js] = rng.uniform(6.0, 14.0, size=3)
        self.trans = np.empty((num_topics, v, v))
        for t in range(num_topics):
            noise = rng.uniform(0.0, 0.1, size=(v, v))
            reweight = rng.uniform(0.7, 1.3, size=(v, v))
            mat = 0.2 * base[None, :] + noise + skeleton * reweight
            self.trans[t] = mat / mat.sum(axis=1, keepdims=True)

    def sample_batch(
        self, batch_size: int, seq_len: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``(batch, seq)`` int64 token ids (no specials)."""
        v = self.vocab_size - FIRST_REGULAR_TOKEN
        topics = rng.integers(0, self.num_topics, size=batch_size)
        out = np.empty((batch_size, seq_len), dtype=np.int64)
        # Vectorized Markov sampling via inverse-CDF per step.
        state = rng.integers(0, v, size=batch_size)
        for t in range(seq_len):
            out[:, t] = state + FIRST_REGULAR_TOKEN
            cdf = np.cumsum(self.trans[topics, state, :], axis=1)
            u = rng.random(batch_size)[:, None]
            state = (u > cdf).sum(axis=1).clip(0, v - 1)
        return out


def mask_tokens(
    tokens: np.ndarray,
    rng: np.random.Generator,
    mask_prob: float = 0.15,
    vocab_size: int = 64,
    ignore_index: int = -100,
) -> Tuple[np.ndarray, np.ndarray]:
    """BERT masking: returns ``(inputs, targets)``.

    ``mask_prob`` of positions are selected; of those, 80% become MASK,
    10% a random token, 10% unchanged.  ``targets`` holds the original
    token at selected positions and ``ignore_index`` elsewhere.
    """
    tokens = np.asarray(tokens)
    inputs = tokens.copy()
    targets = np.full_like(tokens, ignore_index)
    selected = rng.random(tokens.shape) < mask_prob
    # Guarantee at least one masked position per sequence so every
    # example contributes to the loss.
    none_selected = ~selected.any(axis=1)
    if none_selected.any():
        cols = rng.integers(0, tokens.shape[1], size=int(none_selected.sum()))
        selected[np.nonzero(none_selected)[0], cols] = True
    targets[selected] = tokens[selected]
    roll = rng.random(tokens.shape)
    to_mask = selected & (roll < 0.8)
    to_random = selected & (roll >= 0.8) & (roll < 0.9)
    inputs[to_mask] = MASK
    inputs[to_random] = rng.integers(
        FIRST_REGULAR_TOKEN, vocab_size, size=int(to_random.sum())
    )
    return inputs, targets


class MaskedLMStream(NamedTuple):
    """A materialised masked-LM sample stream (see :func:`masked_lm_stream`)."""

    inputs: np.ndarray
    targets: np.ndarray
    #: ``(steps, ranks, accumulation * microbatch)`` rows of ``inputs``:
    #: ``indices[s]`` is step ``s``'s per-rank sample indices.
    indices: np.ndarray
    #: ``rng.bit_generator.state`` after each step's draws.
    states: List[Dict]


def masked_lm_stream(
    corpus: SyntheticTextCorpus,
    rng: np.random.Generator,
    steps: int,
    ranks: int,
    microbatch: int,
    seq_len: int,
    accumulation: int = 1,
) -> MaskedLMStream:
    """Draw ``steps`` steps of masked-LM microbatches up front.

    The draw order is per step, per rank, per accumulation slot:
    :meth:`SyntheticTextCorpus.sample_batch` then :func:`mask_tokens`,
    all from ``rng``.  A trainer fed ``indices[s]`` at step ``s`` sees
    exactly the batches of a loop drawing them as it goes.  A caller
    that stops after step ``s`` resumes that loop's stream by restoring
    ``rng.bit_generator.state = states[s]``.
    """
    per_rank = accumulation * microbatch
    inputs = np.empty((steps * ranks * per_rank, seq_len), dtype=np.int64)
    targets = np.empty_like(inputs)
    states = []
    for step in range(steps):
        for block in range(step * ranks * accumulation, (step + 1) * ranks * accumulation):
            rows = slice(block * microbatch, (block + 1) * microbatch)
            tokens = corpus.sample_batch(microbatch, seq_len, rng)
            inputs[rows], targets[rows] = mask_tokens(
                tokens, rng, vocab_size=corpus.vocab_size
            )
        states.append(rng.bit_generator.state)
    indices = np.arange(len(inputs)).reshape(steps, ranks, per_rank)
    return MaskedLMStream(inputs, targets, indices, states)
