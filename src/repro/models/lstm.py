"""Tiny LSTM sequence classifier.

Proxy for the production "LSTM-based model for predicting the next
command" case study in Section 5.5 of the paper.  The recurrence is
unrolled through the autograd tape (sequence lengths stay small).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.tensor import Tensor


class LSTMCell(nn.Module):
    """Standard LSTM cell with fused gate projection."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.ih = nn.Linear(input_size, 4 * hidden_size, rng=rng)
        self.hh = nn.Linear(hidden_size, 4 * hidden_size, rng=rng)

    def forward(self, x: Tensor, h: Tensor, c: Tensor):
        gates = self.ih(x) + self.hh(h)
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class TinyLSTMClassifier(nn.Module):
    """Embedding → unrolled LSTM → linear head over the final state."""

    def __init__(
        self,
        vocab_size: int = 32,
        embed_dim: int = 16,
        hidden_size: int = 32,
        num_classes: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embed = nn.Embedding(vocab_size, embed_dim, rng=rng)
        self.cell = LSTMCell(embed_dim, hidden_size, rng=rng)
        self.head = nn.Linear(hidden_size, num_classes, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        b, s = tokens.shape
        emb = self.embed(tokens)  # (b, s, e)
        h = Tensor(np.zeros((b, self.hidden_size), dtype=np.float32))
        c = Tensor(np.zeros((b, self.hidden_size), dtype=np.float32))
        for t in range(s):
            h, c = self.cell(emb[:, t, :], h, c)
        return self.head(h)
