"""Mini-BERT: a small transformer encoder with a masked-LM head.

Stands in for BERT-Large in the Table 3/4 and Figure 1b reproductions.
The pre-training objective is masked-token prediction over synthetic
corpora from :mod:`repro.data.text_like`, run in the paper's two-phase
regime (short sequences for 90% of steps, long for the rest).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro import nn
from repro.tensor import Tensor, functional as F


@dataclasses.dataclass
class BertConfig:
    """Hyperparameters for :class:`MiniBERT`.

    The defaults are a deliberately tiny configuration used across the
    test-suite; the benchmark harness scales ``hidden/layers`` up.
    """

    vocab_size: int = 64
    hidden: int = 32
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    max_seq_len: int = 64
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ValueError("hidden must be divisible by heads")


class TransformerEncoderLayer(nn.Module):
    """Pre-LN transformer block: LN → MHA → residual, LN → FFN → residual."""

    def __init__(self, cfg: BertConfig, rng: np.random.Generator):
        super().__init__()
        self.ln1 = nn.LayerNorm(cfg.hidden)
        self.attn = nn.MultiHeadAttention(cfg.hidden, cfg.heads, dropout=cfg.dropout, rng=rng)
        self.ln2 = nn.LayerNorm(cfg.hidden)
        self.fc1 = nn.Linear(cfg.hidden, cfg.ffn_mult * cfg.hidden, rng=rng)
        self.fc2 = nn.Linear(cfg.ffn_mult * cfg.hidden, cfg.hidden, rng=rng)
        self.drop = nn.Dropout(cfg.dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.attn(self.ln1(x), attention_mask=attention_mask)
        h = self.fc2(self.drop(self.fc1(self.ln2(x)).gelu()))
        return x + h


class MiniBERT(nn.Module):
    """BERT-style encoder producing per-token vocabulary logits.

    ``forward(tokens)`` takes integer token ids ``(batch, seq)`` and
    returns logits ``(batch, seq, vocab)``.  The MLM head is weight-tied
    to the token embedding, as in BERT.
    """

    def __init__(self, cfg: Optional[BertConfig] = None, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cfg = cfg or BertConfig()
        rng = rng or np.random.default_rng(0)
        c = self.cfg
        self.tok_emb = nn.Embedding(c.vocab_size, c.hidden, rng=rng)
        self.pos_emb = nn.Embedding(c.max_seq_len, c.hidden, rng=rng)
        self.encoder_layers = nn.Sequential(
            *[TransformerEncoderLayer(c, rng) for _ in range(c.layers)]
        )
        self.ln_f = nn.LayerNorm(c.hidden)
        self.mlm_bias = nn.Parameter(np.zeros(c.vocab_size, dtype=np.float32))

    def forward(self, tokens: np.ndarray, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        tokens = np.asarray(tokens)
        b, s = tokens.shape
        if s > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {s} exceeds max {self.cfg.max_seq_len}")
        x = self.tok_emb(tokens) + self.pos_emb(np.arange(s)[None, :].repeat(b, axis=0))
        for layer in self.encoder_layers:
            x = layer(x, attention_mask=attention_mask)
        x = self.ln_f(x)
        # Weight-tied MLM head.
        return F.linear(x, self.tok_emb.weight, self.mlm_bias)
