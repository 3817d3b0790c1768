"""BERT-style pre-training with LAMB + Adasum (paper Section 5.3).

Pre-trains MiniBERT on the synthetic masked-LM corpus with the LAMB
optimizer, comparing the gradient-averaging baseline against the
post-optimizer Adasum combination of Figure 3 (per-rank optimizer
steps, Adasum of the model deltas).  Prints held-out masked-LM accuracy
over training for both, and the step each first reaches ``TARGET``.

At this scale (4 ranks x 32 sequences, 120 steps, hidden 32) it shows
the two pipelines running side by side, not the paper's result: neither
run reaches the 0.55 bar (both end near 0.19), and the baseline is
slightly ahead from step 60 on.  The reproduced Table 3 — Adasum-LAMB
at 120 phase-1 iterations against Baseline-LAMB's 190, the paper's
20-30% claim — is ``python -m repro table3`` (EXPERIMENTS.md).

Run:  python examples/bert_pretraining.py
"""

import numpy as np

from repro import nn
from repro.core import RunConfig
from repro.data import SyntheticTextCorpus, masked_lm_stream
from repro.models import BertConfig, MiniBERT
from repro.optim import LAMB, PolynomialDecay
from repro.train import ParallelTrainer
from repro.train.metrics import masked_lm_accuracy

VOCAB = 48
RANKS = 4
MICROBATCH = 32
SEQ_LEN = 12
STEPS = 120
TARGET = 0.55


def pretrain(op: str, label: str) -> None:
    corpus = SyntheticTextCorpus(vocab_size=VOCAB, seed=0)
    stream = masked_lm_stream(
        corpus, np.random.default_rng(7), STEPS, RANKS, MICROBATCH, SEQ_LEN
    )
    # Held-out set: its tokens and its mask from one generator.
    held_out = masked_lm_stream(corpus, np.random.default_rng(100), 1, 1, 128, SEQ_LEN)

    cfg = BertConfig(vocab_size=VOCAB, hidden=32, layers=2, heads=4, max_seq_len=SEQ_LEN)
    model = MiniBERT(cfg, rng=np.random.default_rng(0))
    schedule = PolynomialDecay(0.02, total_steps=STEPS, warmup_frac=0.1)

    print(f"--- {label} ---")
    reached = None
    with ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(ignore_index=-100),
        lambda ps: LAMB(ps, schedule, weight_decay=0.0), stream.inputs, stream.targets,
        RunConfig(op=op, num_ranks=RANKS, microbatch=MICROBATCH),
    ) as trainer:
        for step, rank_indices in enumerate(stream.indices, 1):
            trainer.train_step(rank_indices)
            if step % 20 == 0:
                acc = masked_lm_accuracy(model, held_out.inputs, held_out.targets)
                print(f"  step {step:4d}: masked-LM accuracy {acc:.3f}")
                if reached is None and acc >= TARGET:
                    reached = step
    print(f"  steps to {TARGET:.2f}: {reached if reached else 'not reached'}\n")


def main() -> None:
    pretrain("adasum", "Adasum-LAMB (Figure 3: post-optimizer deltas)")
    pretrain("average", "Baseline-LAMB (gradient averaging)")


if __name__ == "__main__":
    main()
