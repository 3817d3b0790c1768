"""Table 3 — BERT pre-training algorithmic efficiency.

Paper setup: BERT-Large two-phase pre-training (90% short sequences,
10% long) at effective batch 64K (phase 1) / 32K (phase 2), target
SQuAD F1 90.5.  Findings reproduced in shape:

* **Baseline-Adam** does not converge at the large batch with the
  linearly-scaled learning rate (the result that motivated LARS/LAMB);
* **Baseline-LAMB** converges, in (I₁, I₂) iterations;
* **Adasum-Adam** *does* converge at the same large batch, in about
  the LAMB baseline's iterations — reusing Adam's *small-batch*
  hyperparameters unchanged (the paper's no-new-hyperparameters claim);
* **Adasum-LAMB** converges ~20-30% faster than Baseline-LAMB.

Scaled profile: MiniBERT masked-LM on the synthetic corpus, phase 1 at
sequence length 12, phase 2 at 24; the effective batch is
4 ranks × 4 accumulated microbatches × 32 examples = 512 (16× the
32-example small-batch recipe, mirroring 4K → 64K).  The quality bar is
masked-LM accuracy on held-out masked sets (stand-in for SQuAD — see
DESIGN.md).  All variants use BERT's warmup + polynomial-decay
schedule; each phase gets a fresh schedule, as in the reference
NVIDIA recipe.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.core import RunConfig
from repro.data import SyntheticTextCorpus, masked_lm_stream
from repro.models import BertConfig, MiniBERT
from repro.optim import Adam, LAMB, PolynomialDecay
from repro.train import ParallelTrainer
from repro.train.metrics import masked_lm_accuracy

VOCAB = 48
RANKS = 4
MICROBATCH = 32
ACCUMULATION = 4

#: Learning rates.  The small-batch Adam recipe for this model is
#: lr=0.01 at batch 32; Baseline-Adam at the 16×-larger batch follows
#: the linear scaling rule (0.16), which is exactly what breaks it.
#: The Adasum variants reuse the small-batch base LRs unchanged.
DEFAULT_LRS = {
    "baseline-adam": 0.16,
    "baseline-lamb": 0.02,
    "adasum-adam": 0.01,
    "adasum-lamb": 0.02,
}

#: Each variant's reduction op and optimizer ``(params, lr)``.
VARIANTS = {
    "baseline-adam": ("average", Adam),
    "baseline-lamb": ("average", functools.partial(LAMB, weight_decay=0.0)),
    "adasum-adam": ("adasum", Adam),
    "adasum-lamb": ("adasum", functools.partial(LAMB, weight_decay=0.0)),
}


@dataclasses.dataclass
class VariantOutcome:
    name: str
    phase1_iters: Optional[int]
    phase2_iters: Optional[int]
    final_accuracy: float

    @property
    def converged(self) -> bool:
        return self.phase1_iters is not None and self.phase2_iters is not None


@dataclasses.dataclass
class Table3Result:
    outcomes: Dict[str, VariantOutcome]
    targets: Tuple[float, float]

    def rows(self) -> List[Tuple]:
        return [
            (
                o.name,
                o.phase1_iters if o.phase1_iters is not None else "-",
                o.phase2_iters if o.phase2_iters is not None else "-",
                f"{o.final_accuracy:.3f}",
            )
            for o in self.outcomes.values()
        ]


def _train_phase(
    model: MiniBERT,
    variant: str,
    schedule: PolynomialDecay,
    corpus: SyntheticTextCorpus,
    seq_len: int,
    target: float,
    eval_every: int,
    rng: np.random.Generator,
    eval_seed: int,
    ranks: int = RANKS,
) -> Tuple[Optional[int], float]:
    """Train for up to ``schedule.total_steps`` until held-out masked-LM
    accuracy ≥ target; (iters, best).  ``rng`` is left where the phase
    stopped drawing, so the next phase continues its stream."""
    op, make_opt = VARIANTS[variant]
    max_steps = schedule.total_steps
    stream = masked_lm_stream(corpus, rng, max_steps, ranks, MICROBATCH, seq_len, ACCUMULATION)
    eval_set = masked_lm_stream(corpus, np.random.default_rng(eval_seed), 1, 1, 128, seq_len)
    best = 0.0
    with ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(ignore_index=-100), lambda ps: make_opt(ps, schedule),
        stream.inputs, stream.targets,
        RunConfig(op=op, num_ranks=ranks, microbatch=MICROBATCH),
        accumulation=ACCUMULATION,
    ) as trainer:
        for step, rank_indices in enumerate(stream.indices, 1):
            if not np.isfinite(trainer.train_step(rank_indices)):
                return None, best  # diverged
            if step % eval_every == 0 or step == max_steps:
                acc = masked_lm_accuracy(model, eval_set.inputs, eval_set.targets)
                best = max(best, acc)
                if acc >= target:
                    rng.bit_generator.state = stream.states[step - 1]
                    return step, best
    return None, best


def run_table3(
    seq1: int = 12,
    seq2: int = 24,
    target1: float = 0.60,
    target2: float = 0.50,
    max_steps1: int = 200,
    max_steps2: int = 120,
    eval_every: int = 10,
    lrs: Optional[Dict[str, float]] = None,
    seed: int = 0,
    fast: bool = True,
    variants: Optional[List[str]] = None,
) -> Table3Result:
    """Run the Table-3 variants through both phases."""
    if not fast:
        max_steps1, max_steps2 = max_steps1 * 2, max_steps2 * 2
    lrs = {**DEFAULT_LRS, **(lrs or {})}
    variants = variants or list(VARIANTS)
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise ValueError(f"unknown variants {unknown}; choose from {list(VARIANTS)}")
    corpus = SyntheticTextCorpus(vocab_size=VOCAB, seed=seed)
    outcomes = {}
    for variant in variants:
        rng = np.random.default_rng(seed + 7)
        cfg = BertConfig(vocab_size=VOCAB, hidden=32, layers=2, heads=4, max_seq_len=seq2)
        model = MiniBERT(cfg, rng=np.random.default_rng(seed))
        sched1 = PolynomialDecay(lrs[variant], total_steps=max_steps1, warmup_frac=0.1)
        it1, best1 = _train_phase(
            model, variant, sched1, corpus, seq1, target1, eval_every, rng,
            eval_seed=seed + 100,
        )
        if it1 is None:
            outcomes[variant] = VariantOutcome(variant, None, None, best1)
            continue
        # Phase 2: fresh warmup+decay schedule, as in the NVIDIA recipe.
        sched2 = PolynomialDecay(lrs[variant] / 2, total_steps=max_steps2, warmup_frac=0.15)
        it2, best2 = _train_phase(
            model, variant, sched2, corpus, seq2, target2, eval_every, rng,
            eval_seed=seed + 200,
        )
        outcomes[variant] = VariantOutcome(variant, it1, it2, max(best1, best2))
    return Table3Result(outcomes=outcomes, targets=(target1, target2))


@dataclasses.dataclass
class ExtensionResult:
    """Outcomes of the Table-3 variations (paper §5.3.2, last paragraphs)."""

    reduced_phase1_steps: int
    reduced_phase2_iters: Optional[int]
    reduced_best: float
    doubled_batch_phase1_iters: Optional[int]
    doubled_batch_best: float

    def rows(self) -> List[Tuple]:
        return [
            ("Adasum-LAMB, -30% phase 1", self.reduced_phase1_steps,
             self.reduced_phase2_iters if self.reduced_phase2_iters else "-",
             f"{self.reduced_best:.3f}"),
            ("Adasum-LAMB, 2x batch (128K analog)",
             self.doubled_batch_phase1_iters if self.doubled_batch_phase1_iters else "-",
             "-", f"{self.doubled_batch_best:.3f}"),
        ]


def run_table3_extensions(
    baseline_phase1_iters: int = 120,
    seq1: int = 12,
    seq2: int = 24,
    target2: float = 0.50,
    max_steps2: int = 120,
    eval_every: int = 10,
    seed: int = 0,
) -> ExtensionResult:
    """The paper's two Adasum-LAMB variations.

    1. **-30% phase 1** (paper: 5039 iterations): cut the phase-1
       budget 30% below the Adasum-LAMB count and check the full
       phase-2 budget still reaches the target.
    2. **128K effective batch** (paper: 4574 iterations at doubled
       batch): double the rank count (2x effective batch) and check
       phase 1 still converges.
    """
    corpus = SyntheticTextCorpus(vocab_size=VOCAB, seed=seed)
    lr = DEFAULT_LRS["adasum-lamb"]

    # Variation 1: fixed, reduced phase-1 step count.
    reduced_steps = int(round(baseline_phase1_iters * 0.7))
    rng = np.random.default_rng(seed + 7)
    cfg = BertConfig(vocab_size=VOCAB, hidden=32, layers=2, heads=4, max_seq_len=seq2)
    model = MiniBERT(cfg, rng=np.random.default_rng(seed))
    sched1 = PolynomialDecay(lr, total_steps=reduced_steps, warmup_frac=0.1)
    _, best1 = _train_phase(
        model, "adasum-lamb", sched1, corpus, seq1, target=2.0,
        eval_every=eval_every, rng=rng, eval_seed=seed + 100,
    )
    sched2 = PolynomialDecay(lr / 2, total_steps=max_steps2, warmup_frac=0.15)
    it2, best2 = _train_phase(
        model, "adasum-lamb", sched2, corpus, seq2, target=target2,
        eval_every=eval_every, rng=rng, eval_seed=seed + 200,
    )

    # Variation 2: doubled effective batch (8 ranks).
    rng = np.random.default_rng(seed + 7)
    model_2x = MiniBERT(cfg, rng=np.random.default_rng(seed))
    sched = PolynomialDecay(lr, total_steps=200, warmup_frac=0.1)
    it_2x, best_2x = _train_phase(
        model_2x, "adasum-lamb", sched, corpus, seq1, target=0.60,
        eval_every=eval_every, rng=rng, eval_seed=seed + 100, ranks=2 * RANKS,
    )
    return ExtensionResult(
        reduced_phase1_steps=reduced_steps,
        reduced_phase2_iters=it2,
        reduced_best=max(best1, best2),
        doubled_batch_phase1_iters=it_2x,
        doubled_batch_best=best_2x,
    )
