"""Figure 1 — per-layer gradient orthogonality during training.

The paper instruments ResNet-50 and BERT-Large training on 64 GPUs:
gradients start out pointing the same way (orthogonality ≪ 1), become
progressively orthogonal (→ 1), and dip at each learning-rate-schedule
drop.  Reproduced on the ResNet proxy and MiniBERT with 8 simulated
ranks and a step-decay schedule whose drops should appear as dips.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro import nn
from repro.core import OrthogonalityProbe, RunConfig
from repro.data import SyntheticTextCorpus, make_image_classification, masked_lm_stream
from repro.models import BertConfig, MiniBERT, ResNetCIFAR
from repro.optim import SGD, Adam, StepDecay
from repro.train import ParallelTrainer


@dataclasses.dataclass
class Fig1Result:
    steps: List[int]
    average: np.ndarray
    per_layer: Dict[str, np.ndarray]
    lr_drop_steps: List[int]

    def early_vs_late(self):
        """(mean of first quarter, mean of last quarter) of the average curve."""
        k = max(len(self.average) // 4, 1)
        return float(np.mean(self.average[:k])), float(np.mean(self.average[-k:]))


def run_fig1_resnet(
    ranks: int = 8,
    epochs: int = 10,
    microbatch: int = 16,
    dataset: int = 1024,
    fast: bool = True,
    seed: int = 0,
) -> Fig1Result:
    """Figure 1a analogue: ResNet proxy with a step-decay LR schedule."""
    if not fast:
        epochs, dataset = epochs * 2, dataset * 2
    x, y = make_image_classification(dataset, image_size=12, noise=0.2, seed=seed)
    model = ResNetCIFAR(n=1, width=8, rng=np.random.default_rng(seed))
    steps_per_epoch = dataset // (ranks * microbatch)
    total = epochs * steps_per_epoch
    drops = [total // 2, 3 * total // 4]
    schedule = StepDecay(0.2, milestones=drops, gamma=0.1)
    probe = OrthogonalityProbe(every=2)
    config = RunConfig(
        op="adasum", adasum_pre_optimizer=True, num_ranks=ranks,
        microbatch=microbatch, seed=seed,
    )
    trainer = ParallelTrainer(
        model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, schedule, momentum=0.9),
        x, y, config, probe=probe,
    )
    for e in range(epochs):
        trainer.train_epoch(e)
    return Fig1Result(
        steps=probe.steps,
        average=probe.average_curve(size_weighted=True),
        per_layer=probe.layer_curves(),
        lr_drop_steps=drops,
    )


def run_fig1_bert(
    ranks: int = 8,
    steps: int = 120,
    microbatch: int = 8,
    seq_len: int = 16,
    fast: bool = True,
    seed: int = 0,
) -> Fig1Result:
    """Figure 1b analogue: MiniBERT masked-LM with an LR drop."""
    if not fast:
        steps *= 2
    cfg = BertConfig(vocab_size=48, hidden=32, layers=2, heads=4, max_seq_len=seq_len)
    model = MiniBERT(cfg, rng=np.random.default_rng(seed))
    corpus = SyntheticTextCorpus(vocab_size=48, seed=seed)
    stream = masked_lm_stream(
        corpus, np.random.default_rng(seed), steps, ranks, microbatch, seq_len
    )
    drops = [steps // 2]
    schedule = StepDecay(0.01, milestones=drops, gamma=0.1)
    probe = OrthogonalityProbe(every=2)
    with ParallelTrainer.from_config(
        model, nn.CrossEntropyLoss(ignore_index=-100), lambda ps: Adam(ps, schedule),
        stream.inputs, stream.targets,
        RunConfig(op="adasum", num_ranks=ranks, microbatch=microbatch), probe=probe,
    ) as trainer:
        for rank_indices in stream.indices:
            trainer.train_step(rank_indices)
    return Fig1Result(
        steps=probe.steps,
        average=probe.average_curve(size_weighted=True),
        per_layer=probe.layer_curves(),
        lr_drop_steps=drops,
    )


def run_fig1(model: str = "resnet", fast: bool = True, **kw) -> Fig1Result:
    """Dispatch to the ResNet (1a) or BERT (1b) variant."""
    if model == "resnet":
        return run_fig1_resnet(fast=fast, **kw)
    if model == "bert":
        return run_fig1_bert(fast=fast, **kw)
    raise ValueError(f"unknown model {model!r}")
