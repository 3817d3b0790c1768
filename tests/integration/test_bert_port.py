"""Table 3 and Figure 1b train through ``ParallelTrainer`` bit for bit.

Each experiment is pinned against the per-rank loop it replaced, kept
here as the reference: per step, per rank (per accumulation slot) sample
-> mask -> forward/backward -> copy, then one
``step_arena(GradientArena.from_grad_dicts(...))``.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import DistributedOptimizer, GradientArena, OrthogonalityProbe, RunConfig
from repro.data import SyntheticTextCorpus, mask_tokens
from repro.experiments import table3_bert as t3
from repro.experiments.fig1_orthogonality import run_fig1_bert
from repro.models import BertConfig, MiniBERT
from repro.optim import LAMB, Adam, PolynomialDecay, StepDecay
from repro.train.metrics import masked_lm_accuracy
from repro.train.trainer import compute_grads

#: The four variants as the hand loop spelled them.
REFERENCE_VARIANTS = {
    "baseline-adam": ("average", Adam),
    "baseline-lamb": ("average", lambda ps, lr: LAMB(ps, lr, weight_decay=0.0)),
    "adasum-adam": ("adasum", Adam),
    "adasum-lamb": ("adasum", lambda ps, lr: LAMB(ps, lr, weight_decay=0.0)),
}


def _masked(corpus, batch, seq_len, rng):
    return mask_tokens(corpus.sample_batch(batch, seq_len, rng), rng, vocab_size=corpus.vocab_size)


def _rank_grads(model, loss_fn, corpus, seq_len, rng):
    total = None
    for _ in range(t3.ACCUMULATION):
        loss, g = compute_grads(model, loss_fn, *_masked(corpus, t3.MICROBATCH, seq_len, rng))
        if not np.isfinite(loss):
            return None
        total = g if total is None else {k: total[k] + g[k] for k in g}
    return {k: v / t3.ACCUMULATION for k, v in total.items()}


def _reference_phase(model, variant, schedule, corpus, seq_len, target, eval_every, rng,
                     eval_seed):
    op, make_opt = REFERENCE_VARIANTS[variant]
    dopt = DistributedOptimizer(
        model, lambda ps: make_opt(ps, schedule),
        RunConfig(num_ranks=t3.RANKS, op=op),
    )
    loss_fn = nn.CrossEntropyLoss(ignore_index=-100)
    eval_inp, eval_tgt = _masked(corpus, 128, seq_len, np.random.default_rng(eval_seed))
    best = 0.0
    for step in range(1, schedule.total_steps + 1):
        grads = []
        for _ in range(t3.RANKS):
            grads.append(_rank_grads(model, loss_fn, corpus, seq_len, rng))
            if grads[-1] is None:
                return None, best  # diverged
        dopt.step_arena(GradientArena.from_grad_dicts(grads))
        if step % eval_every == 0 or step == schedule.total_steps:
            acc = masked_lm_accuracy(model, eval_inp, eval_tgt)
            best = max(best, acc)
            if acc >= target:
                return step, best
    return None, best


def _param_bytes(model):
    return [p.data.tobytes() for p in model.parameters()]


@pytest.mark.parametrize("variant", list(t3.VARIANTS))
def test_table3_phases_match_the_hand_loop(monkeypatch, variant):
    """Both phases, accumulation 4: phase 1 stops after one of its two
    materialised steps, so phase 2 is only equal if the port rewinds the
    generator to where phase 1 stopped drawing."""
    monkeypatch.setattr(t3, "MICROBATCH", 4)
    corpus = SyntheticTextCorpus(vocab_size=t3.VOCAB, seed=0)
    cfg = BertConfig(vocab_size=t3.VOCAB, hidden=32, layers=2, heads=4, max_seq_len=24)
    models = [MiniBERT(cfg, rng=np.random.default_rng(0)) for _ in range(2)]
    rngs = [np.random.default_rng(7) for _ in range(2)]
    lr = t3.DEFAULT_LRS[variant]
    for seq_len, eval_seed, schedule in (
        (12, 100, lambda: PolynomialDecay(lr, total_steps=2, warmup_frac=0.1)),
        (24, 200, lambda: PolynomialDecay(lr / 2, total_steps=2, warmup_frac=0.15)),
    ):
        outcomes = [
            phase(model, variant, schedule(), corpus, seq_len, 0.0, 1, rng, eval_seed)
            for phase, model, rng in zip((t3._train_phase, _reference_phase), models, rngs)
        ]
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 1
        assert _param_bytes(models[0]) == _param_bytes(models[1])


def test_fig1b_curves_match_the_hand_loop():
    steps, ranks, microbatch, seq_len = 6, 4, 4, 16
    result = run_fig1_bert(ranks=ranks, steps=steps, microbatch=microbatch, seq_len=seq_len)

    rng = np.random.default_rng(0)
    cfg = BertConfig(vocab_size=48, hidden=32, layers=2, heads=4, max_seq_len=seq_len)
    model = MiniBERT(cfg, rng=np.random.default_rng(0))
    corpus = SyntheticTextCorpus(vocab_size=48, seed=0)
    loss_fn = nn.CrossEntropyLoss(ignore_index=-100)
    schedule = StepDecay(0.01, milestones=[steps // 2], gamma=0.1)
    probe = OrthogonalityProbe(every=2)
    dopt = DistributedOptimizer(
        model, lambda ps: Adam(ps, schedule),
        RunConfig(num_ranks=ranks),
    )
    for step in range(steps):
        dicts = [compute_grads(model, loss_fn, *_masked(corpus, microbatch, seq_len, rng))[1]
                 for _ in range(ranks)]
        probe.record(dicts, step=step)
        dopt.step_arena(GradientArena.from_grad_dicts(dicts))

    assert result.steps == probe.steps
    assert result.average.tobytes() == probe.average_curve(size_weighted=True).tobytes()
    expected = probe.layer_curves()
    assert list(result.per_layer) == list(expected)
    for name, curve in expected.items():
        assert result.per_layer[name].tobytes() == curve.tobytes(), name
