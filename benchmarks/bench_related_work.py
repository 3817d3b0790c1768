"""Related-work comparison (paper §6): synchronous Adasum vs
asynchronous SGD (± DC-ASGD compensation) vs gradient compression.

Not a paper table — §6 is qualitative — but it grounds the paper's
positioning: staleness costs convergence, DC-ASGD's diagonal Hessian
correction recovers some of it (with a tuned λ), compression trades
accuracy for bytes, and synchronous Adasum needs none of those knobs.
"""

import numpy as np

from benchmarks.conftest import announce
from repro import nn
from repro.baselines import AsyncSGDSimulator, OneBitCompressor, TopKCompressor
from repro.core import RunConfig, StrategyReducer
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer, accuracy
from repro.train.trainer import compute_grads
from repro.utils import format_table

RANKS = 4
STEPS = 120
LR = 0.25


def _task(seed=0, n=256):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def _run_sync_adasum(x, y, seed=0):
    model = MLP((6, 16, 2), rng=np.random.default_rng(1))
    config = RunConfig(op="adasum", adasum_pre_optimizer=True, num_ranks=RANKS,
                       microbatch=16, seed=seed)
    trainer = ParallelTrainer(model, nn.CrossEntropyLoss(),
                              lambda ps: SGD(ps, LR / RANKS, momentum=0.0),
                              x, y, config)
    done, epoch = 0, 0
    while done < STEPS // RANKS:
        take = min(STEPS // RANKS - done, trainer.steps_per_epoch())
        trainer.train_epoch(epoch, max_steps=take)
        done += take
        epoch += 1
    return accuracy(model, x, y)


def _run_async(x, y, dc_lambda, seed=0):
    model = MLP((6, 16, 2), rng=np.random.default_rng(1))
    sim = AsyncSGDSimulator(model, SGD(model.parameters(), LR),
                            n_workers=RANKS, dc_lambda=dc_lambda)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(seed)

    def grad_fn(m):
        idx = rng.integers(0, len(x), 16)
        _, g = compute_grads(m, loss_fn, x[idx], y[idx])
        return g

    for _ in range(STEPS):
        sim.step(grad_fn)
    sim.drain()
    return accuracy(model, x, y)


def _run_compressed(x, y, compressor_cls, seed=0, **kw):
    model = MLP((6, 16, 2), rng=np.random.default_rng(1))
    opt = SGD(model.parameters(), LR)
    compressors = [compressor_cls(**kw) for _ in range(RANKS)]
    reducer = StrategyReducer("adasum")
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(seed)
    params = dict(model.named_parameters())
    bytes_full = bytes_sent = 0
    for _ in range(STEPS // RANKS):
        gds = []
        for r in range(RANKS):
            idx = rng.integers(0, len(x), 16)
            _, g = compute_grads(model, loss_fn, x[idx], y[idx])
            for n, a in g.items():
                bytes_full += a.nbytes
                bytes_sent += compressors[r].compressed_bytes(a)
            gds.append({n: compressors[r].roundtrip(n, a) for n, a in g.items()})
        combined = reducer.reduce(gds)
        for n, p in params.items():
            p.grad = combined[n]
        opt.step()
    return accuracy(model, x, y), bytes_sent / bytes_full


def test_related_work_comparison(benchmark, save_result):
    x, y = _task()

    def run_all():
        rows = []
        rows.append(("sync Adasum (no knobs)", f"{_run_sync_adasum(x, y):.3f}", "1.00"))
        rows.append(("async SGD (stale)", f"{_run_async(x, y, None):.3f}", "1.00"))
        rows.append(("DC-ASGD (lambda=1.0)", f"{_run_async(x, y, 1.0):.3f}", "1.00"))
        acc, frac = _run_compressed(x, y, OneBitCompressor)
        rows.append(("1-bit SGD + Adasum", f"{acc:.3f}", f"{frac:.3f}"))
        acc, frac = _run_compressed(x, y, TopKCompressor, ratio=0.1)
        rows.append(("top-10% + Adasum", f"{acc:.3f}", f"{frac:.3f}"))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["method", "accuracy", "bytes ratio"]
    announce("§6 related-work comparison", format_table(headers, rows))
    save_result("related_work", headers, rows,
                notes="qualitative grounding of the paper's positioning")

    accs = {r[0]: float(r[1]) for r in rows}
    # Everything trains on this easy task...
    assert all(a > 0.6 for a in accs.values())
    # ...and the compressors actually compress.
    fracs = {r[0]: float(r[2]) for r in rows}
    assert fracs["1-bit SGD + Adasum"] < 0.25
    assert fracs["top-10% + Adasum"] < 0.5
