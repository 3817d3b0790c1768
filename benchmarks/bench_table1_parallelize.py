"""Table 1 — parallelizing the Adasum computation across local GPUs:
throughput, model-update time, microbatch with vs without partitioning."""

from benchmarks.conftest import announce
from repro.experiments import run_table1
from repro.utils import format_table

HEADERS = ["metric", "without", "with"]


def test_table1_parallelization(benchmark, save_result):
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    rows = result.rows()
    announce("Table 1: Adasum parallelization (§4.3)", format_table(HEADERS, rows))
    save_result("table1_parallelize", HEADERS, rows,
                notes="paper: microbatch 22->36, throughput 154.7->168.5, "
                      "update 1.82s->0.97s")

    # Paper shape 1: partitioning frees memory -> larger microbatch
    # (22 -> 36, roughly +60%).
    assert result.microbatch_with > result.microbatch_without
    growth = result.microbatch_with / result.microbatch_without
    assert 1.3 < growth < 2.0
    # Paper shape 2: larger microbatch -> higher throughput (+~10%).
    assert result.throughput_with > result.throughput_without
    # Paper shape 3: the model update parallelizes (1.82s -> 0.97s).
    assert result.update_seconds_with < result.update_seconds_without
    assert result.measured_update_speedup > 1.5
    # Sanity: absolute update time in the paper's ballpark (~seconds).
    assert 0.5 < result.update_seconds_without < 5.0


def test_table1_engine_memory_accounting():
    """The measured engine state split backs the memory model."""
    import numpy as np

    from repro.core import PartitionedAdasumEngine, StrategyReducer
    from repro.models import BertConfig, MiniBERT
    from repro.optim import LAMB

    cfg = BertConfig(vocab_size=64, hidden=64, layers=2, heads=4, max_seq_len=16)
    model = MiniBERT(cfg, rng=np.random.default_rng(0))
    opt = LAMB(model.parameters(), lr=1e-3)
    engine = PartitionedAdasumEngine(model, opt, num_gpus=4, reducer=StrategyReducer("adasum"))
    grads = {n: np.ones(p.shape, dtype=np.float32) * 1e-3
             for n, p in model.named_parameters()}
    engine.update(grads)
    # Per-GPU optimizer state drops to roughly 1/num_gpus.
    ratio = engine.partitioned_state_bytes() / engine.replicated_state_bytes()
    assert ratio < 0.5
