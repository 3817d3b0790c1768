"""Figure 4 — AdasumRVH vs NCCL-sum allreduce latency vs message size.

Regenerates the paper's latency sweep (64 ranks, 2¹⁰–2²⁸ bytes) from
the α–β cost model, cross-validates the analytic AdasumRVH cost against
the executed Algorithm 1, and benchmarks the executed allreduce.
"""

import numpy as np
import pytest

from benchmarks.conftest import announce
from repro.comm import Cluster, NetworkModel
from repro.core.strategies import get_strategy
from repro.experiments import run_fig4, validate_rvh_simulation
from repro.utils import format_table

HEADERS = ["tensor (bytes)", "Adasum (ms)", "NCCL sum (ms)", "ratio"]


def rvh_flat(comm, row, boundaries=None):
    """Registry-backed flat AdasumRVH (per-rank cluster entry point)."""
    return get_strategy("adasum", "rvh").combine_comm(comm, row, boundaries)


def test_fig4_latency_sweep(benchmark, save_result):
    result = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    rows = result.rows()
    announce("Figure 4: AdasumRVH vs NCCL sum latency (64 ranks)",
             format_table(HEADERS, rows))
    save_result("fig4_rvh_latency", HEADERS, rows,
                notes="analytic α-β model; paper shape: roughly equal")

    # Paper shape: "roughly equal" — same order of magnitude everywhere,
    # converging at large message sizes.
    ratios = [p.ratio for p in result.points]
    assert all(1.0 <= r <= 3.0 for r in ratios)
    assert ratios[-1] == pytest.approx(1.0, rel=0.2)
    # Latency grows monotonically once bandwidth-bound.
    lat = [p.adasum_ms for p in result.points]
    assert all(a <= b * 1.001 for a, b in zip(lat, lat[1:]))


def test_fig4_analytic_matches_execution(save_result):
    simulated, analytic = validate_rvh_simulation(ranks=8, n_floats=16384)
    assert simulated == pytest.approx(analytic, rel=0.5)


def test_fig4_trace_matches_cost_tracker(results_dir):
    """Tracing is observational: per-rank event totals equal the cost
    counters exactly, and enabling the tracer perturbs nothing."""
    net = NetworkModel.infiniband()
    rng = np.random.default_rng(7)
    grads = [rng.standard_normal(4096).astype(np.float32) for _ in range(8)]

    traced = Cluster(8, network=net, trace=True)
    traced_out = traced.run(rvh_flat, rank_args=[(g,) for g in grads])
    plain = Cluster(8, network=net)
    plain_out = plain.run(rvh_flat, rank_args=[(g,) for g in grads])

    tracer = traced.tracer
    # Exact fidelity: the trace reconstructs the cost model's numbers.
    assert tracer.total_bytes() == traced.total_bytes()
    assert tracer.max_clock() == traced.max_clock()
    # And tracing did not perturb the run.
    assert traced.max_clock() == plain.max_clock()
    assert traced.total_bytes() == plain.total_bytes()
    np.testing.assert_array_equal(traced_out[0], plain_out[0])

    chrome = tracer.to_chrome_trace()
    assert {e["tid"] for e in chrome["traceEvents"]} == set(range(8))
    tracer.save_chrome_trace(results_dir / "fig4_rvh_trace.json")


def test_fig4_executed_allreduce_benchmark(benchmark):
    """Time the actual Algorithm 1 execution (8 ranks, 64 KiB).

    Runs over raw rows with fused-layer boundaries — the arena form the
    trainers feed.
    """
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(16384).astype(np.float32) for _ in range(8)]
    boundaries = list(range(0, 16384 + 2048, 2048))  # 8 fused "layers"

    def run():
        cluster = Cluster(8)
        results = cluster.run(
            rvh_flat, rank_args=[(g, boundaries) for g in grads]
        )
        return results[0]

    out = benchmark(run)
    assert np.isfinite(out).all()


HIER_HEADERS = ["ranks", "tensor", "hier Adasum (ms)", "hier sum (ms)",
                "flat RVH (ms)", "adasum/sum"]


def test_fig4_hierarchical_scaling_table(benchmark, save_result):
    """Two-level scaling study at 256-1024 simulated ranks.

    The table prices hierarchical Adasum against the hierarchical plain
    sum and a flat single-level AdasumRVH on the same contended fabric;
    the assertion pins the Figure-4-style crossover — the tensor size
    from which the extra dot-product allreduce of Algorithm 1 no longer
    matters — at every rank count.
    """
    from repro.experiments import run_fig4_hierarchical

    result = benchmark.pedantic(run_fig4_hierarchical, rounds=1, iterations=1)
    rows = result.rows()
    announce(
        f"Figure 4 (two-level): hierarchical scaling, "
        f"{result.gpus_per_node} GPUs/node", format_table(HIER_HEADERS, rows),
    )
    save_result("fig4_hierarchical_scaling", HIER_HEADERS, rows,
                notes="analytic two-level model; crossover per rank count: "
                      f"{result.crossover_bytes()}")

    by_ranks = result.crossover_bytes()
    assert set(by_ranks) == {256, 512, 1024}
    for ranks, crossed in by_ranks.items():
        # The sweep reaches the bandwidth-bound regime everywhere.
        assert crossed is not None, f"no crossover at {ranks} ranks"
    # Small tensors are latency-bound: Adasum's extra allreduces show.
    smallest = [p for p in result.points if p.nbytes == min(
        q.nbytes for q in result.points)]
    assert all(p.ratio > 1.2 for p in smallest)
    # Keeping g-1 of g hops on NVLink beats the flat contended fabric
    # for every large tensor.
    largest = [p for p in result.points if p.nbytes == max(
        q.nbytes for q in result.points)]
    assert all(p.hier_adasum_ms < p.flat_rvh_ms for p in largest)
