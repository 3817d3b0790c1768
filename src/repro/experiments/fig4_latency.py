"""Figure 4 — AdasumRVH vs NCCL-sum allreduce latency vs message size.

The paper measures 64 GPUs (16 Azure nodes × 4 V100s, 100 Gb/s IB) over
tensor sizes 2¹⁰..2²⁸ bytes and finds AdasumRVH "roughly equal" to the
highly-optimized NCCL sum.  Here the same sweep is produced from the
α–β cost model (DESIGN.md substitution), with the analytic AdasumRVH
cost cross-validated against the *executed* Algorithm 1 over the
threaded simulator at tractable sizes.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from typing import Dict, Optional

from repro.comm import (
    Cluster,
    NetworkModel,
    TwoLevelNetwork,
    adasum_rvh_cost,
    cluster_allreduce,
    hierarchical_allreduce_cost,
    nccl_allreduce_cost,
)


@dataclasses.dataclass
class LatencyPoint:
    """One x-position of Figure 4."""

    nbytes: int
    adasum_ms: float
    nccl_ms: float

    @property
    def ratio(self) -> float:
        return self.adasum_ms / self.nccl_ms


@dataclasses.dataclass
class Fig4Result:
    points: List[LatencyPoint]
    ranks: int

    def rows(self) -> List[Tuple]:
        return [
            (f"2^{int(np.log2(p.nbytes))}", f"{p.adasum_ms:.3f}", f"{p.nccl_ms:.3f}",
             f"{p.ratio:.2f}x")
            for p in self.points
        ]


def run_fig4(
    ranks: int = 64,
    exponents=range(10, 29),
    network: NetworkModel = None,
) -> Fig4Result:
    """Reproduce the Figure 4 sweep from the cost model."""
    net = network or NetworkModel.infiniband()
    points = [
        LatencyPoint(
            nbytes=1 << e,
            adasum_ms=adasum_rvh_cost(1 << e, ranks, net) * 1e3,
            nccl_ms=nccl_allreduce_cost(1 << e, ranks, net) * 1e3,
        )
        for e in exponents
    ]
    return Fig4Result(points=points, ranks=ranks)


@dataclasses.dataclass
class HierLatencyPoint:
    """One (rank count, tensor size) cell of the two-level scaling study."""

    ranks: int
    nbytes: int
    hier_adasum_ms: float
    hier_sum_ms: float
    flat_rvh_ms: float

    @property
    def ratio(self) -> float:
        """Adasum's overhead over the plain two-level sum: the extra
        dot-product allreduces and pairwise arithmetic."""
        return self.hier_adasum_ms / self.hier_sum_ms


@dataclasses.dataclass
class Fig4HierResult:
    points: List[HierLatencyPoint]
    gpus_per_node: int
    network: TwoLevelNetwork

    def rows(self) -> List[Tuple]:
        return [
            (p.ranks, f"2^{int(np.log2(p.nbytes))}", f"{p.hier_adasum_ms:.3f}",
             f"{p.hier_sum_ms:.3f}", f"{p.flat_rvh_ms:.3f}", f"{p.ratio:.2f}x")
            for p in self.points
        ]

    def crossover_bytes(self, tolerance: float = 0.05) -> Dict[int, Optional[int]]:
        """Per rank count: the smallest swept tensor size from which
        hierarchical Adasum stays within ``tolerance`` of the two-level
        sum — i.e. where the α-bound dot-product allreduces of Algorithm
        1 stop mattering against the β-bound slice traffic.  ``None``
        when the sweep never reaches that regime.
        """
        out: Dict[int, Optional[int]] = {}
        for ranks in sorted({p.ranks for p in self.points}):
            series = sorted(
                (p for p in self.points if p.ranks == ranks),
                key=lambda p: p.nbytes,
            )
            crossed: Optional[int] = None
            # Scan from the top so the answer is the *stable* crossover,
            # not a transient dip.
            for p in reversed(series):
                if p.ratio <= 1.0 + tolerance:
                    crossed = p.nbytes
                else:
                    break
            out[ranks] = crossed
        return out


def run_fig4_hierarchical(
    rank_counts=(256, 512, 1024),
    gpus_per_node: int = 8,
    exponents=range(12, 29, 2),
    network: TwoLevelNetwork = None,
) -> Fig4HierResult:
    """Figure-4-style scaling study on the two-level fabric (§4.2.2).

    For each simulated world size the sweep prices the hierarchical
    Adasum (intra-node sum, AdasumRVH across nodes), the hierarchical
    plain sum, and the flat single-level AdasumRVH over the contended
    inter-node link — exposing both the benefit of keeping ``g-1`` of
    every ``g`` hops on NVLink and the message-size crossover where the
    extra dot-product allreduce of Algorithm 1 stops mattering.
    """
    net = network or TwoLevelNetwork.nvlink_ib(gpus_per_node=gpus_per_node)
    g = net.gpus_per_node
    points = []
    for ranks in rank_counts:
        if ranks % g:
            raise ValueError(f"rank count {ranks} not divisible by {g} GPUs/node")
        nodes = ranks // g
        for e in exponents:
            nbytes = 1 << e
            hier_kwargs = dict(
                nodes=nodes, gpus_per_node=g,
                intra=net.intra, inter=net.inter, contention=net.contention,
            )
            contended_inter = dataclasses.replace(
                net.inter, beta=net.inter.beta * net.contention
            )
            points.append(HierLatencyPoint(
                ranks=ranks,
                nbytes=nbytes,
                hier_adasum_ms=hierarchical_allreduce_cost(
                    nbytes, cross_node_adasum=True, **hier_kwargs) * 1e3,
                hier_sum_ms=hierarchical_allreduce_cost(
                    nbytes, cross_node_adasum=False, **hier_kwargs) * 1e3,
                flat_rvh_ms=adasum_rvh_cost(nbytes, ranks, contended_inter) * 1e3,
            ))
    return Fig4HierResult(points=points, gpus_per_node=g, network=net)


def validate_rvh_simulation(
    ranks: int = 8, n_floats: int = 16384, seed: int = 0
) -> Tuple[float, float]:
    """Cross-check: executed Algorithm 1 latency vs the analytic formula.

    Returns ``(simulated_seconds, analytic_seconds)``; the benchmark
    asserts they agree within a factor accounting for the pipelining the
    closed form ignores.
    """
    net = NetworkModel.infiniband()
    rng = np.random.default_rng(seed)
    grads = [rng.standard_normal(n_floats).astype(np.float32) for _ in range(ranks)]
    cluster = Cluster(ranks, network=net)
    cluster.run(cluster_allreduce, rank_args=[(g, "adasum", "rvh") for g in grads])
    analytic = adasum_rvh_cost(n_floats * 4, ranks, net)
    return cluster.max_clock(), analytic
