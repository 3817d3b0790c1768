"""Table 4 — BERT-Large system efficiency: Sum vs Adasum at 64/256/512 GPUs.

The paper reports per-phase throughput speedups (relative to
Baseline-LAMB on 64 GPUs) and end-to-end minutes.  Adasum's allreduce
costs slightly more (dot products + the small group allreduces), so its
scaling efficiency trails by a few percent at high GPU counts for the
communication-heavy phase 1, while phase 2 (more compute per byte)
matches — and Adasum's 20% algorithmic-efficiency win still makes it
faster end to end.

This experiment is pure system modeling: BERT-Large's real sizes (340M
parameters, fp16 gradients) composed with the hierarchical-allreduce
α–β model and the Table-3 iteration counts.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.comm import NetworkModel
from repro.train import TrainingTimeModel

#: BERT-Large gradient payload at fp16.
BERT_LARGE_BYTES = int(340e6 * 2)

#: Paper Table 3 iteration counts (Baseline-LAMB vs Adasum-LAMB).
BASELINE_ITERS = (7039, 1563)
ADASUM_ITERS = (5639, 1250)

#: Examples per iteration (effective batch 64K phase 1, 32K phase 2).
EFFECTIVE_BATCH = (65536, 32768)


@dataclasses.dataclass
class ScalePoint:
    gpus: int
    sum_speedup: Tuple[float, float]
    adasum_speedup: Tuple[float, float]
    sum_minutes: float
    adasum_minutes: float


@dataclasses.dataclass
class Table4Result:
    points: List[ScalePoint]

    def rows(self) -> List[Tuple]:
        return [
            (
                p.gpus,
                f"{p.sum_speedup[0]:.2f}", f"{p.adasum_speedup[0]:.2f}",
                f"{p.sum_speedup[1]:.2f}", f"{p.adasum_speedup[1]:.2f}",
                f"{p.sum_minutes:.0f}", f"{p.adasum_minutes:.0f}",
            )
            for p in self.points
        ]


#: Effective cross-node allreduce bandwidth.  Achieved collective
#: bandwidth at scale is far below the 100 Gb/s link rate (protocol
#: overheads, stragglers, imperfect compute/comm overlap); 2.2 GB/s
#: effective calibrates the Sum baseline near the paper's 7.47× speedup
#: at 512 GPUs.
EFFECTIVE_INTER = NetworkModel(alpha=2e-6, beta=1 / 2.2e9, gamma=1 / 200e9,
                               name="ib-effective")

#: The paper attributes Adasum's phase-1 scaling gap to its cross-node
#: path using CUDA-aware MPI (openmpi+ucx), which was slower than NCCL
#: on their cluster; modeled as an inter-node bandwidth tax.
MPI_BANDWIDTH_PENALTY = 2.4


def _phase_model(gpus: int, adasum: bool, seconds_per_example: float) -> TrainingTimeModel:
    inter = EFFECTIVE_INTER
    if adasum:
        inter = NetworkModel(
            alpha=inter.alpha * MPI_BANDWIDTH_PENALTY,
            beta=inter.beta * MPI_BANDWIDTH_PENALTY,
            gamma=inter.gamma,
            name="ib-effective-mpi",
        )
    return TrainingTimeModel(
        seconds_per_example=seconds_per_example,
        model_bytes=BERT_LARGE_BYTES,
        num_workers=gpus,
        gpus_per_node=16,  # DGX-2 nodes
        intra=NetworkModel.nccl_nvlink(),
        inter=inter,
        adasum=adasum,
    )


def run_table4(
    gpu_counts=(64, 256, 512),
    phase_seconds_per_example=(5.2e-3, 1.4e-2),
    fast: bool = True,
) -> Table4Result:
    """Compute the Table-4 grid.

    ``phase_seconds_per_example`` calibrates per-GPU compute so the
    64-GPU baseline lands near the paper's 12.2K (phase 1) / 4.6K
    (phase 2) examples/sec cluster throughput.
    """
    base_throughput = {}
    points = []
    for phase, spe in enumerate(phase_seconds_per_example):
        m = _phase_model(64, adasum=False, seconds_per_example=spe)
        mb = EFFECTIVE_BATCH[phase] // 64
        base_throughput[phase] = m.throughput(mb)

    for gpus in gpu_counts:
        speedups = {"sum": [], "adasum": []}
        minutes = {}
        for method, adasum in (("sum", False), ("adasum", True)):
            total_seconds = 0.0
            iters = BASELINE_ITERS if method == "sum" else ADASUM_ITERS
            for phase, spe in enumerate(phase_seconds_per_example):
                m = _phase_model(gpus, adasum=adasum, seconds_per_example=spe)
                mb = max(EFFECTIVE_BATCH[phase] // gpus, 1)
                thr = m.throughput(mb)
                speedups[method].append(thr / base_throughput[phase])
                total_seconds += iters[phase] * m.step_seconds(mb)
            minutes[method] = total_seconds / 60.0
        points.append(
            ScalePoint(
                gpus=gpus,
                sum_speedup=tuple(speedups["sum"]),
                adasum_speedup=tuple(speedups["adasum"]),
                sum_minutes=minutes["sum"],
                adasum_minutes=minutes["adasum"],
            )
        )
    return Table4Result(points=points)
