"""AdasumRVH allreduce: correctness + latency sweep (paper §4.2, Fig. 4).

Runs Algorithm 1 verbatim over the threaded message-passing simulator,
checks it against the sequential Adasum-tree reference, then prints the
Figure-4 latency sweep (AdasumRVH vs modeled NCCL sum, 64 ranks,
100 Gb/s InfiniBand constants).

Run:  python examples/allreduce_latency.py
"""

import numpy as np

from repro.comm import Cluster, NetworkModel, cluster_allreduce
from repro.core import adasum_tree
from repro.experiments import run_fig4, validate_rvh_simulation
from repro.utils import format_table


def main() -> None:
    # 1. Correctness: the distributed algorithm equals the local tree.
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(1000).astype(np.float32) for _ in range(8)]
    reference = adasum_tree(grads)
    cluster = Cluster(len(grads), network=NetworkModel.infiniband())
    result = cluster.run(
        cluster_allreduce, rank_args=[(g, "adasum", "rvh") for g in grads]
    )[0]
    latency = cluster.max_clock()
    err = float(np.abs(result - reference).max())
    print(f"AdasumRVH vs sequential tree: max |diff| = {err:.2e} "
          f"(simulated latency {latency * 1e6:.1f} µs)\n")

    # 2. Cross-validate the analytic cost model against the execution.
    simulated, analytic = validate_rvh_simulation(ranks=8, n_floats=16384)
    print(f"executed latency {simulated * 1e6:.1f} µs  vs analytic "
          f"{analytic * 1e6:.1f} µs\n")

    # 3. The Figure-4 sweep.
    fig4 = run_fig4()
    print(f"Figure 4 — allreduce latency, {fig4.ranks} ranks, InfiniBand model")
    print(format_table(
        ["tensor (bytes)", "Adasum (ms)", "NCCL sum (ms)", "ratio"], fig4.rows()
    ))
    print("\nExpected shape: roughly equal at large sizes (bandwidth-bound),")
    print("Adasum a small constant factor above at small sizes (extra dot-")
    print("product reductions), exactly as in the paper's Figure 4.")


if __name__ == "__main__":
    main()
