"""α–β network cost model and analytic collective latencies.

The standard model from the collective-communication literature the
paper builds on (Chan et al. 2007 [10]; van de Geijn 1994 [35]): a
message of ``n`` bytes between two ranks costs ``α + β·n`` seconds,
where α is per-message latency and β inverse bandwidth.  Reductions add
``γ·n`` per byte combined.

The presets below model the paper's platforms:

* ``nccl_nvlink`` — DGX-2-class NVSwitch fabric (Section 5.3).
* ``infiniband`` — 100 Gb/s IB between nodes, as in the Figure 4 and
  ResNet-50 experiments (Section 4.2.3, 5.1).
* ``pcie`` — intra-node PCIe gen3 interconnect.
* ``slow_tcp`` — the 40 GbE TCP network of Section 5.2, with the high
  per-message software latency that motivates gradient accumulation.

Absolute constants are order-of-magnitude calibrated, not measured; the
benchmarks reproduce latency *shapes* and *ratios* (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class NetworkModel:
    """α–β(–γ) cost model for one link class.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Seconds per byte transferred (inverse bandwidth).
    gamma:
        Seconds per byte of local reduction arithmetic.
    name:
        Human-readable label used in benchmark tables.
    """

    alpha: float
    beta: float
    gamma: float = 0.0
    name: str = "custom"

    def send_cost(self, nbytes: int) -> float:
        """Cost of one point-to-point message of ``nbytes``."""
        return self.alpha + self.beta * nbytes

    def reduce_cost(self, nbytes: int) -> float:
        """Cost of locally combining ``nbytes`` of data."""
        return self.gamma * nbytes

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def nccl_nvlink() -> "NetworkModel":
        """NVSwitch-class fabric: ~1.5 µs latency, ~120 GB/s effective."""
        return NetworkModel(alpha=1.5e-6, beta=1.0 / 120e9, gamma=1.0 / 600e9, name="nccl-nvlink")

    @staticmethod
    def infiniband() -> "NetworkModel":
        """100 Gb/s InfiniBand: ~2 µs latency, ~11 GB/s effective."""
        return NetworkModel(alpha=2.0e-6, beta=1.0 / 11e9, gamma=1.0 / 200e9, name="infiniband")

    @staticmethod
    def pcie() -> "NetworkModel":
        """PCIe gen3 x16 intra-node: ~5 µs, ~12 GB/s."""
        return NetworkModel(alpha=5.0e-6, beta=1.0 / 12e9, gamma=1.0 / 200e9, name="pcie")

    @staticmethod
    def slow_tcp() -> "NetworkModel":
        """40 GbE TCP: ~50 µs software latency, ~3.5 GB/s effective."""
        return NetworkModel(alpha=5.0e-5, beta=1.0 / 3.5e9, gamma=1.0 / 200e9, name="slow-tcp")


# ----------------------------------------------------------------------
# Analytic collective latencies (validated against the executed
# simulation in tests/comm/test_cost_model.py)
# ----------------------------------------------------------------------
def ring_allreduce_cost(nbytes: int, p: int, net: NetworkModel) -> float:
    """Latency of a ring allreduce of ``nbytes`` over ``p`` ranks.

    2(p-1) steps, each moving ``n/p`` bytes; the reduce-scatter half also
    pays the reduction cost.  This models NCCL's default large-message
    algorithm (the "NCCL" baseline of the paper's Figure 4).
    """
    if p == 1:
        return 0.0
    chunk = nbytes / p
    step = net.send_cost(chunk)
    return (p - 1) * (step + net.reduce_cost(chunk)) + (p - 1) * step


def _pow2_block_overhead(nbytes: float, net: NetworkModel, adasum: bool) -> float:
    """Extra latency of one ``tree`` block-combine level.

    Non-power-of-two rank counts decompose into the largest power-of-two
    block and the remainder (``largest_pow2_below``): the two blocks
    reduce independently (in parallel), the remainder's root ships its
    full vector to the main block's root for one pairwise combine, and
    the combined vector is broadcast back with one return hop.  For
    Adasum the pairwise combine also pays the dot products and scaled
    combination (≈3× a plain sum's arithmetic).
    """
    combine = net.reduce_cost(nbytes) * (3 if adasum else 1)
    return net.send_cost(nbytes) + combine + net.send_cost(nbytes)


def rvh_allreduce_cost(nbytes: int, p: int, net: NetworkModel) -> float:
    """Latency of recursive-vector-halving allreduce (elementwise op).

    log p reduce-scatter rounds exchanging n/2, n/4, ... bytes, then
    log p allgather rounds with the same sizes — the latency-and-
    bandwidth-optimal algorithm of [10, 35] on hypercubes.

    Non-power-of-two ``p`` is modeled as the ``tree`` pow2-block
    decomposition (largest power-of-two block + remainder, reduced in
    parallel, then one full-vector combine/broadcast exchange) instead
    of silently flooring ``log2(p)`` — which used to cost p=6 the same
    as p=4.
    """
    if p <= 1:
        return 0.0
    if p & (p - 1):
        p0 = 1 << (p.bit_length() - 1)
        blocks = max(
            rvh_allreduce_cost(nbytes, p0, net),
            rvh_allreduce_cost(nbytes, p - p0, net),
        )
        return blocks + _pow2_block_overhead(nbytes, net, adasum=False)
    rounds = p.bit_length() - 1
    total = 0.0
    size = nbytes
    for _ in range(rounds):
        half = size / 2
        total += net.send_cost(half) + net.reduce_cost(half)  # reduce-scatter round
        total += net.send_cost(half)  # matching allgather round
        size = half
    return total


def nccl_allreduce_cost(nbytes: int, p: int, net: NetworkModel) -> float:
    """Modeled NCCL sum baseline for Figure 4.

    NCCL selects its algorithm by message size (tree/latency-optimal for
    small messages, ring/bandwidth-optimal for large); the envelope of
    the two analytic costs models that adaptivity.
    """
    return min(ring_allreduce_cost(nbytes, p, net), rvh_allreduce_cost(nbytes, p, net))


def adasum_rvh_cost(nbytes: int, p: int, net: NetworkModel) -> float:
    """Latency of Algorithm 1 (AdasumRVH).

    Equals the RVH cost plus, per recursion level, the small allreduce
    of the three partial dot products (3 doubles) within a group of
    ``2^level`` ranks (recursive doubling: ``level`` rounds of 24-byte
    messages), plus the extra arithmetic of the dot products and scaled
    combination (≈3× the work of a plain sum).

    Non-power-of-two ``p`` uses the same ``tree`` pow2-block
    decomposition as :func:`rvh_allreduce_cost`, with the block-combine
    paying the Adasum pairwise arithmetic.
    """
    if p <= 1:
        return 0.0
    if p & (p - 1):
        p0 = 1 << (p.bit_length() - 1)
        blocks = max(
            adasum_rvh_cost(nbytes, p0, net),
            adasum_rvh_cost(nbytes, p - p0, net),
        )
        return blocks + _pow2_block_overhead(nbytes, net, adasum=True)
    rounds = p.bit_length() - 1
    total = 0.0
    size = nbytes
    for level in range(1, rounds + 1):
        half = size / 2
        total += net.send_cost(half)
        # Dot products + scaled combination over the local half.
        total += 3 * net.reduce_cost(half)
        # Allreduce of v = [a·b, a·a, b·b] among the 2^level group.
        total += level * net.send_cost(24)
        total += net.send_cost(half)  # allgather round
        size = half
    return total


def adasum_ring_cost(nbytes: int, p: int, net: NetworkModel) -> float:
    """Analytic latency of the ring Adasum (§4.2.3): a serial chain of
    P-1 full-vector hops plus a binomial broadcast.

    Lives beside :func:`adasum_rvh_cost` so the Figure 4 style
    comparisons draw every analytic model from one module.
    """
    if p == 1:
        return 0.0
    chain = (p - 1) * (net.send_cost(nbytes) + net.reduce_cost(2 * nbytes))
    bcast = math.ceil(math.log2(p)) * net.send_cost(nbytes)
    return chain + bcast


def hierarchical_allreduce_cost(
    nbytes: int,
    nodes: int,
    gpus_per_node: int,
    intra: NetworkModel,
    inter: NetworkModel,
    cross_node_adasum: bool = False,
    contention: float = 1.0,
) -> float:
    """Two-level allreduce: intra-node reduce-scatter/allgather (NCCL)
    bracketing a cross-node reduction (Section 4.2.2).

    Each GPU ends the local reduce-scatter holding ``nbytes / g`` bytes
    and participates in a cross-node allreduce of that slice (RVH or
    AdasumRVH), followed by the local allgather.  The slice size is one
    expression for every ``g`` — including ``g == 1`` — and is kept as a
    float: truncating to ``int`` dropped the fractional bytes whenever
    ``nbytes % g != 0``, understating the cross-node term (the executed
    simulation charges every byte).

    ``contention`` scales the inter-node bandwidth term: the ``g`` local
    ranks run their cross-node slice reductions concurrently over one
    shared NIC, so each sees ``beta * contention`` effective inverse
    bandwidth (``contention = g`` models full serialization on the NIC;
    1.0 models per-rank dedicated links).
    """
    g = gpus_per_node
    slice_bytes = nbytes / g
    local = 0.0
    if g > 1:
        local += (g - 1) * (intra.send_cost(slice_bytes) + intra.reduce_cost(slice_bytes))
        local += (g - 1) * intra.send_cost(slice_bytes)  # allgather
    if contention != 1.0:
        inter = dataclasses.replace(inter, beta=inter.beta * contention)
    if cross_node_adasum:
        cross = adasum_rvh_cost(slice_bytes, nodes, inter)
    else:
        cross = rvh_allreduce_cost(slice_bytes, nodes, inter)
    return local + cross


@dataclasses.dataclass(frozen=True)
class TwoLevelNetwork:
    """Heterogeneous two-level fabric: fast intra-node, slow inter-node.

    Duck-types the :class:`NetworkModel` costing interface the transport
    uses (``send_cost`` / ``reduce_cost``) and additionally provides
    :meth:`pair_send_cost`, which :meth:`repro.comm.transport.Comm.send`
    prefers when present — so an executed collective on a
    :class:`~repro.comm.transport.Cluster` automatically pays NVLink
    prices for messages that stay inside a node and InfiniBand (or
    worse) prices across nodes.

    Attributes
    ----------
    intra, inter:
        α–β(–γ) models for the two link classes.
    gpus_per_node:
        Node width; ranks ``[k*g, (k+1)*g)`` share a node.
    contention:
        Multiplier on the inter-node β term, modeling the node's local
        ranks sharing one NIC for their concurrent cross-node slices
        (``gpus_per_node`` = fully serialized, 1.0 = dedicated links).
    """

    intra: NetworkModel
    inter: NetworkModel
    gpus_per_node: int
    contention: float = 1.0
    name: str = "two-level"

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def link_for(self, src: int, dst: int) -> NetworkModel:
        """The link class a ``src -> dst`` message travels over."""
        return self.intra if self.node_of(src) == self.node_of(dst) else self.inter

    def pair_send_cost(self, nbytes: int, src: int, dst: int) -> float:
        """Cost of one point-to-point message between specific ranks."""
        link = self.link_for(src, dst)
        if link is self.inter:
            return link.alpha + link.beta * self.contention * nbytes
        return link.send_cost(nbytes)

    def send_cost(self, nbytes: int) -> float:
        """Pairless fallback (conservative: the slow inter-node link)."""
        return self.inter.alpha + self.inter.beta * self.contention * nbytes

    def reduce_cost(self, nbytes: int) -> float:
        """Local reduction arithmetic (on-node, intra γ)."""
        return self.intra.reduce_cost(nbytes)

    @staticmethod
    def nvlink_ib(gpus_per_node: int = 4, contention: float = None) -> "TwoLevelNetwork":
        """The paper's Azure cluster shape: NVSwitch inside each node,
        100 Gb/s InfiniBand between nodes, NIC shared by the node's
        GPUs (contention defaults to ``gpus_per_node``)."""
        return TwoLevelNetwork(
            intra=NetworkModel.nccl_nvlink(),
            inter=NetworkModel.infiniband(),
            gpus_per_node=gpus_per_node,
            contention=float(gpus_per_node if contention is None else contention),
            name=f"nvlink+ib/{gpus_per_node}",
        )
