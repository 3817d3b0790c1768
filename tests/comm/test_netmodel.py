"""Cost-model tests: analytic formulas validated against the executed simulation."""

import numpy as np
import pytest

from repro.comm import (
    Cluster,
    NetworkModel,
    allreduce_ring,
    adasum_rvh_cost,
    cluster_allreduce,
    hierarchical_adasum_allreduce,
    hierarchical_allreduce_cost,
    ring_allreduce_cost,
    rvh_allreduce_cost,
)


class TestBasics:
    def test_send_cost(self):
        net = NetworkModel(alpha=2.0, beta=0.1)
        assert net.send_cost(100) == pytest.approx(2.0 + 10.0)

    def test_reduce_cost(self):
        net = NetworkModel(alpha=0, beta=0, gamma=0.5)
        assert net.reduce_cost(10) == pytest.approx(5.0)

    def test_presets_sane(self):
        for preset in (
            NetworkModel.nccl_nvlink(),
            NetworkModel.infiniband(),
            NetworkModel.pcie(),
            NetworkModel.slow_tcp(),
        ):
            assert preset.alpha > 0
            assert preset.beta > 0

    def test_tcp_slower_than_ib(self):
        tcp, ib = NetworkModel.slow_tcp(), NetworkModel.infiniband()
        assert tcp.alpha > ib.alpha
        assert tcp.beta > ib.beta


class TestAnalyticShapes:
    def test_single_rank_free(self):
        net = NetworkModel.infiniband()
        assert ring_allreduce_cost(1000, 1, net) == 0.0
        assert rvh_allreduce_cost(1000, 1, net) == 0.0
        assert adasum_rvh_cost(1000, 1, net) == 0.0

    def test_latency_dominated_small_messages(self):
        """At tiny sizes, RVH (log p messages) beats ring (2(p-1) messages)."""
        net = NetworkModel.infiniband()
        p = 64
        assert rvh_allreduce_cost(256, p, net) < ring_allreduce_cost(256, p, net)

    def test_bandwidth_terms_converge_large_messages(self):
        """At large sizes both algorithms approach 2n/B — within ~20%."""
        net = NetworkModel.infiniband()
        p, n = 64, 1 << 26
        ring = ring_allreduce_cost(n, p, net)
        rvh = rvh_allreduce_cost(n, p, net)
        assert rvh / ring == pytest.approx(1.0, rel=0.25)

    def test_adasum_close_to_nccl(self):
        """The paper's Figure 4: AdasumRVH ≈ NCCL sum across sizes."""
        from repro.comm.netmodel import nccl_allreduce_cost

        net = NetworkModel.infiniband()
        for exp in range(10, 29, 2):
            n = 1 << exp
            ada = adasum_rvh_cost(n, 64, net)
            nccl = nccl_allreduce_cost(n, 64, net)
            assert ada >= nccl  # strictly more work...
            assert ada <= 3.0 * nccl  # ...but the same order

    def test_adasum_converges_to_nccl_at_large_sizes(self):
        from repro.comm.netmodel import nccl_allreduce_cost

        net = NetworkModel.infiniband()
        n = 1 << 28
        ratio = adasum_rvh_cost(n, 64, net) / nccl_allreduce_cost(n, 64, net)
        assert ratio == pytest.approx(1.0, rel=0.15)

    def test_monotone_in_size(self):
        net = NetworkModel.infiniband()
        costs = [adasum_rvh_cost(1 << e, 16, net) for e in range(10, 24, 2)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_hierarchical_beats_flat_on_mixed_fabric(self):
        """With fast intra-node links, hierarchy reduces cross-node bytes."""
        intra = NetworkModel.nccl_nvlink()
        inter = NetworkModel.infiniband()
        n = 1 << 24
        flat = rvh_allreduce_cost(n, 64, inter)
        hier = hierarchical_allreduce_cost(n, nodes=16, gpus_per_node=4, intra=intra, inter=inter)
        assert hier < flat


class TestSimulationAgreement:
    """The executed thread simulation must match the analytic formulas."""

    def test_ring_cost_matches_simulation(self):
        net = NetworkModel(alpha=1e-3, beta=1e-6, gamma=1e-7)
        p, n = 4, 4096
        vecs = [np.zeros(n, dtype=np.float32) for _ in range(p)]
        cluster = Cluster(p, network=net)
        cluster.run(lambda c, v: allreduce_ring(c, v), rank_args=[(v,) for v in vecs])
        analytic = ring_allreduce_cost(n * 4, p, net)
        # The simulation pipelines chunks, so allow modest disagreement.
        assert cluster.max_clock() == pytest.approx(analytic, rel=0.35)

    def test_adasum_rvh_cost_matches_simulation(self):
        net = NetworkModel(alpha=1e-3, beta=1e-6, gamma=1e-7)
        p, n = 8, 8192
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(n).astype(np.float32) for _ in range(p)]
        cluster = Cluster(p, network=net)
        cluster.run(
            lambda c, v: cluster_allreduce(c, v, "adasum", "rvh"),
            rank_args=[(v,) for v in vecs],
        )
        analytic = adasum_rvh_cost(n * 4, p, net)
        assert cluster.max_clock() == pytest.approx(analytic, rel=0.5)


class TestNonPow2RankCosts:
    """Regression: ``int(math.log2(p))`` flooring used to price p=6 like p=4.

    Non-power-of-two worlds decompose into power-of-two blocks that run
    in parallel plus one full-vector combine exchange, so the cost must
    strictly exceed the largest contained power-of-two block.
    """

    @pytest.mark.parametrize("p", [3, 5, 6, 12])
    @pytest.mark.parametrize("cost_fn", [rvh_allreduce_cost, adasum_rvh_cost])
    def test_cost_exceeds_pow2_block(self, p, cost_fn):
        net = NetworkModel.infiniband()
        nbytes = 1 << 16
        p0 = 1 << (p.bit_length() - 1)  # largest power of two <= p
        assert cost_fn(nbytes, p, net) > cost_fn(nbytes, p0, net)

    @pytest.mark.parametrize("p", [3, 5, 6, 12])
    @pytest.mark.parametrize(
        "cost_fn,adasum", [(rvh_allreduce_cost, False), (adasum_rvh_cost, True)]
    )
    def test_block_decomposition_structure(self, p, cost_fn, adasum):
        from repro.comm.netmodel import _pow2_block_overhead

        net = NetworkModel.infiniband()
        nbytes = 1 << 16
        p0 = 1 << (p.bit_length() - 1)
        blocks = max(cost_fn(nbytes, p0, net), cost_fn(nbytes, p - p0, net))
        expected = blocks + _pow2_block_overhead(nbytes, net, adasum=adasum)
        assert cost_fn(nbytes, p, net) == pytest.approx(expected)

    def test_pow2_unchanged_by_decomposition_path(self):
        # Power-of-two worlds never pay the combine-exchange overhead.
        net = NetworkModel.infiniband()
        nbytes = 1 << 20
        assert rvh_allreduce_cost(nbytes, 4, net) < rvh_allreduce_cost(nbytes, 6, net)
        assert rvh_allreduce_cost(nbytes, 6, net) < rvh_allreduce_cost(
            nbytes, 8, net
        ) + 2 * net.send_cost(nbytes)


class TestTwoLevelNetwork:
    def _net(self, g=2, contention=1.0):
        from repro.comm import TwoLevelNetwork

        intra = NetworkModel(alpha=1e-6, beta=1e-10, gamma=1e-9, name="intra")
        inter = NetworkModel(alpha=1e-3, beta=1e-6, gamma=1e-7, name="inter")
        return TwoLevelNetwork(
            intra=intra, inter=inter, gpus_per_node=g, contention=contention
        )

    def test_link_selection(self):
        net = self._net(g=2)
        assert net.node_of(0) == net.node_of(1) == 0
        assert net.node_of(2) == net.node_of(3) == 1
        assert net.link_for(0, 1) is net.intra
        assert net.link_for(2, 3) is net.intra
        assert net.link_for(1, 2) is net.inter
        assert net.link_for(0, 3) is net.inter

    def test_pair_send_cost_intra_vs_inter(self):
        net = self._net(g=2)
        nbytes = 1 << 16
        assert net.pair_send_cost(nbytes, 0, 1) == pytest.approx(
            net.intra.send_cost(nbytes)
        )
        assert net.pair_send_cost(nbytes, 0, 2) > net.pair_send_cost(nbytes, 0, 1)

    def test_contention_scales_inter_bandwidth_only(self):
        nbytes = 1 << 20
        base = self._net(g=2, contention=1.0)
        contended = self._net(g=2, contention=4.0)
        # Intra-node links are dedicated: contention never applies.
        assert contended.pair_send_cost(nbytes, 0, 1) == pytest.approx(
            base.pair_send_cost(nbytes, 0, 1)
        )
        # Inter-node bandwidth term is multiplied; latency term is not.
        extra = contended.pair_send_cost(nbytes, 0, 2) - base.pair_send_cost(nbytes, 0, 2)
        assert extra == pytest.approx(3.0 * base.inter.beta * nbytes)

    def test_nvlink_ib_preset(self):
        from repro.comm import TwoLevelNetwork

        net = TwoLevelNetwork.nvlink_ib(gpus_per_node=4)
        assert net.gpus_per_node == 4
        # Default contention: every local rank shares the one NIC.
        assert net.contention == 4
        nbytes = 1 << 24
        assert net.intra.send_cost(nbytes) < net.inter.send_cost(nbytes)


class TestHierarchicalCostAgreement:
    """Satellite: analytic two-level cost vs the *executed* collective.

    The analytic form serializes the stages a real run pipelines, so it
    is an upper envelope: the simulated clock lands within it but never
    collapses far below.
    """

    INTRA = NetworkModel(alpha=1e-4, beta=1e-7, gamma=1e-8, name="intra")
    INTER = NetworkModel(alpha=1e-3, beta=1e-6, gamma=1e-7, name="inter")

    def _run(self, fn, nodes, g, n_floats, seed=0):
        from repro.comm import TwoLevelNetwork

        size = nodes * g
        net = TwoLevelNetwork(intra=self.INTRA, inter=self.INTER, gpus_per_node=g)
        cluster = Cluster(size, network=net, timeout=60)
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(n_floats).astype(np.float32) for _ in range(size)]
        cluster.run(fn, rank_args=[(v,) for v in vecs])
        return cluster.max_clock()

    @pytest.mark.parametrize(
        "nodes,g,n_floats",
        [(2, 2, 257), (4, 2, 123), (2, 4, 1001), (3, 2, 77)],
    )
    def test_sum_within_analytic_envelope(self, nodes, g, n_floats):
        from repro.comm import hierarchical_sum_allreduce

        sim = self._run(
            lambda c, v: hierarchical_sum_allreduce(c, v, g), nodes, g, n_floats
        )
        analytic = hierarchical_allreduce_cost(
            n_floats * 4, nodes, g, intra=self.INTRA, inter=self.INTER
        )
        assert 0.3 * analytic < sim <= 1.1 * analytic

    @pytest.mark.parametrize("nodes,g,n_floats", [(2, 2, 257), (4, 4, 512)])
    def test_adasum_pow2_nodes_tight(self, nodes, g, n_floats):
        # Power-of-two node counts run AdasumRVH across nodes — exactly
        # what the analytic form prices, so agreement is tight.
        sim = self._run(
            lambda c, v: hierarchical_adasum_allreduce(c, v, g), nodes, g, n_floats
        )
        analytic = hierarchical_allreduce_cost(
            n_floats * 4, nodes, g,
            intra=self.INTRA, inter=self.INTER, cross_node_adasum=True,
        )
        assert sim == pytest.approx(analytic, rel=0.1)

    def test_property_analytic_envelope(self):
        # Property sweep (seeded, deterministic): odd sizes that do not
        # divide by g exercise the fractional slice-bytes fix — the old
        # int() truncation priced the g=1 slice at 0 bytes for small n.
        from repro.comm import hierarchical_sum_allreduce

        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=6, deadline=None)
        @given(
            n_floats=st.integers(min_value=33, max_value=300),
            nodes=st.sampled_from([2, 3, 4]),
            g=st.sampled_from([2, 4]),
        )
        def check(n_floats, nodes, g):
            sim = self._run(
                lambda c, v: hierarchical_sum_allreduce(c, v, g), nodes, g, n_floats
            )
            analytic = hierarchical_allreduce_cost(
                n_floats * 4, nodes, g, intra=self.INTRA, inter=self.INTER
            )
            assert 0.0 < sim <= 1.1 * analytic

        check()

    def test_fractional_slice_bytes_regression(self):
        # nbytes < g used to truncate the per-GPU slice to zero bytes,
        # erasing the whole cross-node term.  Now it stays positive and
        # the cost is monotone in nbytes.
        cost_small = hierarchical_allreduce_cost(
            3, nodes=4, gpus_per_node=8, intra=self.INTRA, inter=self.INTER
        )
        cost_zero = hierarchical_allreduce_cost(
            0, nodes=4, gpus_per_node=8, intra=self.INTRA, inter=self.INTER
        )
        assert cost_small > cost_zero
