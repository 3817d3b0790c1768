"""The strategy registry: completeness, parity, and reference equivalence.

Every registered ``(op, topology)`` cell must agree with the one dict
adapter (``StrategyReducer.reduce``, bit-exact — it routes through the
flat kernel, so drift is impossible by construction and this matrix
keeps it that way) and with the reference kernels the paper defines
(``adasum_tree``, ``adasum_per_layer``, ``adasum_linear``).  World
sizes cover 2–8 including non-powers-of-two.
"""

import numpy as np
import pytest

from repro.core.operator import (
    adasum_linear,
    adasum_per_layer,
    adasum_tree,
)
from repro.core.strategies import (
    OPS,
    TOPOLOGIES,
    StrategyReducer,
    get_strategy,
    registered_cells,
)

POW2_SIZES = (2, 4, 8)
#: The retired spelling of the any-size tree.  The frozen benchmark's
#: elastic config still names it, so it must keep resolving to the
#: ``tree`` cell and reducing byte for byte as ``tree`` does.
RETIRED_TREE = "tree_any"
ALL_SIZES = (2, 3, 4, 5, 6, 7, 8)
# Includes a width-1 layer so parity covers single-column slices.
SIZES = ((6,), (1,), (3, 4), (10,))


def _dicts(seed, ranks, sizes=SIZES):
    rng = np.random.default_rng(seed)
    return [
        {f"l{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(sizes)}
        for _ in range(ranks)
    ]


def _rows(grad_dicts):
    data = np.stack(
        [np.concatenate([g.reshape(-1) for g in d.values()]) for d in grad_dicts]
    )
    boundaries = [0]
    for g in grad_dicts[0].values():
        boundaries.append(boundaries[-1] + g.size)
    return data, boundaries


def _combine(data, boundaries=None, op="sum", topology="tree"):
    return get_strategy(op, topology).combine_flat(data, boundaries)


def _reduce(grad_dicts, op="sum", topology="tree"):
    return StrategyReducer(op, topology).reduce(grad_dicts)


def _assert_bit_equal(a, b, msg=""):
    np.testing.assert_array_equal(
        np.asarray(a, dtype=np.float32).view(np.uint32),
        np.asarray(b, dtype=np.float32).view(np.uint32),
        err_msg=msg,
    )


class TestRegistry:
    def test_every_cell_registered(self):
        cells = set(registered_cells())
        expected = {(op, topo) for op in OPS for topo in TOPOLOGIES}
        assert cells == expected
        # 3 ops × 5 topologies
        assert len(cells) == 15

    def test_enum_ops_accepted(self):
        assert get_strategy("ADASUM", "Tree") is get_strategy(
            "adasum", "tree"
        )

    def test_unknown_cell_raises(self):
        with pytest.raises(ValueError, match="sum"):
            get_strategy("median", "tree")
        with pytest.raises(ValueError, match="tree"):
            get_strategy("sum", "torus")

    def test_strategy_reducer_exposes_strategy(self):
        r = StrategyReducer(op="adasum", topology="ring")
        assert r.strategy is get_strategy("adasum", "ring")
        assert r.topology == "ring"
        assert r.post_optimizer


class TestDictFlatParity:
    """flat vs dict is bit-exact for every cell that runs in-process,
    and for the retired tree spelling."""

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("topology", TOPOLOGIES + (RETIRED_TREE,))
    @pytest.mark.parametrize("ranks", ALL_SIZES)
    def test_parity(self, op, topology, ranks):
        if topology == "rvh" and op == "adasum" and ranks & (ranks - 1):
            pytest.skip("power-of-two-only topology")
        dicts = _dicts(seed=ranks, ranks=ranks)
        data, boundaries = _rows(dicts)

        out_dict = _reduce(dicts, op=op, topology=topology)
        out_flat = _combine(data, boundaries, op=op, topology=topology)

        offset = 0
        for name, ref in dicts[0].items():
            layer_flat = out_flat[offset : offset + ref.size].reshape(ref.shape)
            _assert_bit_equal(
                out_dict[name],
                layer_flat,
                msg=f"dict/flat drift in ({op}, {topology}) layer {name} "
                f"at {ranks} ranks",
            )
            assert out_dict[name].dtype == ref.dtype
            offset += ref.size


class TestReferenceEquivalence:
    @pytest.mark.parametrize("ranks", POW2_SIZES)
    def test_adasum_tree_matches_reference(self, ranks):
        dicts = _dicts(seed=10 + ranks, ranks=ranks)
        data, boundaries = _rows(dicts)

        # Whole-model: flat tree == adasum_tree over the raw rows.
        _assert_bit_equal(
            _combine(data, op="adasum", topology="tree"),
            adasum_tree([row for row in data]),
            msg=f"tree strategy diverges from adasum_tree at {ranks} ranks",
        )
        # Per-layer: the dict path == adasum_per_layer.
        ref = adasum_per_layer(dicts)
        out = _reduce(dicts, op="adasum", topology="tree")
        for name in ref:
            _assert_bit_equal(out[name], ref[name], msg=name)

    @pytest.mark.parametrize("ranks", POW2_SIZES)
    def test_tree_any_matches_tree_on_pow2(self, ranks):
        assert get_strategy("adasum", RETIRED_TREE) is get_strategy("adasum", "tree")
        data, boundaries = _rows(_dicts(seed=20 + ranks, ranks=ranks))
        _assert_bit_equal(
            _combine(data, boundaries, op="adasum", topology=RETIRED_TREE),
            _combine(data, boundaries, op="adasum", topology="tree"),
        )

    @pytest.mark.parametrize("ranks", (3, 5, 6, 7))
    def test_tree_any_non_pow2(self, ranks):
        """The retired spelling still reduces a non-power-of-two world,
        splitting at the largest power of two below n as ``tree`` does."""
        data, boundaries = _rows(_dicts(seed=30 + ranks, ranks=ranks))
        out = _combine(data, boundaries, op="adasum", topology=RETIRED_TREE)
        assert out.shape == data[0].shape
        assert np.isfinite(out).all()
        _assert_bit_equal(
            out, _combine(data, boundaries, op="adasum", topology="tree"))

    @pytest.mark.parametrize("per_layer", [False, True], ids=["whole", "layers"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("op", OPS)
    def test_tree_matches_the_oracle_and_its_schedule(self, op, dtype, per_layer):
        """The one tree reduces any world: at every n the flat kernel
        equals the dict oracle (Adasum: ``adasum_per_layer``, which
        splits a non-power-of-two n at the largest power of two) and a
        replay of the cell's own pair schedule, byte for byte."""
        cell = get_strategy(op, "tree")
        sizes = (5, 1, 7, 3)
        for ranks in range(1, 10):
            rng = np.random.default_rng(100 + ranks)
            data = rng.standard_normal((ranks, sum(sizes))).astype(dtype)
            boundaries = list(np.cumsum((0,) + sizes)) if per_layer else None
            got = cell.combine_flat(data, boundaries)
            assert got.dtype == dtype
            work = data.copy()
            for level in cell.pair_schedule(ranks):
                for dst, src, kind in level:
                    cell.pair_combine(kind, work[dst], work[src], boundaries,
                                      out=work[dst])
            if ranks > 1:
                cell.finalize_pair(work[0], ranks)
            assert got.tobytes() == work[0].tobytes(), (op, ranks)
            if op == "adasum":
                bounds = boundaries or [0, data.shape[1]]
                dicts = [{f"l{i}": row[lo:hi] for i, (lo, hi)
                          in enumerate(zip(bounds[:-1], bounds[1:]))} for row in data]
                ref = adasum_per_layer(dicts)
                assert got.tobytes() == np.concatenate(list(ref.values())).tobytes(), ranks

    @pytest.mark.parametrize("ranks", ALL_SIZES)
    def test_linear_matches_reference(self, ranks):
        data, _ = _rows(_dicts(seed=40 + ranks, ranks=ranks))
        _assert_bit_equal(
            _combine(data, op="adasum", topology="linear"),
            adasum_linear([row for row in data]),
        )

    @pytest.mark.parametrize("ranks", ALL_SIZES)
    def test_ring_matches_linear_in_process(self, ranks):
        """In-process the ring strategy is the same left fold as linear."""
        data, boundaries = _rows(_dicts(seed=50 + ranks, ranks=ranks))
        _assert_bit_equal(
            _combine(data, boundaries, op="adasum", topology="ring"),
            _combine(data, boundaries, op="adasum", topology="linear"),
        )

    @pytest.mark.parametrize("ranks", POW2_SIZES)
    def test_rvh_close_to_tree(self, ranks):
        """RVH distributes the dot products, so it matches tree only to
        floating-point tolerance, not bit-exactly."""
        data, boundaries = _rows(_dicts(seed=60 + ranks, ranks=ranks))
        np.testing.assert_allclose(
            _combine(data, boundaries, op="adasum", topology="rvh"),
            _combine(data, boundaries, op="adasum", topology="tree"),
            rtol=1e-5,
            atol=1e-6,
        )

    @pytest.mark.parametrize("ranks", ALL_SIZES)
    @pytest.mark.parametrize("op", ("sum", "average"))
    def test_sum_average_reference(self, op, ranks):
        # The kernel is the power-of-two-block pairwise tree (so the
        # worker-parallel reduce can replay it as independent pair
        # combines), not a float64 fold — it matches the float64
        # reference to storage-dtype rounding per tree level, hence the
        # absolute term for near-cancelling elements.
        data, _ = _rows(_dicts(seed=70 + ranks, ranks=ranks))
        ref = np.sum(data.astype(np.float64), axis=0)
        if op == "average":
            ref = ref / ranks
        np.testing.assert_allclose(
            _combine(data, op=op, topology="tree"),
            ref.astype(np.float32),
            rtol=1e-6,
            atol=1e-5,
        )

    @pytest.mark.parametrize("op", ("sum", "average"))
    def test_sum_topology_invariant(self, op):
        """Elementwise ops give bit-identical results on every topology."""
        data, boundaries = _rows(_dicts(seed=80, ranks=6))
        base = _combine(data, boundaries, op=op, topology="tree")
        for topology in TOPOLOGIES:
            _assert_bit_equal(
                _combine(data, boundaries, op=op, topology=topology), base
            )


class TestValidation:
    @pytest.mark.parametrize("ranks", (3, 6))
    def test_rvh_rejects_non_pow2(self, ranks):
        data, _ = _rows(_dicts(seed=95 + ranks, ranks=ranks))
        with pytest.raises(ValueError, match="power-of-two"):
            _combine(data, op="adasum", topology="rvh")

    def test_empty_dicts_raise(self):
        with pytest.raises(ValueError, match="at least one rank"):
            _reduce([], op="sum")

    def test_mismatched_names_raise(self):
        with pytest.raises(ValueError, match="differ"):
            _reduce(
                [{"a": np.zeros(2, np.float32)}, {"b": np.zeros(2, np.float32)}],
                op="sum",
            )

    def test_single_rank_identity(self):
        data, boundaries = _rows(_dicts(seed=99, ranks=1))
        for op in OPS:
            for topology in TOPOLOGIES:
                out = _combine(data, boundaries, op=op, topology=topology)
                _assert_bit_equal(out, data[0], msg=f"({op}, {topology})")


class TestHierarchicalStrategy:
    """The (op, 'hierarchical') cells: §4.3 node-sum semantics + bind()."""

    @pytest.mark.parametrize("ranks,g", [(4, 2), (8, 2), (8, 4), (6, 2), (6, 3)])
    def test_adasum_equals_tree_any_over_node_sums(self, ranks, g):
        """Adasum tree over the node sums, at any node count."""
        data, boundaries = _rows(_dicts(11, ranks))
        cell = get_strategy("adasum", "hierarchical").bind(gpus_per_node=g)
        got = cell.combine_flat(data, boundaries)
        node_sums = np.stack([
            _combine(data[k * g:(k + 1) * g], boundaries, op="sum",
                        topology="tree")
            for k in range(ranks // g)
        ])
        expected = _combine(node_sums, boundaries, op="adasum",
                               topology="tree")
        _assert_bit_equal(got, expected, f"ranks={ranks} g={g}")

    def test_non_divisible_world_falls_back_to_tree_any(self):
        # 7 rows with g=2: node symmetry is broken (the elastic reshard
        # case) — the cell degrades to the plain tree over all rows.
        data, boundaries = _rows(_dicts(12, 7))
        cell = get_strategy("adasum", "hierarchical").bind(gpus_per_node=2)
        _assert_bit_equal(
            cell.combine_flat(data, boundaries),
            _combine(data, boundaries, op="adasum", topology="tree"),
        )

    def test_single_node_world_is_plain_sum(self):
        # All ranks share one node: Adasum never runs, gradients sum.
        data, boundaries = _rows(_dicts(13, 4))
        cell = get_strategy("adasum", "hierarchical").bind(gpus_per_node=4)
        _assert_bit_equal(
            cell.combine_flat(data, boundaries),
            _combine(data, boundaries, op="sum", topology="tree"),
        )

    @pytest.mark.parametrize("op", ["sum", "average"])
    def test_elementwise_ops_match_flat(self, op):
        data, boundaries = _rows(_dicts(14, 6))
        cell = get_strategy(op, "hierarchical").bind(gpus_per_node=2)
        _assert_bit_equal(
            cell.combine_flat(data, boundaries),
            _combine(data, boundaries, op=op, topology="tree"),
        )

    def test_bind_returns_new_instance_registry_untouched(self):
        default = get_strategy("adasum", "hierarchical")
        bound = default.bind(gpus_per_node=4)
        assert bound is not default
        assert bound.gpus_per_node == 4
        assert get_strategy("adasum", "hierarchical").gpus_per_node == 1
        # Binding the current value is a no-op returning self.
        assert bound.bind(gpus_per_node=4) is bound
        assert default.bind() is default

    def test_bind_rejected_on_flat_cells(self):
        with pytest.raises(ValueError, match="gpus_per_node"):
            get_strategy("adasum", "tree").bind(gpus_per_node=4)

    def test_reducer_carries_gpus_per_node(self):
        r = StrategyReducer(op="adasum", topology="hierarchical", gpus_per_node=4)
        assert r.gpus_per_node == 4
        assert "gpus_per_node=4" in repr(r)
        flat = StrategyReducer(op="adasum", topology="tree")
        assert flat.gpus_per_node == 1
