"""One reduction engine: the ``(op, topology)`` strategy registry.

* a :class:`ReduceStrategy` implements one ``(op, topology)`` cell —
  ``sum`` / ``average`` / ``adasum`` × ``tree`` / ``linear`` /
  ``rvh`` / ``ring`` / ``hierarchical`` — as a *flat*
  kernel over ``(ranks, size)`` rows
  (:meth:`~ReduceStrategy.combine_flat`, the single source of
  arithmetic truth);
* the registry maps ``(op, topology)`` keys to strategy instances, so a
  strategy registered once is immediately available phased, overlapped,
  bucketed, elastic, and from the CLI;
* :class:`StrategyReducer` is the canonical
  :class:`GradientReducer` the trainers plug in, backed by a registry
  lookup instead of a class hierarchy; its ``reduce`` is the one dict
  adapter: pack an arena, run the flat kernel, unpack.

Bit-exactness contracts (property-tested in
``tests/core/test_strategies.py``):

* every pairwise Adasum result rounds through the storage dtype before
  the next level re-widens it, and all dots/norms accumulate in
  float64 (:mod:`repro.core.operator`);
* ``sum`` / ``average`` run the same power-of-two-block pairwise tree
  as Adasum (:func:`pair_schedule`), with each pair combined by a
  correctly-rounded storage-dtype add — so a level-by-level replay of
  ``combine_pair`` over arena rows (the worker-parallel reduce of the
  process backend) reproduces ``combine_flat`` byte for byte for every
  op (property-tested in ``tests/core/test_pairwise_properties.py``);
* ``ring`` is the distributed execution of the same left fold as
  ``linear`` — in-process the two cells share one kernel;
* ``rvh`` distributes the per-layer dot products (partial dots finished
  by a group allreduce), so its results match ``tree`` only to
  floating-point association (``allclose``, not bit-equal).

What an op *is* is decided here and nowhere else: every layer reads
the two facts a strategy declares (:attr:`ReduceStrategy.post_optimizer`,
:attr:`ReduceStrategy.scales_with_world`) instead of comparing op names,
and an op is its registered name everywhere.  Adding an op or a
topology means one module with a ``ReduceStrategy`` subclass and a
:func:`register_strategy` call, plus tests — see docs/architecture.md.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import GradientArena
from repro.core.operator import (
    _adasum_flat_reduce,
    adasum_flat,
    largest_pow2_below,
)

#: The built-in ops / topologies (the matrix registered below); what is
#: *registered* — built-in or not — is :func:`registered_cells`.
OPS: Tuple[str, ...] = ("sum", "average", "adasum")
TOPOLOGIES: Tuple[str, ...] = (
    "tree",
    "linear",
    "rvh",
    "ring",
    "hierarchical",
)
#: Topologies whose cells share the elementwise sum/average kernel.
_FLAT_TOPOLOGIES: Tuple[str, ...] = ("tree", "linear", "rvh", "ring")


# ----------------------------------------------------------------------
# Shared arithmetic helpers
# ----------------------------------------------------------------------
#: Cache of tree-combine schedules; n is small (world sizes) and the
#: schedule for a given n never changes.
_TREE_LEVELS_CACHE: Dict[int, Tuple[Tuple[Tuple[int, int], ...], ...]] = {}


def pair_schedule(n: int) -> List[List[Tuple[int, int]]]:
    """The power-of-two-block tree combine schedule over ``n`` positions.

    Returns a list of *levels*; each level is a list of independent
    ``(dst, src)`` pairs meaning "position ``dst`` absorbs position
    ``src``".  Pairs within a level touch disjoint positions, so they
    can run concurrently (the worker-parallel reduce of the process
    backend); levels are barriers.  After the last level, position 0
    holds the combined result.

    The shape mirrors :func:`~repro.core.operator.adasum_tree`:
    power-of-two spans pair adjacent survivors level by level, and a
    non-power-of-two span splits at the largest power of two below
    ``n``, combining the two block roots once both blocks finish.  For
    example ``n=8`` gives ``[(0,1),(2,3),(4,5),(6,7)] / [(0,2),(4,6)] /
    [(0,4)]`` and ``n=6`` gives ``[(0,1),(2,3),(4,5)] / [(0,2)] /
    [(0,4)]``.
    """
    if n < 1:
        raise ValueError(f"need at least one position, got {n}")
    cached = _TREE_LEVELS_CACHE.get(n)
    if cached is None:
        levels: List[List[Tuple[int, int]]] = []

        def rec(lo: int, span: int) -> int:
            if span == 1:
                return 0
            p = largest_pow2_below(span)  # = span // 2 for powers of two
            depth = max(rec(lo, p), rec(lo + p, span - p))
            while len(levels) <= depth:
                levels.append([])
            levels[depth].append((lo, lo + p))
            return depth + 1

        rec(0, n)
        cached = tuple(tuple(level) for level in levels)
        _TREE_LEVELS_CACHE[n] = cached
    return [list(level) for level in cached]


def _uniform_schedule(n: int, kind: str = "pair") -> List[List[Tuple[int, int, str]]]:
    """:func:`pair_schedule` as ``(dst, src, kind)`` hops of one kind."""
    return [[(d, s, kind) for d, s in lvl] for lvl in pair_schedule(n)]


def _flat_sum(data: np.ndarray, boundaries: Sequence[int] = None) -> np.ndarray:
    """Pairwise-tree axis-0 sum of flat rows, in the storage dtype.

    Replays :func:`pair_schedule` with one correctly-rounded
    storage-dtype add per pair — exactly the arithmetic a worker's
    ``combine_pair`` performs on its peer's arena row, so the parent
    kernel and the worker-parallel tree reduce agree byte for byte.
    ``boundaries`` is accepted for signature compatibility but ignored:
    the kernel is elementwise, so per-layer and whole-model sums are
    identical.
    """
    del boundaries  # elementwise: layer structure cannot matter
    if data.shape[0] == 1:
        return data[0].copy()
    work = data.copy()
    for level in pair_schedule(data.shape[0]):
        for dst, src in level:
            np.add(work[dst], work[src], out=work[dst])
    return work[0]


# ----------------------------------------------------------------------
# Strategy protocol
# ----------------------------------------------------------------------
class ReduceStrategy:
    """One ``(op, topology)`` cell of the reduction matrix.

    ``combine_flat`` over ``(ranks, size)`` rows is the single source of
    arithmetic truth.  Cluster-form strategies additionally implement
    ``combine_comm`` (one rank's half of the collective, given a
    :class:`~repro.comm.transport.Comm`), and pairwise strategies
    implement ``combine_pair`` and :meth:`pair_schedule` (the hops the
    rank workers and the elastic collective replay).
    """

    op: str = "base"
    topology: str = "base"
    #: The op reduces each rank's post-optimizer model delta by default
    #: (paper Figure 3: every rank steps its own optimizer, the deltas
    #: are combined) instead of raw gradients before one shared step.
    post_optimizer: bool = False
    #: The result grows with the number of rows combined (a sum): a
    #: step that reduced only some of the world's rows is rescaled to
    #: the full world, and a Local-SGD round divides by the world size.
    scales_with_world: bool = False

    # -- validation ----------------------------------------------------
    def validate_world(self, n: int) -> None:
        """Raise ``ValueError`` when this cell cannot reduce ``n`` ranks."""
        if n < 1:
            raise ValueError("need at least one rank's gradients")

    # -- flat kernel ---------------------------------------------------
    def combine_flat(
        self, data: np.ndarray, boundaries: Sequence[int] = None
    ) -> np.ndarray:
        """Combine ``(ranks, size)`` flat rows into one flat row."""
        raise NotImplementedError

    # -- cluster / pairwise forms --------------------------------------
    def combine_pair(
        self,
        acc: np.ndarray,
        other: np.ndarray,
        boundaries: Sequence[int] = None,
        out: np.ndarray = None,
    ) -> np.ndarray:
        """One pairwise hop (tree-combine primitive); optional per cell."""
        raise NotImplementedError(
            f"strategy ({self.op!r}, {self.topology!r}) has no pairwise form"
        )

    def combine_comm(
        self, comm, row: np.ndarray, boundaries: Sequence[int] = None
    ) -> np.ndarray:
        """One rank's half of the cluster collective; optional per cell."""
        raise NotImplementedError(
            f"strategy ({self.op!r}, {self.topology!r}) has no cluster-"
            f"collective form"
        )

    # -- worker-parallel schedule form ---------------------------------
    def pair_schedule(self, n: int) -> Optional[List[List[Tuple[int, int, str]]]]:
        """The level-ordered pair-combine schedule over ``n`` positions.

        Returns levels of ``(dst, src, kind)`` triples such that
        replaying them with :meth:`pair_combine` (then
        :meth:`finalize_pair` on position 0) reproduces
        :meth:`combine_flat` byte for byte, or ``None`` when this cell
        has no schedule form (``rvh`` distributes partial dot products
        and cannot be expressed as independent pair combines).  ``kind``
        selects the per-pair arithmetic for mixed-op topologies
        (``hierarchical``: intra-node ``"local"`` sums feeding
        cross-node ``"pair"`` Adasum); uniform cells use ``"pair"``.
        Every pair has ``dst < src``, so descending rank order is a
        topological order of the sends (the elastic collective runs the
        schedule as an ordered replay).
        """
        return None

    def pair_combine(
        self,
        kind: str,
        acc: np.ndarray,
        other: np.ndarray,
        boundaries: Sequence[int] = None,
        out: np.ndarray = None,
    ) -> np.ndarray:
        """One scheduled hop of ``kind``; defaults to :meth:`combine_pair`."""
        del kind
        return self.combine_pair(acc, other, boundaries, out=out)

    def finalize_pair(self, acc: np.ndarray, n: int) -> np.ndarray:
        """Post-schedule fixup on the root row (in place when possible).

        Intermediate ``average`` hops are partial sums; the root divides
        by the participant count here.  Every other op is a no-op.
        """
        del n
        return acc

    # -- parameterization ----------------------------------------------
    def bind(self, **params) -> "ReduceStrategy":
        """Return this cell specialized with topology parameters.

        Most cells take none; parameterized topologies (currently
        ``hierarchical`` with ``gpus_per_node``) override this to return
        a bound copy, leaving the registered default untouched.  Unknown
        non-``None`` parameters raise so configuration typos fail fast.
        """
        extra = sorted(k for k, v in params.items() if v is not None)
        if extra:
            raise ValueError(
                f"strategy ({self.op!r}, {self.topology!r}) accepts no "
                f"parameters, got {extra}"
            )
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}(op={self.op!r}, topology={self.topology!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[Tuple[str, str], ReduceStrategy] = {}


def register_strategy(strategy: ReduceStrategy) -> ReduceStrategy:
    """Register ``strategy`` under its ``(op, topology)``.

    Re-registering a key replaces it (extension hook).  Returns the
    strategy for chaining.
    """
    _REGISTRY[(strategy.op, strategy.topology)] = strategy
    return strategy


def cell_name(value) -> str:
    """The one spelling of an op or topology name: case-insensitive,
    ``-`` accepted for ``_``."""
    name = str(value).lower().replace("-", "_")
    # The frozen benchmark's elastic workload config
    # (perfbench/workloads.py, ElasticFaults.config) still spells the
    # any-size tree "tree_any", which ``tree`` now is.  Mapped without a
    # warning because the benchmark counts deprecation warnings; this
    # goes when a benchmark change re-spells that config.
    return "tree" if name == "tree_any" else name


def get_strategy(op: str, topology: str = "tree") -> ReduceStrategy:
    """Look up the strategy for ``(op, topology)``, spelled any way
    :func:`cell_name` accepts.  Unknown cells raise ``ValueError``
    listing what is registered.
    """
    key = (cell_name(op), cell_name(topology))
    try:
        return _REGISTRY[key]
    except KeyError:
        ops = sorted({k[0] for k in _REGISTRY})
        topologies = sorted({k[1] for k in _REGISTRY})
        raise ValueError(
            f"no reduction strategy registered for op={key[0]!r}, "
            f"topology={key[1]!r}; registered ops {ops}, "
            f"topologies {topologies}"
        ) from None


def registered_cells() -> List[Tuple[str, str]]:
    """All registered ``(op, topology)`` keys, sorted."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Concrete strategies
# ----------------------------------------------------------------------
class _SumStrategy(ReduceStrategy):
    """Pairwise-tree sum; elementwise, so every topology produces
    identical bits and all five cells share this kernel.

    Each pair combines with one storage-dtype add.  Widening a single
    add to float64 and rounding back is the identical bit pattern (the
    double-rounding bound: 53 >= 2*24 + 2), so the kernel loses nothing
    vs float64 pair accumulation while staying replayable as
    independent in-place ``combine_pair`` hops by the process backend's
    worker-parallel reduce.
    """

    op = "sum"
    scales_with_world = True

    def __init__(self, topology: str):
        self.topology = topology

    def combine_flat(self, data, boundaries=None):
        return _flat_sum(data, boundaries).astype(data.dtype)

    def combine_pair(self, acc, other, boundaries=None, out=None):
        if out is None:
            return np.add(acc, other, dtype=np.float64).astype(acc.dtype)
        np.add(acc, other, out=out)
        return out

    def pair_schedule(self, n):
        return _uniform_schedule(n)

    def combine_comm(self, comm, row, boundaries=None):
        """The elementwise collective named by the topology: the ring,
        vector halving + doubling for ``rvh``, recursive doubling for
        ``tree`` and ``linear``.  The last two need a power-of-two
        world; any other world runs the ring, as the cross-node stage
        of the hierarchical sum does."""
        from repro.comm.collectives import (
            allgather_doubling,
            allreduce_recursive_doubling,
            allreduce_ring,
            reduce_scatter_halving,
        )

        n = comm.size
        if self.topology == "ring" or n & (n - 1):
            return allreduce_ring(comm, row)
        if self.topology == "rvh":
            piece, span = reduce_scatter_halving(comm, row)
            return allgather_doubling(comm, piece, span, row.size)
        return allreduce_recursive_doubling(comm, row)


class _AverageStrategy(_SumStrategy):
    """Mean across ranks (Sum with an implicit 1/N learning-rate factor).

    Scheduled hops are partial *sums*; the root divides once at
    :meth:`finalize_pair`, so the tree replay and ``combine_flat``
    round identically.
    """

    op = "average"
    scales_with_world = False

    def combine_flat(self, data, boundaries=None):
        total = _flat_sum(data, boundaries).astype(data.dtype)
        return self.finalize_pair(total, data.shape[0])

    def finalize_pair(self, acc, n):
        acc[...] = (acc.astype(np.float64) / n).astype(acc.dtype)
        return acc

    def combine_comm(self, comm, row, boundaries=None):
        return super().combine_comm(comm, row, boundaries) / comm.size


class _AdasumStrategy(ReduceStrategy):
    """What every Adasum cell shares: the op reduces Figure-3
    post-optimizer deltas, and one pairwise hop is :func:`adasum_flat`."""

    op = "adasum"
    post_optimizer = True

    def combine_pair(self, acc, other, boundaries=None, out=None):
        return adasum_flat(acc, other, boundaries, out=out)


class _AdasumTreeStrategy(_AdasumStrategy):
    """Binary-tree Adasum (AdasumRVH recursion order, §3.4) for any
    rank count.

    A power-of-two count is the paper's recursion.  Any other count
    splits at the largest power of two below ``n`` (the
    :func:`~repro.core.operator.adasum_tree` recursion), so every
    power-of-two block reduces exactly as it would alone and an elastic
    world that shrinks keeps a well-defined tree geometry.
    """

    topology = "tree"

    def combine_flat(self, data, boundaries=None):
        n = data.shape[0]
        self.validate_world(n)
        if n & (n - 1) == 0:
            return _adasum_flat_reduce(data, boundaries, tree=True)
        p = largest_pow2_below(n)
        left = self.combine_flat(data[:p], boundaries)
        right = self.combine_flat(data[p:], boundaries)
        return adasum_flat(left, right, boundaries, out=left)

    def pair_schedule(self, n):
        return _uniform_schedule(n)


class _AdasumLinearStrategy(_AdasumStrategy):
    """Linear (left-fold) Adasum — the arithmetic of the §4.2.3 ring."""

    topology = "linear"

    def combine_flat(self, data, boundaries=None):
        self.validate_world(data.shape[0])
        return _adasum_flat_reduce(data, boundaries, tree=False)

    def pair_schedule(self, n):
        # The left fold is inherently sequential: one pair per level.
        return [[(0, k, "pair")] for k in range(1, n)]


class _AdasumRingStrategy(_AdasumLinearStrategy):
    """Ring Adasum: the distributed execution of the same left fold.

    In-process this is bit-identical to ``linear``
    — the accumulated combination travels once around the ring, each
    hop performing the identical pairwise combine — so the two cells
    share a kernel.  The cluster form adds the wire protocol
    (:meth:`combine_comm`).
    """

    topology = "ring"

    def combine_comm(self, comm, row, boundaries=None):
        from repro.core.adasum_ring import _ring_flat

        return _ring_flat(comm, row, boundaries)


class _AdasumRVHStrategy(_AdasumStrategy):
    """Algorithm 1 — recursive vector halving with Adasum (§4.2.1).

    The genuinely distributed cell: per-layer dot products are computed
    as partial sums finished by a group allreduce, so the float64
    accumulation associates differently from the sequential tree and
    results match the ``tree`` cell only to ``allclose``.  The flat
    kernel executes the collective over a fresh in-memory cluster so
    the cell is available to the same in-process callers as the rest of
    the matrix.
    """

    topology = "rvh"

    def validate_world(self, n: int) -> None:
        super().validate_world(n)
        if n & (n - 1):
            raise ValueError(f"AdasumRVH requires power-of-two ranks, got {n}")

    def combine_flat(self, data, boundaries=None):
        self.validate_world(data.shape[0])
        if data.shape[0] == 1:
            return data[0].copy()
        from repro.comm.transport import Cluster

        cluster = Cluster(data.shape[0])
        results = cluster.run(
            self.combine_comm, rank_args=[(row, boundaries) for row in data]
        )
        return results[0]

    def combine_comm(self, comm, row, boundaries=None):
        from repro.core.adasum_rvh import _rvh_flat

        return _rvh_flat(comm, row, boundaries)


class _HierarchicalMixin:
    """Shared ``gpus_per_node`` binding for the two-level cells.

    The registered default is ``gpus_per_node=1`` (every rank its own
    node), which degenerates to the flat cell — so the hierarchical
    column participates in every generic registry test.  ``bind``
    returns a parameterized copy; the registry entry itself is never
    mutated.
    """

    topology = "hierarchical"

    def __init__(self, gpus_per_node: int = 1):
        gpus_per_node = int(gpus_per_node)
        if gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {gpus_per_node}")
        self.gpus_per_node = gpus_per_node

    def bind(self, gpus_per_node=None, **params):
        super().bind(**params)
        if gpus_per_node is None or int(gpus_per_node) == self.gpus_per_node:
            return self
        return type(self)(gpus_per_node=int(gpus_per_node))

    def validate_world(self, n: int) -> None:
        super().validate_world(n)
        # Node symmetry is NOT required: a world whose size is not a
        # multiple of gpus_per_node (an elastic re-shard after losing a
        # rank) falls back to the flat tree geometry.

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(op={self.op!r}, "
            f"gpus_per_node={self.gpus_per_node})"
        )


class _HierarchicalSumStrategy(_HierarchicalMixin, _SumStrategy):
    """Two-level sum: elementwise, so bit-identical to every flat cell.

    In-process the kernel is the shared :func:`_flat_sum`; the cluster
    form executes intra-node reduce-scatter / cross-node allreduce /
    intra-node allgather over the wire.
    """

    def combine_comm(self, comm, row, boundaries=None):
        from repro.comm.hierarchical import hierarchical_sum_allreduce

        g = self.gpus_per_node if comm.size % self.gpus_per_node == 0 else 1
        return hierarchical_sum_allreduce(comm, row, g)


class _HierarchicalAverageStrategy(_HierarchicalMixin, _AverageStrategy):
    """Two-level mean; same degeneracy contract as the hierarchical sum."""

    def combine_comm(self, comm, row, boundaries=None):
        from repro.comm.hierarchical import hierarchical_sum_allreduce

        g = self.gpus_per_node if comm.size % self.gpus_per_node == 0 else 1
        return hierarchical_sum_allreduce(comm, row, g, average=True)


class _HierarchicalAdasumStrategy(_HierarchicalMixin, _AdasumStrategy):
    """§4.2.2/§4.3 production cell: intra-node sum, Adasum across nodes.

    ``combine_flat`` is the arithmetic reference: rows are grouped into
    nodes of ``gpus_per_node``, each node's rows are *summed* (local
    microbatches act as one larger batch), and the ``tree`` Adasum
    recursion combines the node sums.  Node sums round through the
    storage dtype before the Adasum stage, matching the executed
    collective where the reduce-scatter output crosses the wire in the
    input dtype.

    Worlds that are not a multiple of ``gpus_per_node`` — the geometry
    an elastic re-shard can leave behind — degenerate to the flat
    ``tree`` recursion over all rows (every rank its own node).
    """

    def combine_flat(self, data, boundaries=None):
        n = data.shape[0]
        self.validate_world(n)
        g = self.gpus_per_node
        tree = get_strategy("adasum", "tree")
        if g <= 1 or n % g or n == g:
            if n == g and n > 1:
                # Single node: pure local sum, no cross-node Adasum.
                return _flat_sum(data, boundaries).astype(data.dtype)
            return tree.combine_flat(data, boundaries)
        node_rows = np.stack(
            [
                _flat_sum(data[k * g : (k + 1) * g], boundaries).astype(data.dtype)
                for k in range(n // g)
            ]
        )
        return tree.combine_flat(node_rows, boundaries)

    def pair_schedule(self, n):
        g = self.gpus_per_node
        if g <= 1 or n % g or n == g:
            if n == g and n > 1:
                # Single node: the whole reduction is the local sum.
                return _uniform_schedule(n, "local")
            return _uniform_schedule(n)
        levels: List[List[Tuple[int, int, str]]] = []
        # Intra-node phase: every node runs the same tree sum over its
        # block, concurrently; the node leader (position k*g) ends up
        # holding the node sum, mirroring combine_flat's node_rows.
        for lvl in pair_schedule(g):
            levels.append(
                [
                    (k * g + d, k * g + s, "local")
                    for k in range(n // g)
                    for d, s in lvl
                ]
            )
        # Cross-node phase: tree Adasum over the node leaders.
        for lvl in pair_schedule(n // g):
            levels.append([(d * g, s * g, "pair") for d, s in lvl])
        return levels

    def pair_combine(self, kind, acc, other, boundaries=None, out=None):
        if kind == "local":
            # The same storage-dtype add _flat_sum replays per pair.
            out = acc if out is None else out
            np.add(acc, other, out=out)
            return out
        return adasum_flat(acc, other, boundaries, out=out)

    def combine_comm(self, comm, row, boundaries=None):
        from repro.comm.hierarchical import hierarchical_adasum_allreduce

        g = self.gpus_per_node if comm.size % self.gpus_per_node == 0 else 1
        return hierarchical_adasum_allreduce(comm, row, g, boundaries=boundaries)


for _topology in _FLAT_TOPOLOGIES:
    register_strategy(_SumStrategy(_topology))
    register_strategy(_AverageStrategy(_topology))
register_strategy(_AdasumTreeStrategy())
register_strategy(_AdasumLinearStrategy())
register_strategy(_AdasumRingStrategy())
register_strategy(_AdasumRVHStrategy())
register_strategy(_HierarchicalSumStrategy())
register_strategy(_HierarchicalAverageStrategy())
register_strategy(_HierarchicalAdasumStrategy())


# ----------------------------------------------------------------------
# Reducer interface
# ----------------------------------------------------------------------
class GradientReducer:
    """Strategy interface: combine one gradient dict per rank into one.

    ``post_optimizer`` tells the distributed optimizer *where* to apply
    the reduction: synchronous SGD reduces raw gradients before the
    optimizer step, while Adasum with stateful optimizers (Adam/LAMB)
    reduces the post-optimizer model delta (paper Figure 3).

    Each reducer also ships a *flat* code path (``reduce_flat`` /
    ``reduce_arena``) operating on one contiguous buffer per rank with
    per-layer boundaries from the fusion layout — the fused-tensor
    architecture of paper §4.4.3.  Flat results are bit-exact with
    ``reduce`` on the equivalent dicts (property-tested).
    """

    name: str = "base"
    post_optimizer: bool = False

    def reduce(
        self, grad_dicts: Sequence[Mapping[str, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def reduce_flat(
        self, data: np.ndarray, boundaries: Sequence[int] = None
    ) -> np.ndarray:
        """Combine ``(ranks, size)`` flat rows into one flat buffer."""
        raise NotImplementedError

    def reduce_arena(self, arena) -> np.ndarray:
        """Combine a :class:`~repro.core.arena.GradientArena`'s rows."""
        return self.reduce_flat(arena.data, arena.layout.boundaries())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StrategyReducer(GradientReducer):
    """The canonical registry-backed reducer.

    Parameters
    ----------
    op, topology:
        A registered cell, spelled any way :func:`get_strategy` accepts
        (``"adasum"``, ``"ring"``, ...).
    per_layer:
        Apply the op independently per layer (paper default, §3.6);
        ``False`` combines the whole flattened model as one vector.
    gpus_per_node:
        Node width for the ``hierarchical`` topology (bound via
        :meth:`ReduceStrategy.bind`); other topologies reject values
        other than ``None``/``1``.

    Attributes: ``op`` / ``name`` and ``topology`` (the registered
    names), ``post_optimizer`` (the cell's declared fact), ``strategy``
    (the bound cell).  The reducer is a plain picklable object: the
    process backend ships it to its rank workers, which replay
    ``strategy``'s pair schedule on their arena rows.
    """

    def __init__(
        self,
        op: str = "adasum",
        topology: str = "tree",
        per_layer: bool = True,
        gpus_per_node: Optional[int] = None,
    ):
        self.strategy = get_strategy(op, topology)
        if gpus_per_node is not None and int(gpus_per_node) != 1:
            self.strategy = self.strategy.bind(gpus_per_node=int(gpus_per_node))
        self.gpus_per_node = getattr(self.strategy, "gpus_per_node", 1)
        self.op = self.name = self.strategy.op
        self.topology = self.strategy.topology
        self.per_layer = per_layer
        self.post_optimizer = self.strategy.post_optimizer

    def reduce(self, grad_dicts):
        """The dict adapter: pack an arena, run the flat kernel, unpack."""
        arena = GradientArena.from_grad_dicts(grad_dicts)
        return arena.unpack(self.reduce_arena(arena), copy=False)

    def reduce_flat(self, data, boundaries=None):
        bounds = boundaries if self.per_layer else None
        return self.strategy.combine_flat(data, bounds)

    def __repr__(self) -> str:
        extra = (
            f", gpus_per_node={self.gpus_per_node}" if self.gpus_per_node != 1 else ""
        )
        return (
            f"StrategyReducer(op={self.op!r}, topology={self.topology!r}, "
            f"per_layer={self.per_layer}{extra})"
        )
