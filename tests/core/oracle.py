"""The oracle a reduction cell's flat kernel is pinned against, bit for bit.

Adasum cells reduce as the dict-level operators of
:mod:`repro.core.operator` do: ``adasum_per_layer`` over the
``adasum_tree`` recursion, or over the ``adasum_linear`` fold for
``linear`` and ``ring``.  ``sum`` and ``average`` reduce as the same
tree recursion with a storage-dtype add (:func:`tree_sum`); the average
divides the root once, in float64.  A ``hierarchical`` Adasum cell with
``g`` ranks per node sums each node, then reduces the node sums with the
Adasum tree; a world that is not a multiple of ``g`` is the flat tree.
``rvh`` has no oracle: it matches ``tree`` only to ``allclose``.
"""

import numpy as np

from repro.core.operator import adasum_per_layer, largest_pow2_below


def tree_sum(rows):
    """The ``adasum_tree`` recursion with ``+`` as the pairwise combine:
    a world splits at the largest power of two below its size."""
    if len(rows) == 1:
        return rows[0]
    p = largest_pow2_below(len(rows))
    return tree_sum(rows[:p]) + tree_sum(rows[p:])


def adasum_rows(rows, boundaries=None, tree=True):
    """``adasum_per_layer`` over flat rows, cut into layers at
    ``boundaries`` (``None``: one whole-row layer), as one flat row."""
    bounds = [0, rows[0].size] if boundaries is None else list(boundaries)
    layers = list(zip(bounds[:-1], bounds[1:]))
    dicts = [{f"l{i}": row[lo:hi] for i, (lo, hi) in enumerate(layers)}
             for row in rows]
    return np.concatenate(list(adasum_per_layer(dicts, tree=tree).values()))


def reduce_rows(op, topology, rows, boundaries=None, gpus_per_node=1):
    """What the ``(op, topology)`` cell bound to ``gpus_per_node``
    returns for ``(ranks, size)`` ``rows``."""
    rows = list(rows)
    n = len(rows)
    if op == "sum":
        return tree_sum(rows)
    if op == "average":
        return (tree_sum(rows).astype(np.float64) / n).astype(rows[0].dtype)
    assert op == "adasum", op
    g = gpus_per_node
    if topology == "hierarchical" and g > 1 and n % g == 0:
        rows = [tree_sum(rows[k * g:(k + 1) * g]) for k in range(n // g)]
    return adasum_rows(rows, boundaries, tree=topology not in ("linear", "ring"))
