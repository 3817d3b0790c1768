"""The Adasum operator (paper Section 3).

For gradients ``g1``, ``g2``::

    Adasum(g1, g2) = (1 - g1·g2 / (2‖g1‖²)) g1 + (1 - g1·g2 / (2‖g2‖²)) g2

Key properties (tested in ``tests/core/test_operator.py``):

* orthogonal gradients  → exact sum ``g1 + g2``;
* parallel gradients of equal norm → exact average ``(g1 + g2) / 2``;
* the operator is symmetric and scale-covariant under joint scaling;
* dot products and norms accumulate in float64 even for fp16/fp32
  inputs (paper Section 4.4.1 — "crucial for improved convergence").

The recursive applications below mirror Section 3.4: the *tree*
(recursive halving) form used by AdasumRVH, and the *linear* form that
the paper's "ring" implementation corresponds to.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Norms below this are treated as zero to avoid division blow-ups.
_EPS = 1e-30


def adasum_scale_factors(g1: np.ndarray, g2: np.ndarray) -> Tuple[float, float]:
    """Scalars ``(s1, s2)`` such that ``Adasum(g1, g2) = s1·g1 + s2·g2``.

    Dot products and squared norms accumulate in float64 regardless of
    input dtype.  Degenerate inputs (either gradient ~0) fall back to a
    plain sum, which is the correct limit.
    """
    f1 = g1.reshape(-1).astype(np.float64, copy=False)
    f2 = g2.reshape(-1).astype(np.float64, copy=False)
    dot = float(f1 @ f2)
    n1 = float(f1 @ f1)
    n2 = float(f2 @ f2)
    s1 = 1.0 - dot / (2.0 * n1) if n1 > _EPS else 1.0
    s2 = 1.0 - dot / (2.0 * n2) if n2 > _EPS else 1.0
    return s1, s2


def adasum(
    g1: np.ndarray, g2: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    """Pairwise Adasum of two same-shaped gradients.

    ``out`` (same shape/dtype as ``g1``) receives the result in place
    when given; scalar accumulation still happens in float64.
    """
    if g1.shape != g2.shape:
        raise ValueError(f"shape mismatch: {g1.shape} vs {g2.shape}")
    s1, s2 = adasum_scale_factors(g1, g2)
    combined = s1 * g1.astype(np.float64, copy=False) + s2 * g2.astype(
        np.float64, copy=False
    )
    if out is None:
        return combined.astype(g1.dtype, copy=False)
    np.copyto(out, combined, casting="same_kind")
    return out


# ----------------------------------------------------------------------
# Flat-buffer kernels (fused-tensor path, paper §4.4.3)
# ----------------------------------------------------------------------
def _flat_boundaries(size: int, boundaries) -> List[int]:
    if boundaries is None:
        return [0, size]
    bounds = list(boundaries)
    if bounds[0] != 0 or bounds[-1] != size:
        raise ValueError(f"boundaries {bounds[0]}..{bounds[-1]} != buffer [0, {size})")
    return bounds


def adasum_flat(
    g1: np.ndarray,
    g2: np.ndarray,
    boundaries: Sequence[int] = None,
    out: np.ndarray = None,
) -> np.ndarray:
    """Pairwise Adasum over flat 1-D buffers with per-layer boundaries.

    ``boundaries`` delimits layers in the flat buffer
    (``layout.boundaries()``); ``None`` treats the whole buffer as one
    layer (whole-model Adasum).  Equivalent to slicing both buffers per
    layer and calling :func:`adasum` on each slice, but runs on the
    cached :class:`_FlatReducePlan` of its geometry — the same kernel a
    flat tree reduce combines each pair with, so a pairwise hop (an
    elastic tree collective's, a rank worker's combine, the tree's
    non-power-of-two tail) allocates no float64 scratch.  ``out`` may
    alias either input.
    """
    if g1.shape != g2.shape or g1.ndim != 1:
        raise ValueError(f"flat buffers required: {g1.shape} vs {g2.shape}")
    bounds = _flat_boundaries(g1.size, boundaries)
    if out is None:
        out = np.empty_like(g1)
    _flat_reduce_plan(g1.size, bounds, 1, out.dtype).combine(g1, g2, out)
    return out


class _FlatReducePlan:
    """Reusable scratch rows + prebound per-layer kernels for one geometry.

    The pairwise combine is called ``ranks - 1`` times per reduction
    (and once per :func:`adasum_flat` hop) and every call runs 3 dots +
    2 scalings per layer; for models with many small layers the NumPy
    dispatch cost of those calls rivals the arithmetic.  The plan owns
    the two float64 scratch rows, the storage-dtype winner buffer, and —
    since the scratches are reused for every pair — the per-layer slice
    *views* and their bound ``ndarray.dot`` methods, so the hot loop does
    no view construction and no attribute lookups.
    """

    __slots__ = ("key", "ab", "a64", "b64", "win", "layers")

    def __init__(self, size, bounds, nwin, dtype) -> None:
        self.key = (size, tuple(bounds), nwin, dtype)
        self.ab = np.empty((2, size))
        self.a64 = self.ab[0]
        self.b64 = self.ab[1]
        self.win = np.empty((nwin, size), dtype=dtype)
        self.layers: List[tuple] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            x = self.a64[lo:hi]
            y = self.b64[lo:hi]
            self.layers.append((x, y, x.dot, y.dot))

    def _combine_loaded(self, dst: np.ndarray) -> None:
        """Adasum the two loaded scratch rows into ``dst``.

        Bit-identical to the reference operator's pairwise combine:
        float64 dots per layer (``float(x @ y)`` accumulation), one rounded multiply
        per operand, and a float64 add that rounds once into the storage
        dtype — ``np.add(..., out=dst, dtype=np.float64)`` is exactly
        ``(s1*g1 + s2*g2).astype(dtype)`` minus the intermediate pass.
        """
        mult = np.multiply
        for x, y, xdot, ydot in self.layers:
            dot = float(xdot(y))
            n1 = float(xdot(x))
            n2 = float(ydot(y))
            s1 = 1.0 - dot / (2.0 * n1) if n1 > _EPS else 1.0
            s2 = 1.0 - dot / (2.0 * n2) if n2 > _EPS else 1.0
            mult(y, s2, out=y)
            mult(x, s1, out=x)
        np.add(self.a64, self.b64, out=dst, dtype=np.float64, casting="same_kind")

    def combine_pair(self, src2: np.ndarray, dst: np.ndarray) -> None:
        """Combine two *adjacent* rows (``src2`` is ``(2, size)``) into ``dst``.

        Loading both operands with one 2-row widening copy halves the
        dispatch cost of the loads; ``dst`` may alias a source row since
        both rows are consumed into the scratches first.
        """
        np.copyto(self.ab, src2, casting="same_kind")
        self._combine_loaded(dst)

    def combine(self, x_src: np.ndarray, y_src: np.ndarray, dst: np.ndarray) -> None:
        """``dst = narrow(Adasum(widen(x_src), widen(y_src)))``."""
        np.copyto(self.a64, x_src, casting="same_kind")
        np.copyto(self.b64, y_src, casting="same_kind")
        self._combine_loaded(dst)


#: Small per-thread keyed cache — training hammers a handful of geometries
#: (one per overlap bucket plus the full row), while property tests sweep
#: many tiny ones (cheap to rebuild once the cap evicts them).
_plan_cache = threading.local()
_PLAN_CACHE_CAP = 32


def _flat_reduce_plan(size, bounds, nwin, dtype) -> _FlatReducePlan:
    plans = getattr(_plan_cache, "plans", None)
    if plans is None:
        plans = _plan_cache.plans = {}
    key = (size, tuple(bounds), nwin, dtype)
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _PLAN_CACHE_CAP:  # drop the oldest geometry (FIFO)
            plans.pop(next(iter(plans)))
        plan = plans[key] = _FlatReducePlan(size, bounds, nwin, dtype)
    return plan


def _adasum_flat_reduce(
    data: np.ndarray, boundaries: Sequence[int], tree: bool
) -> np.ndarray:
    """Tree or linear Adasum over the rows of a ``(ranks, size)`` buffer.

    Matches the reference operator bit for bit: every pairwise result rounds
    through the storage dtype (the reference operator's ``astype(g1.dtype)``
    after each combine) before being re-widened to float64 for the next
    level's scalar accumulation.  Because of that rounding, the narrow
    row *is* the authoritative intermediate — so winners are stored in
    the storage dtype and float64 exists only in the plan's two scratch
    rows, which stay cache-resident across the whole reduction instead
    of widening all ranks up front.  ``data`` itself is never written.
    """
    ranks, size = data.shape
    if ranks == 1:
        return data[0].copy()
    bounds = _flat_boundaries(size, boundaries)
    plan = _flat_reduce_plan(size, bounds, max(1, ranks // 2), data.dtype)
    win = plan.win
    if tree:
        # Winners pack compactly into ``win[0:n]`` after every level, so
        # each pair is adjacent and loads with one 2-row widening copy.
        combine_pair = plan.combine_pair
        for k in range(ranks // 2):
            combine_pair(data[2 * k : 2 * k + 2], win[k])
        n = ranks // 2
        while n > 1:
            for m in range(n // 2):
                combine_pair(win[2 * m : 2 * m + 2], win[m])
            n //= 2
        return win[0].copy()
    acc = win[0]
    plan.combine(data[0], data[1], acc)
    for r in range(2, ranks):
        plan.combine(acc, data[r], acc)
    return acc.copy()


def largest_pow2_below(n: int) -> int:
    """Largest power of two strictly less than ``n`` (``n >= 2``)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = 1 << (n.bit_length() - 1)
    return p if p < n else p // 2


def adasum_tree(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Recursive binary-tree application (paper Section 3.4).

    ``Adasum(g[0:n]) = Adasum(Adasum(g[0:n/2]), Adasum(g[n/2:n]))`` —
    the bandwidth-optimal recursion AdasumRVH implements; emulates
    exponentially many SGD paths.  A count ``n`` that is not a power of
    two splits at the largest power of two ``p < n``::

        Adasum(g[0:n]) = Adasum(Adasum(g[0:p]), Adasum(g[p:n]))

    so every power-of-two block reduces exactly as it would alone, and
    shrunk elastic worlds (e.g. 8 -> 5 after three rank failures) keep a
    well-defined tree geometry.  For ``n = 5`` this is
    ``Adasum(adasum_tree(g[0:4]), g[4])``.
    """
    n = len(grads)
    if n == 0:
        raise ValueError("adasum_tree needs at least one gradient")
    if n & (n - 1):
        p = largest_pow2_below(n)
        return adasum(adasum_tree(grads[:p]), adasum_tree(grads[p:]))
    level: List[np.ndarray] = list(grads)
    while len(level) > 1:
        level = [adasum(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def adasum_linear(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Linear (left-fold) application — the "ring" variant of §4.2.3.

    ``Adasum(g[0,n+1]) = Adasum(Adasum(g[0,n]), g[n+1])``.  Any count.
    """
    if not grads:
        raise ValueError("adasum_linear needs at least one gradient")
    acc = grads[0]
    for g in grads[1:]:
        acc = adasum(acc, g)
    return acc


def adasum_per_layer(
    grad_dicts: Sequence[Mapping[str, np.ndarray]],
    tree: bool = True,
) -> Dict[str, np.ndarray]:
    """Apply Adasum independently per layer (paper Section 3.6).

    ``grad_dicts[r]`` maps layer name → gradient on rank ``r``.  The
    per-layer application adapts to each layer's own orthogonality
    instead of the whole flattened model's.
    """
    if not grad_dicts:
        raise ValueError("need at least one rank's gradients")
    names = list(grad_dicts[0].keys())
    for d in grad_dicts[1:]:
        if list(d.keys()) != names:
            raise ValueError("ranks disagree on layer names/order")
    combine = adasum_tree if tree else adasum_linear
    return {name: combine([d[name] for d in grad_dicts]) for name in names}


def orthogonality_ratio(grads: Sequence[np.ndarray], tree: bool = True) -> float:
    """Section 3.6 orthogonality metric: ``‖Adasum(g[1,n])‖² / Σᵢ ‖gᵢ‖²``.

    Equals 1 when all gradients are mutually orthogonal and reaches its
    minimum ``1/n`` when they are parallel with equal norms.
    """
    combine = adasum_tree if tree else adasum_linear
    # Flatten before the dot product: for >=2-D gradients (conv kernels)
    # ``combined @ combined`` would be a matmul, not an inner product.
    combined = combine(list(grads)).reshape(-1).astype(np.float64, copy=False)
    num = float(combined @ combined)
    den = sum(float(g.reshape(-1).astype(np.float64) @ g.reshape(-1).astype(np.float64))
              for g in grads)
    if den <= _EPS:
        return 1.0
    return num / den
