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
    cached :class:`_FlatReducePlan` of its geometry, so a pairwise hop
    (every hop of an Adasum cell's schedule: the in-process
    ``combine_flat`` replay, a rank worker's combine, an elastic
    collective's) allocates no float64 scratch.  ``out`` may alias
    either input.
    """
    if g1.shape != g2.shape or g1.ndim != 1:
        raise ValueError(f"flat buffers required: {g1.shape} vs {g2.shape}")
    if out is None:
        out = np.empty_like(g1)
    _flat_reduce_plan(g1.size, boundaries).combine(g1, g2, out)
    return out


class _FlatReducePlan:
    """Reusable scratch rows + prebound per-layer kernels for one geometry.

    The pairwise combine is called ``ranks - 1`` times per reduction and
    every call runs 3 dots + 2 scalings per layer; for models with many
    small layers the NumPy dispatch cost of those calls rivals the
    arithmetic.  The plan owns the two float64 scratch rows and — since
    the scratches are reused for every pair — the per-layer slice
    *views* and their bound ``ndarray.dot`` methods, so the hot loop does
    no view construction and no attribute lookups.
    """

    __slots__ = ("a64", "b64", "layers")

    def __init__(self, size, bounds) -> None:
        self.a64 = np.empty(size)
        self.b64 = np.empty(size)
        self.layers: List[tuple] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            x = self.a64[lo:hi]
            y = self.b64[lo:hi]
            self.layers.append((x, y, x.dot, y.dot))

    def combine(self, x_src: np.ndarray, y_src: np.ndarray, dst: np.ndarray) -> None:
        """``dst = narrow(Adasum(widen(x_src), widen(y_src)))``.

        Bit-identical to the reference operator's pairwise combine:
        float64 dots per layer (``float(x @ y)`` accumulation), one
        rounded multiply per operand, and a float64 add that rounds once
        into the storage dtype — ``np.add(..., out=dst, dtype=np.float64)``
        is exactly ``(s1*g1 + s2*g2).astype(dtype)`` minus the
        intermediate pass.  ``dst`` may alias a source row: both are
        widened into the scratches first.
        """
        np.copyto(self.a64, x_src, casting="same_kind")
        np.copyto(self.b64, y_src, casting="same_kind")
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


#: Small per-thread keyed cache — training hammers a handful of geometries
#: (one per overlap bucket plus the full row), while property tests sweep
#: many tiny ones (cheap to rebuild once the cap evicts them).
_plan_cache = threading.local()
_PLAN_CACHE_CAP = 32


def _flat_reduce_plan(size, boundaries) -> _FlatReducePlan:
    """The cached plan of one geometry; ``boundaries`` are checked once,
    when the geometry is first seen."""
    plans = getattr(_plan_cache, "plans", None)
    if plans is None:
        plans = _plan_cache.plans = {}
    key = (size, None if boundaries is None else tuple(boundaries))
    plan = plans.get(key)
    if plan is None:
        bounds = [0, size] if boundaries is None else list(boundaries)
        if bounds[0] != 0 or bounds[-1] != size:
            raise ValueError(
                f"boundaries {bounds[0]}..{bounds[-1]} != buffer [0, {size})"
            )
        if len(plans) >= _PLAN_CACHE_CAP:  # drop the oldest geometry (FIFO)
            plans.pop(next(iter(plans)))
        plan = plans[key] = _FlatReducePlan(size, bounds)
    return plan


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
