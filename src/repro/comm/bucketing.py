"""Reverse-order gradient bucketing for backprop/communication overlap.

DDP-style gradient bucketing: backward produces gradients in reverse
layer order, so packing arena rows into size-capped buckets *in that
order* lets the reduction of an already-complete bucket start on a comm
worker while earlier layers are still backpropagating.

A :class:`BucketPlan` is pure geometry over a
:class:`~repro.comm.fusion.FusedTensorLayout`: each bucket is a
contiguous ``[start, stop)`` range of the flat buffer covering whole
tensors only.  Whole-tensor alignment is what keeps bucketed reduction
bit-identical to the phased full-row reduction for per-layer Adasum —
every layer's dot products see exactly the same elements either way.
Plans are built once per (layout, cap) and cached, like the flat
reduce plans in :mod:`repro.core.operator`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Tuple

from repro.comm.fusion import FusedTensorLayout


@dataclasses.dataclass(frozen=True)
class Bucket:
    """One contiguous, tensor-aligned slice of the fused buffer.

    Attributes
    ----------
    index:
        Position in launch order (bucket 0 completes first in backward).
    names:
        Tensor names in the bucket, in backward completion order
        (reverse layout order).
    start, stop:
        Flat-buffer range covered (ascending offsets).
    boundaries:
        Absolute per-tensor offsets within ``[start, stop]``
        (``len == #tensors + 1``), ascending — what per-layer Adasum
        needs, shifted by ``-start`` for kernels that see only the
        bucket slice.
    """

    index: int
    names: Tuple[str, ...]
    start: int
    stop: int
    boundaries: Tuple[int, ...]

    @property
    def size(self) -> int:
        return self.stop - self.start

    def rel_boundaries(self) -> Tuple[int, ...]:
        """Boundaries relative to the bucket slice (first element 0)."""
        return tuple(b - self.start for b in self.boundaries)


@dataclasses.dataclass(frozen=True)
class BucketPlan:
    """Size-capped reverse-order bucketing of a fused layout.

    ``buckets[0]`` holds the *last* tensors of the layout (the first
    gradients backward completes); successive buckets walk toward the
    front of the model.  A single tensor larger than the cap gets its
    own bucket.  With the cap set to Horovod's fusion threshold, the
    buckets are its fusion groups.
    """

    layout: FusedTensorLayout
    cap_bytes: int
    buckets: Tuple[Bucket, ...]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def bucket_of(self, name: str) -> Bucket:
        return self.buckets[self._index_of()[name]]

    @functools.lru_cache(maxsize=None)
    def _index_of(self) -> Dict[str, int]:
        return {n: b.index for b in self.buckets for n in b.names}

    @staticmethod
    def for_layout(
        layout: FusedTensorLayout, cap_bytes: int = 1 << 20, itemsize: int = 4
    ) -> "BucketPlan":
        """Build (or fetch the cached) plan for ``layout``/``cap_bytes``."""
        return _build_plan(layout, int(cap_bytes), int(itemsize))


@functools.lru_cache(maxsize=64)
def _build_plan(layout: FusedTensorLayout, cap_bytes: int, itemsize: int) -> BucketPlan:
    if cap_bytes <= 0:
        raise ValueError("cap_bytes must be positive")
    buckets = []
    pend_names: list = []
    pend_bounds: list = []

    def flush() -> None:
        if not pend_names:
            return
        # Walked in reverse, so pending tensors are descending in the
        # flat buffer: the last appended starts the range.
        bounds = sorted(set(pend_bounds))
        buckets.append(
            Bucket(
                index=len(buckets),
                names=tuple(pend_names),
                start=bounds[0],
                stop=bounds[-1],
                boundaries=tuple(bounds),
            )
        )
        pend_names.clear()
        pend_bounds.clear()

    pending_bytes = 0
    for name, (lo, hi) in zip(reversed(layout.names), reversed(layout.slices)):
        nbytes = (hi - lo) * itemsize
        if pend_names and pending_bytes + nbytes > cap_bytes:
            flush()
            pending_bytes = 0
        pend_names.append(name)
        pend_bounds.extend((lo, hi))
        pending_bytes += nbytes
    flush()
    return BucketPlan(layout=layout, cap_bytes=cap_bytes, buckets=tuple(buckets))
