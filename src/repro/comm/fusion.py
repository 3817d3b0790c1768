"""Tensor fusion with per-tensor boundary bookkeeping (paper §4.4.3).

Horovod fuses many small per-layer tensors into one buffer before
calling allreduce, amortizing per-message latency.  Plain summation can
ignore tensor boundaries, but Adasum needs them: dot products and norms
must be computed *per layer* (paper §3.6).  :class:`FusedTensorLayout`
records those boundaries; :class:`~repro.core.arena.GradientArena` packs
gradients into one flat row per rank over it, and
:class:`~repro.comm.bucketing.BucketPlan` splits it into size-capped
fusion groups (``HOROVOD_FUSION_THRESHOLD``).

Because every rank fuses the same set of tensors with the same layer
sizes, the layout is identical everywhere and never needs to be
communicated (the "bookkeeping is stored locally and does not increase
communication overheads" property of the paper).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class FusedTensorLayout:
    """Immutable layout of a fused buffer.

    Attributes
    ----------
    names:
        Tensor names in fusion order.
    slices:
        ``(start, stop)`` index ranges of each tensor in the flat buffer.
    shapes:
        Original shapes used to unflatten on copy-out.
    """

    names: Tuple[str, ...]
    slices: Tuple[Tuple[int, int], ...]
    shapes: Tuple[Tuple[int, ...], ...]

    @property
    def total_size(self) -> int:
        return self.slices[-1][1] if self.slices else 0

    def boundaries(self) -> List[int]:
        """Flat-buffer offsets delimiting tensors (len = #tensors + 1)."""
        if not self.slices:
            return [0]
        return [s for s, _ in self.slices] + [self.slices[-1][1]]


def layout_of(tensors: Sequence[Tuple[str, np.ndarray]]) -> FusedTensorLayout:
    """Build a :class:`FusedTensorLayout` covering *all* named tensors.

    The result is the single contiguous layout used by
    :class:`~repro.core.arena.GradientArena` to give every rank one flat
    gradient buffer with named zero-copy views.
    """
    names, slices, shapes = [], [], []
    offset = 0
    for name, arr in tensors:
        names.append(name)
        shapes.append(tuple(arr.shape))
        slices.append((offset, offset + int(arr.size)))
        offset += int(arr.size)
    return FusedTensorLayout(tuple(names), tuple(slices), tuple(shapes))
