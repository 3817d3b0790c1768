"""Flat per-rank gradient buffers — the paper's fused-tensor layout (§4.4.3).

A :class:`GradientArena` holds one contiguous buffer per simulated rank,
preallocated once from the model's parameter layout.  Each layer's
gradient lives at a fixed ``(offset, length)`` slice of its rank's row,
exposed as a named zero-copy view shaped like the parameter.  The
training loop writes gradients straight into the views and the reducers
(:mod:`repro.core.strategies`) run flat in-place kernels over whole rows,
consulting the shared :class:`~repro.comm.fusion.FusedTensorLayout` for
per-layer boundaries — the same bookkeeping Horovod's fusion buffer
keeps, so Adasum's per-layer dot products need no dict plumbing.

Every flat code path is bit-exact with the per-layer reference operator
(property-tested in ``tests/core/test_arena.py``): identical per-layer
fp64 accumulation, identical recursion order, identical rounding points.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.fusion import FusedTensorLayout, layout_of


class GradientArena:
    """``num_ranks`` contiguous flat gradient buffers with named views.

    Parameters
    ----------
    layout:
        Per-layer ``(offset, length)`` bookkeeping; identical across
        ranks so it is never communicated.
    num_ranks:
        Number of simulated ranks (buffer rows).
    dtype:
        Storage dtype of the gradients (reduction scalars still
        accumulate in float64 regardless).
    """

    def __init__(
        self,
        layout: FusedTensorLayout,
        num_ranks: int,
        dtype=np.float32,
    ):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.layout = layout
        self.num_ranks = num_ranks
        self.dtype = np.dtype(dtype)
        self.data = self._allocate()
        self._build_views()

    def _allocate(self) -> np.ndarray:
        """Allocate the ``(num_ranks, total_size)`` backing buffer.

        Subclasses override to place the buffer elsewhere (e.g. a
        shared-memory segment); the base class uses the process heap.
        """
        return np.zeros((self.num_ranks, self.layout.total_size), dtype=self.dtype)

    def _build_views(self) -> None:
        # Named zero-copy views, one dict per rank.  A view is a shaped
        # window into the rank's row: writing through it fills the flat
        # buffer directly.
        layout = self.layout
        self._views: List[Dict[str, np.ndarray]] = []
        for rank in range(self.num_ranks):
            row = self.data[rank]
            views = {
                name: row[lo:hi].reshape(shape)
                for name, (lo, hi), shape in zip(
                    layout.names, layout.slices, layout.shapes
                )
            }
            self._views.append(views)

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, num_ranks: int, dtype=np.float32) -> "GradientArena":
        """Preallocate from a model's parameter layout (declaration order)."""
        named = [(name, p.data) for name, p in model.named_parameters()]
        if not named:
            raise ValueError("model has no parameters")
        return cls(layout_of(named), num_ranks, dtype=dtype)

    @classmethod
    def from_grad_dicts(
        cls, grad_dicts: Sequence[Mapping[str, np.ndarray]], dtype=None
    ) -> "GradientArena":
        """Build an arena holding existing per-rank gradient dicts."""
        if not grad_dicts:
            raise ValueError("need at least one rank's gradients")
        first = grad_dicts[0]
        if dtype is None:
            dtype = next(iter(first.values())).dtype if first else np.float32
        arena = cls(layout_of(list(first.items())), len(grad_dicts), dtype=dtype)
        arena.load_dicts(grad_dicts)
        return arena

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layout.names)

    def row(self, rank: int) -> np.ndarray:
        """Rank ``rank``'s flat buffer (zero-copy)."""
        return self.data[rank]

    def views(self, rank: int) -> Dict[str, np.ndarray]:
        """Named, shaped zero-copy views into rank ``rank``'s row."""
        return self._views[rank]

    def view(self, rank: int, name: str) -> np.ndarray:
        return self._views[rank][name]

    def rank_rows(self, rows: Sequence[int]) -> "RankRows":
        """The listed rows as the destination of one rank-stacked pass:
        each maximal run of consecutive rows is one ``(k, *shape)`` view
        per parameter, so a gradient stacked over the listed ranks lands
        with one write per run — one write for a full world or any
        prefix of it."""
        views = [self._views[r] for r in rows]
        runs: Dict[str, list] = {name: [] for name in self.layout.names}
        start = 0
        for i in range(1, len(rows) + 1):
            if i < len(rows) and rows[i] == rows[i - 1] + 1:
                continue
            block = self.data[rows[start]:rows[i - 1] + 1]
            sl = slice(start, i)
            for name, (lo, hi), shape in zip(
                self.layout.names, self.layout.slices, self.layout.shapes
            ):
                dest = block[:, lo:hi].reshape((i - start,) + tuple(shape))
                assert np.may_share_memory(dest, self.data), "landing view is a copy"
                runs[name].append((sl, dest))
            start = i
        return RankRows(views, runs)

    def __iter__(self) -> Iterator[Dict[str, np.ndarray]]:
        return iter(self._views)

    # ------------------------------------------------------------------
    def load_dicts(self, grad_dicts: Sequence[Mapping[str, np.ndarray]]) -> None:
        """Copy per-rank gradient dicts into the arena rows."""
        if len(grad_dicts) != self.num_ranks:
            raise ValueError(
                f"expected {self.num_ranks} gradient dicts, got {len(grad_dicts)}"
            )
        for rank, gdict in enumerate(grad_dicts):
            views = self._views[rank]
            if set(gdict.keys()) != set(views.keys()):
                raise ValueError(f"rank {rank} layer names differ from the layout")
            for name, view in views.items():
                np.copyto(view, gdict[name])

    def write_row(self, rank: int, grads: Mapping[str, np.ndarray]) -> None:
        """Copy one rank's named gradients into its row."""
        views = self._views[rank]
        for name, view in views.items():
            np.copyto(view, grads[name])

    def unpack(self, flat: np.ndarray, copy: bool = True) -> Dict[str, np.ndarray]:
        """Split a flat combined buffer back into named, shaped tensors."""
        if flat.size != self.layout.total_size:
            raise ValueError(
                f"buffer size {flat.size} != layout {self.layout.total_size}"
            )
        out = {}
        for name, (lo, hi), shape in zip(
            self.layout.names, self.layout.slices, self.layout.shapes
        ):
            view = flat[lo:hi].reshape(shape)
            out[name] = view.copy() if copy else view
        return out

    def to_dicts(self) -> List[Dict[str, np.ndarray]]:
        """Materialize per-rank dicts (copies — for interop/debugging)."""
        return [
            {name: view.copy() for name, view in views.items()}
            for views in self._views
        ]

    def __repr__(self) -> str:
        return (
            f"GradientArena(ranks={self.num_ranks}, layers={self.num_layers}, "
            f"size={self.layout.total_size}, dtype={self.dtype})"
        )


class RankRows(Sequence):
    """Where a rank-stacked gradient pass writes: ``R`` ranks' named
    destinations (``rows[i][name]``, a :class:`Sequence` of mappings)
    plus, per parameter, the runs :meth:`land` writes an ``(R, *shape)``
    gradient through — ``(block slice, (k, *shape) destination)`` pairs
    covering the ``R`` blocks in order."""

    def __init__(
        self,
        views: Sequence[Mapping[str, np.ndarray]],
        runs: Mapping[str, Sequence[Tuple[slice, np.ndarray]]],
    ):
        self._views = tuple(views)
        self._runs = {name: tuple(r) for name, r in runs.items()}

    @classmethod
    def of(cls, views: Sequence[Mapping[str, np.ndarray]]) -> "RankRows":
        """``views`` as destinations: unchanged when they already are,
        else one run per rank (arbitrary per-rank arrays share no
        memory a single write could span)."""
        if isinstance(views, RankRows):
            return views
        views = list(views)
        return cls(views, {
            name: [(slice(i, i + 1), v[name][None]) for i, v in enumerate(views)]
            for name in (views[0] if views else ())
        })

    def land(self, name: str, grad: np.ndarray) -> None:
        """Write the ``(R, *shape)`` gradient of ``name`` into its rows."""
        for sl, dest in self._runs[name]:
            np.copyto(dest, grad[sl])

    def __getitem__(self, i):
        return self._views[i]

    def __len__(self) -> int:
        return len(self._views)


#: Name prefix of every shared-memory segment this module creates; leak
#: checks glob ``/dev/shm`` for it (see :func:`leaked_shared_segments`).
SHM_PREFIX = "repro-arena"

# Live *owned* segments of this process, by name.  The atexit sweep
# unlinks whatever is left so an aborted run (CommError, SIGTERM-safe
# paths, a test that forgot to close) never strands a /dev/shm file.
_live_segments: Dict[str, "weakref.ReferenceType[SharedGradientArena]"] = {}
_live_lock = threading.Lock()
_shm_counter = 0


def _next_segment_name() -> str:
    global _shm_counter
    with _live_lock:
        _shm_counter += 1
        counter = _shm_counter
    return f"{SHM_PREFIX}-{os.getpid()}-{counter}-{os.urandom(3).hex()}"


def live_shared_segments() -> List[str]:
    """Names of shared segments this process owns and has not unlinked."""
    with _live_lock:
        return sorted(_live_segments)


def leaked_shared_segments() -> List[str]:
    """Arena segments present in ``/dev/shm`` (any process), by name.

    The leak-check primitive for tests: after a run (normal exit,
    aborted collective, elastic rebuild) this must return the same set
    as before it.  Returns ``[]`` on platforms without ``/dev/shm``.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(SHM_PREFIX)
    )


@atexit.register
def _unlink_live_segments() -> None:
    """Last-resort sweep: unlink every still-owned segment at exit."""
    with _live_lock:
        arenas = [(name, ref()) for name, ref in _live_segments.items()]
        _live_segments.clear()
    for name, arena in arenas:
        if arena is not None:
            arena.unlink()
        else:  # owner was collected without unlink; remove the file
            try:
                from multiprocessing import shared_memory

                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass


class SharedGradientArena(GradientArena):
    """A :class:`GradientArena` whose rows live in OS shared memory.

    Identical layout, views, and semantics — ``data`` is simply a NumPy
    array mapped over a named :class:`multiprocessing.shared_memory`
    segment, so worker *processes* attach to the same physical pages and
    ``compute_grads_into`` lands gradients where the parent's flat
    reduction reads them.  Zero gradient bytes ever cross a pipe.

    Lifecycle
    ---------
    The creating process **owns** the segment: it should call
    :meth:`unlink` (or use the arena as a context manager) when done.
    Ownership is tracked module-wide and an ``atexit`` sweep unlinks
    anything left over, so aborted runs cannot leak ``/dev/shm`` files.
    Attached (worker-side) arenas only ever :meth:`close` their mapping.

    Parameters
    ----------
    layout, num_ranks, dtype:
        As :class:`GradientArena`.
    name:
        Segment name.  ``None`` (with ``create=True``) generates a
        unique ``repro-arena-<pid>-...`` name; attaching requires the
        creator's name.
    create:
        ``True`` creates (and owns) the segment; ``False`` attaches to
        an existing one.
    """

    def __init__(
        self,
        layout: FusedTensorLayout,
        num_ranks: int,
        dtype=np.float32,
        name: Optional[str] = None,
        create: bool = True,
    ):
        self._shm = None
        self._owner = bool(create)
        self._requested_name = name
        self._closed = False
        super().__init__(layout, num_ranks, dtype=dtype)
        self.name = self._shm.name
        if self._owner:
            with _live_lock:
                _live_segments[self.name] = weakref.ref(self)

    def _allocate(self) -> np.ndarray:
        from multiprocessing import shared_memory

        nbytes = max(1, self.num_ranks * self.layout.total_size * self.dtype.itemsize)
        if self._owner:
            name = self._requested_name or _next_segment_name()
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=nbytes
            )
        else:
            if self._requested_name is None:
                raise ValueError("attaching requires the segment name")
            self._shm = self._attach_untracked(self._requested_name)
            if self._shm.size < nbytes:
                size = self._shm.size
                self._shm.close()
                raise ValueError(
                    f"segment {self._requested_name!r} holds {size} bytes, "
                    f"need {nbytes} for this layout"
                )
        arr = np.ndarray(
            (self.num_ranks, self.layout.total_size),
            dtype=self.dtype,
            buffer=self._shm.buf,
        )
        if self._owner:
            arr.fill(0)
        return arr

    @staticmethod
    def _attach_untracked(name: str):
        """Map an existing segment without resource-tracker registration.

        Only the owner may ever unlink a segment.  CPython < 3.13
        registers attached segments with the resource tracker too — and
        worker processes share the *parent's* tracker, so an attachee's
        registration (or a naive post-hoc ``unregister``) corrupts the
        owner's entry: either the segment is unlinked out from under
        other attachees at worker exit, or the owner's own unlink hits a
        noisy tracker ``KeyError``.  3.13+ exposes ``track=False``;
        earlier interpreters need registration suppressed for the
        duration of the constructor.
        """
        from multiprocessing import shared_memory

        try:
            return shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no ``track`` parameter
            pass
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _register_skipping_shm(rname, rtype):
            if rtype != "shared_memory":
                original(rname, rtype)

        resource_tracker.register = _register_skipping_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original

    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        name: str,
        layout: FusedTensorLayout,
        num_ranks: int,
        dtype=np.float32,
    ) -> "SharedGradientArena":
        """Map an existing segment created by another process."""
        return cls(layout, num_ranks, dtype=dtype, name=name, create=False)

    @property
    def is_owner(self) -> bool:
        return self._owner

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives).

        Releases the NumPy views before closing the underlying mmap; a
        row reference still held elsewhere keeps the mapping alive (the
        ``BufferError`` is swallowed — :meth:`unlink` still removes the
        name, so nothing can leak).
        """
        if self._closed:
            return
        self._closed = True
        self._views = []
        self.data = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # a caller still holds a row view
                pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner-side; idempotent).

        Safe to call however the run ended — normal exit, ``CommError``
        abort, elastic rebuild — and again afterwards.
        """
        self.close()
        with _live_lock:
            _live_segments.pop(getattr(self, "name", None), None)
        if self._shm is not None and self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._owner = False

    # Context manager: workers close, owners unlink.
    def __enter__(self) -> "SharedGradientArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if self._owner:
                self.unlink()
            else:
                self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"SharedGradientArena(name={getattr(self, 'name', None)!r}, "
            f"ranks={self.num_ranks}, layers={self.num_layers}, "
            f"size={self.layout.total_size}, dtype={self.dtype}, "
            f"owner={self._owner})"
        )


def layer_id_index(layout: FusedTensorLayout) -> np.ndarray:
    """Flat index mapping each buffer element to its layer ordinal.

    Used to expand per-layer Adasum scale factors to per-element vectors
    with one ``np.take`` instead of a python loop over slices.
    """
    sizes = [hi - lo for lo, hi in layout.slices]
    return np.repeat(np.arange(len(sizes)), sizes)
