"""Spans recorded from outside the program, and the wrappers that make them.

A :class:`Tracer` keeps ``(name, start, end, parent, block)`` records in
memory.  :func:`install` puts thin wrappers — one table row per layer
boundary — onto the program's *public* callables and :func:`restore`
takes them off again; the program itself gains no timer, switch or
environment variable.  A row whose module or attribute no longer exists
is reported as unmeasured instead of raising, so the benchmark survives
refactors of the code it measures.

Self time is a span's duration minus the part of it covered by its
direct children.  Only the thread that created the tracer records:
rank worker processes (which inherit the wrappers through ``fork``) and
the overlap scheduler's comm thread pass straight through, so the
recorded spans partition the measuring thread's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Name of the span the harness opens around each timed block.
BLOCK = "block"


class Span:
    """One recorded interval.  ``parent`` indexes :attr:`Tracer.spans`
    (-1 for a root); ``block`` is the enclosing block's id (-1 outside)."""

    __slots__ = ("name", "start", "end", "parent", "block", "failed")

    def __init__(self, name: str, start: float, end: float, parent: int = -1,
                 block: int = -1, failed: bool = False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.block = block
        self.failed = failed

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._leaf_depth = 0
        self._block = -1
        self._thread = threading.get_ident()
        # Forked rank workers inherit the wrappers; they must not record.
        os.register_at_fork(after_in_child=self._silence)

    def _silence(self) -> None:
        self._thread = -1

    def active(self) -> bool:
        """True on the recording thread while no leaf span is open."""
        return self._leaf_depth == 0 and threading.get_ident() == self._thread

    def _open(self, name: str) -> Span:
        stack = self._stack
        record = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._block)
        stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        return record

    @contextmanager
    def span(self, name: str, leaf: bool = False, block: Optional[int] = None) -> Iterator[Span]:
        """Record a span around the ``with`` body.

        ``leaf=True`` silences every wrapper inside it (the held-out
        evaluation calls the model, but that is not a training forward).
        ``block`` opens a new block id for the span and its descendants.
        """
        if block is not None:
            self._block = block
        record = self._open(name)
        self._leaf_depth += leaf
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._leaf_depth -= leaf
            self._stack.pop()
            if block is not None:
                self._block = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span called ``name`` whenever tracing is active."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record.failed = True
                raise
            finally:
                record.end = clock()
                self._stack.pop()

        return traced


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class LayerTotals:
    """Aggregates of every span sharing one name."""

    calls: int = 0
    failed: int = 0
    total_s: float = 0.0     # inclusive
    self_s: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Inclusive and self seconds, calls and failures per span name.

    Only spans inside a timed block count: what runs between blocks
    (building the next episode) is not part of any block's time.
    """
    own = self_times(spans)
    out: Dict[str, LayerTotals] = {}
    for s, self_s in zip(spans, own):
        if s.block < 0:
            continue
        t = out.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.failed += s.failed
        t.total_s += s.duration
        t.self_s += self_s
    return out


def durations(spans: Iterable[Span], name: str) -> List[float]:
    """Durations of the in-block spans called ``name``."""
    return [s.duration for s in spans if s.name == name and s.block >= 0]


def chrome_trace(spans: Sequence[Span]) -> Dict:
    """Chrome/Perfetto ``traceEvents`` (complete events, microseconds)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    return {
        "traceEvents": [
            {
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "pid": 0, "tid": 0,
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {"block": s.block, "parent": s.parent, "failed": s.failed},
            }
            for s in spans
        ],
        "displayTimeUnit": "ms",
        "otherData": {"source": "perfbench layer trace (measuring thread only)"},
    }


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
#: One row per layer boundary: (span name, module, attribute).  The
#: attribute is looked up where the *caller* finds it, so a function
#: imported by name into another module is patched in that module.
Boundary = Tuple[str, str, str]
_Saved = Tuple[object, str, object]


def _resolve(module: str, attribute: str) -> Tuple[object, str, object]:
    """Owner object, final attribute name and the raw (undecorated) value."""
    owner: object = importlib.import_module(module)
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[last] if isinstance(owner, type) else getattr(owner, last)
    return owner, last, raw


def install(tracer: Tracer, table: Sequence[Boundary]) -> Tuple[List[_Saved], List[str]]:
    """Wrap every boundary in ``table``; returns ``(saved, unmeasured)``.

    ``saved`` goes to :func:`restore`.  ``unmeasured`` lists the rows
    (``module:attribute``) that could not be found.
    """
    saved: List[_Saved] = []
    unmeasured: List[str] = []
    for name, module, attribute in table:
        try:
            owner, last, raw = _resolve(module, attribute)
        except (ImportError, AttributeError, KeyError):
            unmeasured.append(f"{module}:{attribute}")
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: object = type(raw)(tracer.wrap(name, raw.__func__))
        else:
            wrapped = tracer.wrap(name, raw)
        setattr(owner, last, wrapped)
        saved.append((owner, last, raw))
    return saved, unmeasured


def restore(saved: Sequence[_Saved]) -> None:
    """Put back every attribute :func:`install` replaced."""
    for owner, last, raw in reversed(saved):
        setattr(owner, last, raw)
