"""Composable wire codecs: the one home of the wire-format boundary.

The wire format is a declarative codec stack.  A :class:`WireCodec` is
two methods: :meth:`~WireCodec.roundtrip` rewrites a flat float32
gradient block in place to exactly what a receiver would decode, and
:meth:`~WireCodec.block_nbytes` models the bytes its payload would
take.  A :class:`CodecPipeline` chains codecs in declared order, so
``("fp16", "int8", "topk:0.01")`` means scale-to-fp16, then dynamic
int8 quantization, then magnitude top-k sparsification, each stage
round-tripping the previous stage's output.  The simulator then ships
the round-tripped float32 rows and charges them the stack's modeled
size (:meth:`CodecPipeline.wire_nbytes`); there is no separate payload
form to keep in step with the round trip.

Contracts
---------
Every codec declares one of two contracts:

* **bit-exact** (``identity``, ``fp16``): ``roundtrip`` leaves a value
  the wire can represent unchanged, so it loses nothing beyond that
  rounding.  fp16 is bit-exact *on values that round-trip* — the
  dynamic scaler keeps gradients inside fp16 range and a power-of-two
  scale makes the scale/unscale multiply lossless, so a row that
  survives the overflow check holds exactly the grid value every
  consumer then agrees on.
* **bounded-error with error feedback** (``int8``, ``topk``,
  ``onebit``): the round-trip loses information, and the per-element
  residual (``adjusted = x + residual; residual' = adjusted -
  roundtrip(adjusted)``) is carried into the next step so the lost
  mass is eventually transmitted (EF-SGD).  Codecs with this contract
  MUST run with residual state or convergence degrades —
  :class:`CodecPipeline` allocates per-row residual arrays
  automatically.

Layer granularity
-----------------
Non-elementwise codecs (``int8``'s scale, ``topk``'s k) compute their
statistics **per layer block** (the arena's tensor boundaries), never
per bucket or per whole row.  A stage still makes one pass over a row's
span: it is handed the span's block starts and keeps only its
statistics (and top-k's selection) per block.  Overlap buckets are
tensor-aligned, so every execution path sees the same blocks and the
encoded values are structurally identical across the phased, overlap,
and elastic paths — the same trick per-layer Adasum uses for
bit-exactness.

Import direction: this module depends only on NumPy (the dynamic
scaler is injected by the caller or imported lazily), so both
``repro.core`` and ``repro.elastic`` may import it freely.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

#: Registered codec names -> (takes_arg, description).
CODEC_NAMES = {
    "identity": (False, "no-op; bit-exact; payload is the raw float32 block"),
    "fp16": (False, "dynamic-scaled fp16 cast; bit-exact on grid values"),
    "int8": (False, "per-layer dynamic int8 quantization; bounded error + EF"),
    "topk": (True, "per-layer magnitude top-k sparsification; bounded error + EF"),
    "onebit": (False, "1-bit sign + pos/neg means (Seide et al.); bounded error + EF"),
}


def parse_wire_codecs(specs) -> Tuple[str, ...]:
    """Normalize/validate a codec-stack declaration.

    Accepts a tuple/list of spec strings or one comma-separated string
    (the CLI form): ``("fp16", "topk:0.01")`` or ``"fp16,topk:0.01"``.
    Returns the normalized tuple; raises ``ValueError`` on an unknown
    codec name or a malformed/out-of-range argument.
    """
    if specs is None:
        return ()
    if isinstance(specs, str):
        specs = [s for s in specs.split(",") if s.strip()]
    out: List[str] = []
    for spec in specs:
        spec = str(spec).strip().lower()
        name, _, arg = spec.partition(":")
        if name not in CODEC_NAMES:
            raise ValueError(
                f"unknown wire codec {name!r}; choose from {sorted(CODEC_NAMES)}"
            )
        takes_arg, _ = CODEC_NAMES[name]
        if arg and not takes_arg:
            raise ValueError(f"wire codec {name!r} takes no argument, got {spec!r}")
        if name == "topk":
            if not arg:
                raise ValueError("topk needs a keep ratio, e.g. 'topk:0.01'")
            try:
                ratio = float(arg)
            except ValueError:
                raise ValueError(f"bad topk ratio in {spec!r}") from None
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"topk ratio must be in (0, 1], got {ratio}")
            spec = f"topk:{ratio:g}"
        out.append(spec)
    counts: Dict[str, int] = {}
    for spec in out:
        base = spec.partition(":")[0]
        counts[base] = counts.get(base, 0) + 1
        if counts[base] > 1:
            raise ValueError(f"wire codec {base!r} appears twice in the stack")
    return tuple(out)


# ----------------------------------------------------------------------
# Shared per-tensor primitives (also consumed by baselines/compression)
# ----------------------------------------------------------------------

def topk_select(adjusted: np.ndarray, ratio: float) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k = max(round(n*ratio), 1)``
    largest-magnitude elements of a flat array (argpartition order)."""
    idx = _topk_indices(np.abs(adjusted), ratio)
    return idx, adjusted[idx]


def _topk_indices(magnitudes: np.ndarray, ratio: float) -> np.ndarray:
    # ``round`` is Python's: half to even.
    k = max(int(round(magnitudes.size * ratio)), 1)
    return np.argpartition(magnitudes, -k)[-k:]


def onebit_stats(adjusted: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Sign pattern plus positive/negative mean magnitudes (1-bit SGD)."""
    pos = adjusted > 0
    pos_mean = float(adjusted[pos].mean()) if pos.any() else 0.0
    neg_mean = float(adjusted[~pos].mean()) if (~pos).any() else 0.0
    return pos, pos_mean, neg_mean


#: The smallest magnitude ``astype(float16)`` rounds to infinity.
FP16_ROUND_LIMIT = 65520.0


def _fp16_round_magnitudes(values: np.ndarray) -> np.ndarray:
    """``|values.astype(float16).astype(float32)|`` without the float16
    dtype, bit for bit, for float32 ``values`` with every ``|x| < 65520``;
    >= 65536, inf or NaN wherever not ``|x| < 65520``.

    ``|x| + M - M`` with ``M = max(2^e(|x|) * 2^13, 0.5)`` rounds ``|x|``
    to the fp16 grid: the sum lies in ``M``'s binade, whose float32 ulp
    is the fp16 ulp at ``|x|`` (``2^-24`` on the subnormal floor, where
    ``M`` is 0.5), and float32 addition rounds to nearest-even exactly
    as the fp16 cast does, carry into the next binade included.  Every
    step is a float32 or uint32 pass that NumPy vectorizes (its float16
    conversions, ``copysign`` and uint32 ``maximum`` are not vectorized
    on every build: see "Wire codecs" in docs/performance.md).
    """
    big = values.view(np.uint32) & np.uint32(0x7F800000)  # 2^e(|x|), as bits
    big += np.uint32(13 << 23)
    big = big.view(np.float32)
    np.maximum(big, np.float32(0.5), out=big)  # the subnormal floor
    out = np.abs(values)
    out += big
    out -= big
    return out


def _copy_sign(magnitudes: np.ndarray, values: np.ndarray) -> np.ndarray:
    # ``np.copysign(magnitudes, values, out=magnitudes)`` as two uint32 passes.
    bits = magnitudes.view(np.uint32)
    bits |= values.view(np.uint32) & np.uint32(0x80000000)
    return magnitudes


def _block_ends(starts, n: int) -> List[int]:
    return [int(b) for b in starts[1:]] + [n]


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------

class WireCodec:
    """One stage of the wire pipeline.

    Subclasses set the contract flags and implement two methods.
    ``roundtrip(span, residual, starts)`` mutates ``span`` in place to
    what a receiver would decode from ``span + residual``, layer block
    by layer block, and updates ``residual`` (ignored when
    ``error_feedback`` is False); :meth:`block_nbytes` models the
    payload's size.  ``starts`` are the offsets in
    ``span`` where its layer blocks begin (``starts[0] == 0``; the
    default is one block): a stage makes one pass over the span and
    keeps only its statistics per block.
    """

    name: str = ""
    #: Contract: ``roundtrip`` leaves a representable value unchanged.
    bit_exact: bool = False
    #: Needs per-element residual state (bounded-error contract).
    error_feedback: bool = False
    #: Elementwise codecs see whole 2-D slabs and ignore ``starts``;
    #: others see one row's span at a time.
    elementwise: bool = False

    def begin_step(self, scale: Optional[float] = None) -> None:
        """Fix per-step state (e.g. the fp16 scale) before any round trip.

        ``scale`` is the step's fp16 scale when another process's scaler
        already fixed it (see :meth:`CodecPipeline.begin_step`).
        """

    def finish_step(self, overflow: bool) -> bool:
        """Consume the step's aggregated overflow verdict; True = skip."""
        return False

    def roundtrip(
        self, span: np.ndarray, residual: Optional[np.ndarray] = None, starts=(0,)
    ) -> bool:
        """Round-trip ``span`` in place; returns True on overflow."""
        raise NotImplementedError

    def block_nbytes(self, sizes: Sequence[int], itemsize: int) -> Tuple[int, int]:
        """Modeled wire bytes for layer blocks of the given sizes.

        ``itemsize`` is the per-value width the upstream stages left
        (4 raw, 2 after fp16, 1 after int8); returns ``(nbytes,
        itemsize_out)`` so stages thread their narrowing downstream.
        """
        raise NotImplementedError


class IdentityCodec(WireCodec):
    name = "identity"
    bit_exact = True
    elementwise = True

    def roundtrip(self, span, residual=None, starts=(0,)):
        return False

    def block_nbytes(self, sizes, itemsize):
        return sum(sizes) * itemsize, itemsize


class Fp16Codec(WireCodec):
    """Dynamic-scaled fp16 wire cast (§4.4.1): scale -> fp16 cast ->
    finite check -> decode, with one scaler verdict per step.

    The scaler is injected (the :class:`DistributedOptimizer` owns it so
    elastic snapshots keep serializing the same object) or built lazily
    from :class:`repro.core.precision.DynamicScaler`.
    """

    name = "fp16"
    bit_exact = True  # on grid values that survive the overflow check
    elementwise = True

    def __init__(self, scaler=None):
        if scaler is None:
            from repro.core.precision import DynamicScaler  # lazy: import direction

            scaler = DynamicScaler()
        self.scaler = scaler
        self._step_scale = float(scaler.scale_value)

    def begin_step(self, scale=None):
        self._step_scale = float(self.scaler.scale_value if scale is None else scale)

    def finish_step(self, overflow):
        return bool(self.scaler.update(overflow))

    def roundtrip(self, span, residual=None, starts=(0,)):
        scale = self._step_scale
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = span * scale
            rounded = _fp16_round_magnitudes(scaled)
            # ``not <`` also catches NaN.
            overflow = not np.max(rounded, initial=0.0) < FP16_ROUND_LIMIT
            if overflow:  # the step is skipped: round through float16 itself
                rounded = scaled.astype(np.float16).astype(np.float32)
            else:
                _copy_sign(rounded, scaled)
        np.multiply(rounded, 1.0 / scale, out=span)
        return overflow

    def block_nbytes(self, sizes, itemsize):
        return sum(sizes) * 2, 2


class Int8Codec(WireCodec):
    """Per-layer symmetric dynamic int8 quantization with error feedback."""

    name = "int8"
    error_feedback = True

    def roundtrip(self, span, residual=None, starts=(0,)):
        # Symmetric dynamic int8 quantization per block (scale = block
        # |max| / 127), as whole-span passes: only the block maxima and
        # scales are per block.  errstate: an fp16
        # overflow upstream leaves inf in the span; the step is then
        # skipped and the residuals rolled back, so the transient inf-inf
        # is never observed.  A block whose maximum is a float32
        # subnormal has a zero scale; its quotients clip to +-127.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            adjusted = span + residual if residual is not None else span.copy()
            amax = np.maximum.reduceat(np.abs(adjusted), starts)
            scale = np.where(amax > 0.0, amax.astype(np.float64) / 127.0, 1.0)
            sizes = np.diff(starts, append=span.size)
            scales = np.repeat(scale.astype(np.float32), sizes)
            q = np.divide(adjusted, scales)
            np.rint(q, out=q)
            np.clip(q, -127, 127, out=q)
            span[...] = q.astype(np.int8)
            span *= scales
            if residual is not None:
                np.subtract(adjusted, span, out=residual)
        return False

    def block_nbytes(self, sizes, itemsize):
        # One byte per element plus a 4-byte scale per layer block.
        return sum(n + 4 for n in sizes), 1


class TopKCodec(WireCodec):
    """Per-layer magnitude top-k sparsification with error feedback."""

    error_feedback = True

    def __init__(self, ratio: float):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"topk ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)
        self.name = f"topk:{ratio:g}"

    def roundtrip(self, span, residual=None, starts=(0,)):
        # One selection per block, on the block's own slice, so
        # ``argpartition`` breaks magnitude ties as :func:`topk_select`
        # does; everything else is one pass over the span.
        with np.errstate(invalid="ignore", over="ignore"):  # see Int8Codec
            adjusted = span + residual if residual is not None else span.copy()
            magnitudes = np.abs(adjusted)
            keep = np.concatenate([
                a + _topk_indices(magnitudes[a:b], self.ratio)
                for a, b in zip(starts, _block_ends(starts, span.size))
            ])
            span[:] = 0.0
            span[keep] = adjusted[keep]
            if residual is not None:
                np.subtract(adjusted, span, out=residual)
        return False

    def block_nbytes(self, sizes, itemsize):
        # int32 index + one value at the upstream width per kept element.
        k_total = sum(max(int(round(n * self.ratio)), 1) for n in sizes)
        return k_total * (4 + itemsize), itemsize


class OneBitCodec(WireCodec):
    """1-bit SGD (Seide et al. 2014): sign pattern + two means, with
    error feedback.  Mostly consumed through the baseline adapters."""

    name = "onebit"
    error_feedback = True

    def roundtrip(self, span, residual=None, starts=(0,)):
        # Per block: vectorizing would change the float32 means'
        # pairwise summation order.
        for a, b in zip(starts, _block_ends(starts, span.size)):
            flat = span[a:b]
            with np.errstate(invalid="ignore", over="ignore"):  # see Int8Codec
                adjusted = flat + residual[a:b] if residual is not None else flat.copy()
                pos, pos_mean, neg_mean = onebit_stats(adjusted)
                decoded = np.where(pos, pos_mean, neg_mean).astype(np.float32)
                if residual is not None:
                    np.subtract(adjusted, decoded, out=residual[a:b])
                flat[:] = decoded
        return False

    def block_nbytes(self, sizes, itemsize):
        # One bit per element plus two scales per layer block.
        return sum((n + 7) // 8 + 8 for n in sizes), itemsize


def build_codec(spec: str, scaler=None) -> WireCodec:
    """Instantiate one codec from a normalized spec string."""
    (spec,) = parse_wire_codecs((spec,))
    name, _, arg = spec.partition(":")
    if name == "identity":
        return IdentityCodec()
    if name == "fp16":
        return Fp16Codec(scaler=scaler)
    if name == "int8":
        return Int8Codec()
    if name == "topk":
        return TopKCodec(float(arg))
    if name == "onebit":
        return OneBitCodec()
    raise ValueError(f"unknown wire codec {name!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------

class CodecPipeline:
    """A chain of codecs applied in declared order at the wire boundary.

    Consumers drive it through the step protocol::

        pipe.bind(num_rows, total_size, boundaries)   # idempotent
        pipe.begin_step()
        overflow |= pipe.encode_block(data, rows, lo, hi)   # per bucket
        skip = pipe.end_step(overflow)                # one verdict/step

    ``encode_block`` round-trips arena columns ``[lo, hi)`` of the given
    rows in place (the rows afterwards hold exactly what a receiver
    would decode); error-feedback residuals commit as blocks encode and
    are rolled back by ``end_step`` on a skipped step (or explicitly by
    :meth:`restore_residuals` when a collective fails before applying).

    The two halves of the protocol can live in different processes.
    Under ``execution="processes"`` each rank worker encodes its own
    arena row through a one-row pipeline (:meth:`for_row`) — it holds
    that row's residuals and rollback copy, opens its step at the scale
    it is told (``begin_step(scale)``) and restores on command — while
    the parent's pipeline is bound to *zero* rows (nothing allocated,
    copied or rolled back there) and keeps what is global: the fp16
    scale it fixes in ``begin_step`` (:attr:`step_scale`), the one
    ``end_step`` verdict over the OR of the rows' flags, and the byte
    model.
    """

    def __init__(self, codecs: Sequence[WireCodec]):
        if not codecs:
            raise ValueError("a codec pipeline needs at least one codec")
        self.codecs: Tuple[WireCodec, ...] = tuple(codecs)
        self._num_rows = 0
        self._total = 0
        self._boundaries: Tuple[int, ...] = ()
        self._residuals: Dict[int, np.ndarray] = {}
        self._saved: Dict[int, np.ndarray] = {}

    # -- contract views -----------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.codecs)

    @property
    def bit_exact(self) -> bool:
        """True when the whole stack holds the bit-exact contract."""
        return all(c.bit_exact for c in self.codecs)

    @property
    def error_feedback(self) -> bool:
        return any(c.error_feedback for c in self.codecs)

    def _fp16_stage(self) -> Optional[Fp16Codec]:
        return next((c for c in self.codecs if isinstance(c, Fp16Codec)), None)

    @property
    def scaler(self):
        """The fp16 stage's dynamic scaler, or None."""
        stage = self._fp16_stage()
        return None if stage is None else stage.scaler

    @property
    def step_scale(self) -> Optional[float]:
        """The fp16 scale :meth:`begin_step` fixed (None without an fp16 stage)."""
        stage = self._fp16_stage()
        return None if stage is None else stage._step_scale

    # -- layout binding -----------------------------------------------
    def bind(self, num_rows: int, total_size: int, boundaries: Sequence[int]) -> None:
        """(Re)bind to an arena layout; reallocates residuals on change."""
        boundaries = tuple(int(b) for b in boundaries)
        if (num_rows, total_size, boundaries) == (
            self._num_rows, self._total, self._boundaries
        ):
            return
        self._num_rows = int(num_rows)
        self._total = int(total_size)
        self._boundaries = boundaries
        self._residuals = {
            i: np.zeros((num_rows, total_size), dtype=np.float32)
            for i, c in enumerate(self.codecs)
            if c.error_feedback
        }
        self._saved = {}

    def for_row(
        self, row: int, total_size: int, boundaries: Sequence[int]
    ) -> "CodecPipeline":
        """A one-row pipeline for the process that owns arena row ``row``.

        The same stack over copied stages, bound to a single row whose
        error-feedback residuals start from this pipeline's row ``row``
        when it holds one for this layout (a pool rebuilt after a
        pause), zero otherwise.  This pipeline is left untouched.
        """
        own = CodecPipeline([copy.copy(c) for c in self.codecs])
        own.bind(1, total_size, boundaries)
        if row < self._num_rows and (self._total, self._boundaries) == (
            own._total, own._boundaries
        ):
            own.set_residual_row(0, self.residual_row(row))
        return own

    def residual_row(self, row: int) -> Dict[int, np.ndarray]:
        """Row ``row`` of every error-feedback residual, by stage index."""
        return {i: r[row] for i, r in self._residuals.items()}

    def set_residual_row(self, row: int, values: Dict[int, np.ndarray]) -> None:
        """Overwrite row ``row`` of the residuals from :meth:`residual_row`."""
        for i, value in values.items():
            self._residuals[i][row] = value

    def _blocks(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Layer blocks covering columns [lo, hi); splits at boundaries."""
        edges = [b for b in self._boundaries if lo < b < hi]
        points = [lo] + edges + [hi]
        return list(zip(points[:-1], points[1:]))

    # -- step protocol -------------------------------------------------
    def begin_step(self, scale: Optional[float] = None) -> None:
        """Open a step.  ``scale`` overrides the fp16 stage's own scaler:
        a rank process encodes its row at the :attr:`step_scale` the
        parent's scaler fixed, so every row of a step shares one scale
        and the parent alone gives the step's verdict."""
        for c in self.codecs:
            c.begin_step(scale)
        # Residuals commit as blocks encode; keep the pre-step values so
        # a skipped/failed step can be rolled back without consuming the
        # error memory of gradients that were never applied.
        self._saved = {i: r.copy() for i, r in self._residuals.items()}

    def encode_block(
        self, data: np.ndarray, rows: Sequence[int], lo: int = 0, hi: Optional[int] = None
    ) -> bool:
        """Round-trip columns ``[lo, hi)`` of the given rows in place.

        Returns the aggregated overflow flag for this block (fp16 range
        exceeded somewhere); the caller ORs flags across blocks and
        passes the verdict to :meth:`end_step` exactly once per step.
        """
        hi = self._total if hi is None else hi
        if hi <= lo:
            return False
        rows = list(rows)
        starts = np.array([a - lo for a, _ in self._blocks(lo, hi)])
        overflow = False
        for i, codec in enumerate(self.codecs):
            if codec.elementwise and len(rows) == data.shape[0]:
                overflow |= codec.roundtrip(data[:, lo:hi], None, starts)
                continue
            residual = self._residuals.get(i)
            for r in rows:
                res = residual[r, lo:hi] if residual is not None else None
                overflow |= codec.roundtrip(data[r, lo:hi], res, starts)
        return overflow

    def end_step(self, overflow: bool) -> bool:
        """One per-step verdict: update the scaler, roll back residuals
        on skip; returns True when the step must be skipped."""
        skip = False
        for c in self.codecs:
            if c.finish_step(overflow):
                skip = True
        if skip:
            self.restore_residuals()
        self._saved = {}
        return skip

    def restore_residuals(self) -> None:
        """Roll residuals back to their pre-step values (failed step)."""
        for i, saved in self._saved.items():
            np.copyto(self._residuals[i], saved)

    # -- byte accounting ----------------------------------------------
    def wire_nbytes(self, lo: int = 0, hi: Optional[int] = None) -> int:
        """Modeled encoded bytes for one row's columns ``[lo, hi)``.

        Deterministic (depends only on the bound layout): each stage
        narrows the per-value width and the last stage's payload size is
        what crosses the wire.  This is the figure
        ``DistributedOptimizer.last_wire_bytes`` books per row and the
        elastic collective charges each send of an original row.
        """
        hi = self._total if hi is None else hi
        sizes = [b - a for a, b in self._blocks(lo, hi)]
        itemsize = 4
        nbytes = sum(sizes) * itemsize
        for codec in self.codecs:
            nbytes, itemsize = codec.block_nbytes(sizes, itemsize)
        return nbytes


def build_pipeline(specs, scaler=None) -> Optional[CodecPipeline]:
    """Build a :class:`CodecPipeline` from spec strings; ``None`` when
    the stack is empty.  ``scaler`` is shared with any fp16 stage."""
    specs = parse_wire_codecs(specs)
    if not specs:
        return None
    return CodecPipeline([build_codec(s, scaler=scaler) for s in specs])
