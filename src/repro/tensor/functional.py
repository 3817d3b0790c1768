"""Higher-level differentiable functions built on :class:`repro.tensor.Tensor`.

These are the compute kernels behind :mod:`repro.nn`.  Convolution and
pooling are implemented with im2col-style reshuffles so the heavy
arithmetic stays inside BLAS calls, following the vectorization idiom of
the project's coding guide.

Hot-path kernels keep persistent caches (einsum contraction paths and
plans, GEMM verdicts) keyed by subscripts and shapes; use
:func:`clear_kernel_caches` to reset them (exposed as
``repro.tensor.clear_kernel_caches``).  All fast paths are bit-exact
with the reference formulations they replaced — the scatter in
:func:`_col2im` accumulates per-target contributions in the same order
``np.ufunc.at`` did, im2col is a pure reindexing, and every GEMM reads
an operand of the shape, strides and memory order it always read — so
cached kernels never perturb experiment results.
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import (
    RankBlocksError,
    Tensor,
    _unbroadcast,
    _unbroadcast_blocks,
    is_grad_enabled,
    per_block,
    rank_block_count,
    split_blocks,
)

_ALLOCATOR_TUNED = False


def tune_allocator() -> bool:
    """Raise glibc's mmap/trim thresholds so NumPy scratch buffers recycle.

    The training hot loop allocates and frees the same handful of
    ~0.5 MB im2col/GEMM temporaries every step; glibc's default 128 KiB
    mmap threshold turns each one into an mmap/munmap pair plus page
    faults, roughly doubling kernel time.  Raising the thresholds keeps
    those buffers on the free lists (bounded by the 32 MiB trim
    threshold).  Idempotent; returns ``False`` (and changes nothing) on
    platforms without glibc ``mallopt``.
    """
    global _ALLOCATOR_TUNED
    if _ALLOCATOR_TUNED:
        return True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        m_mmap_threshold, m_trim_threshold = -3, -1
        ok = bool(libc.mallopt(m_mmap_threshold, 1 << 25)) and bool(
            libc.mallopt(m_trim_threshold, 1 << 25)
        )
    except (OSError, AttributeError):
        return False
    _ALLOCATOR_TUNED = ok
    return ok


def pin_blas_threads() -> bool:
    """Pin the OpenBLAS that NumPy bundles to one thread in this process.

    A rank worker is one of several processes sharing the host's CPUs;
    each unpinned pool starts a thread per CPU and they oversubscribe
    the host (docs/performance.md).  Calls
    ``scipy_openblas_set_num_threads64_`` in ``numpy.libs``; when that
    library or symbol is missing (another BLAS build) it changes
    nothing, warns and returns ``False``.
    """
    import ctypes
    import glob
    import warnings

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads(1)
        return True
    warnings.warn(
        "BLAS pool not pinned: no scipy_openblas_set_num_threads64_ in numpy.libs",
        RuntimeWarning,
    )
    return False


# ----------------------------------------------------------------------
# Contraction kernels
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _einsum_path(subscripts: str, *shapes: Tuple[int, ...]):
    """Precomputed ``np.einsum_path`` contraction path for fixed shapes."""
    dummies = [np.broadcast_to(np.empty((), dtype=np.float32), s) for s in shapes]
    return np.einsum_path(subscripts, *dummies, optimize=True)[0]


try:  # NumPy >= 2.x pairwise-contraction kernel (what optimize=True runs)
    from numpy._core.einsumfunc import bmm_einsum as _np_bmm_einsum
except ImportError:  # pragma: no cover - older NumPy
    _np_bmm_einsum = None


@functools.lru_cache(maxsize=256)
def _einsum_plan(subscripts: str, *shapes: Tuple[int, ...]):
    """Pre-resolved single-pair contraction for ``np.einsum(optimize=True)``.

    Returns ``(pop_indices, pairwise_subscripts)`` when the contraction
    is one 2-operand step — exactly what ``np.einsum``'s optimize loop
    would hand to its ``bmm_einsum`` kernel, including the operand-order
    swap the path may request — or ``None`` when the dispatch machinery
    is unavailable or the contraction is not a single pair.
    """
    if _np_bmm_einsum is None:
        return None
    dummies = [np.broadcast_to(np.empty((), dtype=np.float32), s) for s in shapes]
    try:
        _, contractions = np.einsum_path(
            subscripts, *dummies, optimize=True, einsum_call=True
        )
    except TypeError:  # pragma: no cover - einsum_call kwarg missing
        return None
    if len(contractions) != 1:
        return None
    inds, pair_subscripts = contractions[0][0], contractions[0][1]
    if len(inds) != 2:
        return None
    return tuple(inds), pair_subscripts


def _as_rows(cols: np.ndarray) -> np.ndarray:
    """``cols`` ``(n, f, l)`` as the view of a C-contiguous ``(n, l, f)``
    array — a copy unless it is one already.

    That array is the ``(n·l, f)`` operand the forward contraction's
    plan (``nfl->nlf``, then a reshape) hands its GEMM: given it, the
    plan's reshape is a view of the array it would otherwise copy out of
    a C-contiguous ``cols``.  At ``n == 1`` the plan reads ``cols``
    itself, so that case gets the C-contiguous ``(1, f, l)``.
    """
    if cols.shape[0] == 1:
        return np.ascontiguousarray(cols)
    return np.ascontiguousarray(cols.transpose(0, 2, 1)).transpose(0, 2, 1)


def _einsum_ref(subscripts: str, operands) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` with all per-call dispatch hoisted.

    Bit-identical to the plain call on C-contiguous operands: single-pair
    contractions invoke the same pairwise kernel ``np.einsum`` would
    (with the contraction resolved once per (subscripts, shapes) instead
    of every call); anything else falls back to ``np.einsum`` with a
    cached path.  ``cols`` arrives as a view of im2col's buffer (see
    :func:`_im2col`), not C-contiguous: the weight-gradient plan reads
    that view as the very ``(f, n·l)`` matrix it copied out before, and
    the forward plan gets it through :func:`_as_rows` — on a plain view
    it would run a GEMM with the other transposition flag, whose bytes
    differ (BLAS's gemv at one output channel, its small-matrix kernels
    on small ones).
    """
    if subscripts == "of,nfl->nol":
        operands = (operands[0], _as_rows(operands[1]))
    plan = _einsum_plan(subscripts, *(op.shape for op in operands))
    if plan is not None:
        inds, pair_subscripts = plan
        ops = list(operands)
        pair = [ops.pop(x) for x in inds]
        return _np_bmm_einsum(pair_subscripts, *pair)
    path = _einsum_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def _conv_fwd_gemm(w2: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Single-GEMM candidate for ``of,nfl->nol``; returns the ``(n, o, l)``
    view of the GEMM's ``(o, n·l)`` result, which the caller lays out
    once (``conv2d`` does it in its bias add)."""
    o, f = w2.shape
    n, _, l = cols.shape
    out = w2 @ cols.transpose(1, 0, 2).reshape(f, n * l)
    return out.reshape(o, n, l).transpose(1, 0, 2)


def _conv_gcols_gemm(w2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Single-GEMM candidate for ``of,nol->nfl``; returns the ``(n, f, l)``
    view of the GEMM's ``(f, n·l)`` result (``_col2im`` reads any
    layout, and ``conv2d``'s per-block copy lays it out)."""
    o, f = w2.shape
    n, _, l = g2.shape
    out = w2.T @ g2.transpose(1, 0, 2).reshape(o, n * l)
    return out.reshape(f, n, l).transpose(1, 0, 2)


def _conv_gw_gemm(g2: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Single-GEMM candidate for ``nol,nfl->of``."""
    n, o, l = g2.shape
    _, f, _ = cols.shape
    a = g2.transpose(1, 0, 2).reshape(o, n * l)
    b = cols.transpose(1, 0, 2).reshape(f, n * l)
    return a @ b.T


_GEMM_CANDIDATES = {
    "of,nfl->nol": _conv_fwd_gemm,
    "of,nol->nfl": _conv_gcols_gemm,
    "nol,nfl->of": _conv_gw_gemm,
}

# (subscripts, shapes, dtypes) -> bool: use the single-GEMM kernel.
_gemm_verdict: dict = {}

# Kernel specialization is opt-in (cf. torch.backends.cudnn.benchmark).
# Even a *validated* rewrite changes the process's allocation pattern,
# and some BLAS kernels branch on buffer alignment — so merely probing
# can perturb the bytes of *unrelated* einsum calls later in the
# process.  Byte-reproducibility-critical paths (the experiment
# regeneration suite) must keep this off; the fused training pipeline
# (ParallelTrainer.train_step) opts in.
_specialize_kernels = False


def set_kernel_specialization(enabled: bool) -> bool:
    """Toggle validated single-GEMM specialization; returns prior state."""
    global _specialize_kernels
    previous = _specialize_kernels
    _specialize_kernels = bool(enabled)
    return previous


def kernel_specialization_enabled() -> bool:
    """Whether einsum contractions may use validated specialized kernels."""
    return _specialize_kernels


def _misaligned_copy(op: np.ndarray) -> np.ndarray:
    """Copy of ``op`` in ``op``'s own memory order (its axes laid out in
    the order of its strides, so a dense view gets equal strides) whose
    data pointer is offset by one element: the probe must run the BLAS
    calls — transposition flags, leading dimensions — the real operand
    gets."""
    order = sorted(range(op.ndim), key=lambda axis: -abs(op.strides[axis]))
    buf = np.empty(op.size + 1, dtype=op.dtype)
    mis = buf[1:].reshape([op.shape[axis] for axis in order]).transpose(np.argsort(order))
    mis[...] = op
    return mis


def _gemm_is_bit_stable(subscripts: str, candidate, operands) -> bool:
    """Probe whether the single-GEMM rewrite is byte-identical to einsum.

    Kernel dispatch inside BLAS can depend on operand *alignment*, not
    just shape — a single-sample comparison passes and then flips on the
    next allocation (observed on ResNet conv geometries).  So the probe
    evaluates both formulations across every alignment combination of
    the real operands; the fast path is accepted only if all results
    agree byte for byte, i.e. the shape's kernels are insensitive to the
    one dispatch input we cannot pin.
    """
    variants = [operands, tuple(_misaligned_copy(op) for op in operands)]
    if len(operands) == 2:
        a, b = operands
        variants.append((_misaligned_copy(a), b))
        variants.append((a, _misaligned_copy(b)))
    reference = None
    for ops in variants:
        ref = _einsum_ref(subscripts, ops)
        try:
            fast = candidate(*ops)
        except Exception:  # pragma: no cover - defensive: einsum still wins
            return False
        if fast.dtype != ref.dtype or fast.shape != ref.shape:
            return False
        ref_bytes = ref.tobytes()
        if fast.tobytes() != ref_bytes:
            return False
        if reference is None:
            reference = ref_bytes
        elif ref_bytes != reference:
            return False
    return True


def einsum_cached(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """Shape-specialised einsum with a bitwise-validated single-GEMM path.

    With specialization off (the default, see
    :func:`set_kernel_specialization`) this is exactly
    :func:`_einsum_ref` — the plain einsum kernel with dispatch hoisted.

    With it on: the contraction kernel ``np.einsum(optimize=True)``
    dispatches to is shape-dependent, and a hand-rolled single GEMM
    agrees with it bit for bit on some geometries but not others.
    Rather than guess, the first call for each (subscripts, shapes,
    dtypes) key runs :func:`_gemm_is_bit_stable` on the caller's real
    data: when the GEMM formulation is proven byte-identical across
    alignments, later calls take it; every other shape keeps the einsum
    kernel.  The verdict reads no clock, so which kernel runs — and with
    it the allocation pattern later calls see — is the same in every run
    of the same program.
    """
    if not _specialize_kernels:
        return _einsum_ref(subscripts, operands)
    key = (
        subscripts,
        tuple(op.shape for op in operands),
        tuple(op.dtype.char for op in operands),
    )
    verdict = _gemm_verdict.get(key)
    if verdict:
        return _GEMM_CANDIDATES[subscripts](*operands)
    ref = _einsum_ref(subscripts, operands)
    if verdict is None:
        candidate = _GEMM_CANDIDATES.get(subscripts)
        _gemm_verdict[key] = candidate is not None and _gemm_is_bit_stable(
            subscripts, candidate, operands
        )
    return ref


def clear_kernel_caches() -> None:
    """Drop all persistent kernel caches (einsum paths and plans, GEMM verdicts).

    Escape hatch for tests and for long-lived processes that sweep many
    one-off shapes; correctness never depends on cache state.
    """
    _einsum_path.cache_clear()
    _einsum_plan.cache_clear()
    _gemm_verdict.clear()


def reset_process_state() -> None:
    """Reset per-process kernel/allocator state after a fork or spawn.

    Worker bootstrap hook for the multi-process execution backend: a
    child process must not trust state inherited (fork) or absent
    (spawn) from its parent —

    * the allocator-tuned flag is cleared so the child re-runs
      ``mallopt`` against *its own* heap (fork copies the parent's heap
      settings, but re-tuning is idempotent and a spawned child starts
      untuned);
    * the GEMM specialization verdicts are dropped: they were validated
      against the parent's allocator/alignment state, which a fork
      child's heap immediately diverges from;
    * the einsum path/plan caches are cleared (pure shape caches, but
      rebuilding them is cheap and keeps the child's cache statistics
      meaningful);
    * kernel specialization reverts to the conservative default (off);
      executors re-enable it per their configuration.

    Registered via :func:`os.register_at_fork` so plain ``fork``
    children are safe even when they bypass the transport's bootstrap.
    """
    global _ALLOCATOR_TUNED
    _ALLOCATOR_TUNED = False
    clear_kernel_caches()
    set_kernel_specialization(False)


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=reset_process_state)


def kernel_cache_stats() -> dict:
    """Cache hit/miss counters for the persistent kernel caches."""
    return {
        # No cache left behind this key; perfbench/child.py still reads it.
        "im2col_indices": {"hits": 0, "misses": 0, "maxsize": 256, "currsize": 0},
        "einsum_path": _einsum_path.cache_info()._asdict(),
        "einsum_plan": _einsum_plan.cache_info()._asdict(),
        "gemm_verdicts": {
            "entries": len(_gemm_verdict),
            "fast": sum(_gemm_verdict.values()),
        },
    }


def _padded(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    # Zero-fill + slice assign: what np.pad(constant) computes, minus its
    # per-call python machinery.
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:-padding, padding:-padding] = x
    return xp


def _blocks_of(r: int, block: Tuple[int, ...], dtype) -> np.ndarray:
    """Uninitialised ``(r, *block)`` array of ``r`` C-contiguous blocks
    spaced a multiple of 64 bytes apart: every block sits at the
    alignment of block 0 — a GEMM reading a block in place reads it at
    the alignment the verdict probe tested, as it did a fresh copy."""
    size = int(np.prod(block))
    per = max(1, 64 // np.dtype(dtype).itemsize)
    step = -(-size // per) * per if r > 1 else size
    return np.empty((r, step), dtype=dtype)[:, :size].reshape((r,) + block)


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
    blocks: Optional[int] = None,
):
    """``cols`` of an NCHW batch, written once in rank-block-major order.

    The buffer's memory order is ``(R, c, kh, kw, b, out_h, out_w)``,
    i.e. ``(R, f, b, l)`` with ``f = c·kh·kw``, ``l = out_h·out_w``,
    ``R = blocks`` and ``b = n // R``.  Returns ``(cols, out_h, out_w)``:
    with ``blocks=None`` the ``(n, f, l)`` view of the one C-contiguous
    ``(f, n, l)`` block, else the ``(R, b, f, l)`` view whose block ``r``
    is C-contiguous in ``(f, b, l)`` — so the ``(f, b·l)`` matrix the
    single-GEMM candidates and the weight-gradient plan multiply is a
    view of each block, with the strides it had as a copy.

    One output pixel (``l = 1``) is the exception: each block is
    C-contiguous in ``(b, f, 1)``.  A contraction over a size-1 axis
    leaves BLAS for einsum's own loops, and with one output channel those
    sum in memory order, so only the ``(b, f)`` rows give the bytes of
    the C-contiguous ``cols`` the kernels are held to.
    """
    n, c, _, _ = x.shape
    r = 1 if blocks is None else blocks
    b = n // r
    xp = _padded(x, padding)
    out_h = (xp.shape[2] - kh) // stride + 1
    out_w = (xp.shape[3] - kw) // stride + 1
    # Sliding-window view + one transposing copy: a pure reindexing.
    v = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    v = v[:, :, ::stride, ::stride]  # (n, c, out_h, out_w, kh, kw)
    if out_h * out_w == 1:
        buf = _blocks_of(r, (b, c, kh, kw), x.dtype)
        buf[...] = v.reshape(r, b, c, kh, kw)
        cols = buf.reshape(r, b, c * kh * kw, 1)
        return (cols[0] if blocks is None else cols), out_h, out_w
    buf = _blocks_of(r, (c, kh, kw, b, out_h, out_w), x.dtype)
    buf[...] = v.reshape(r, b, c, out_h, out_w, kh, kw).transpose(0, 2, 5, 6, 1, 3, 4)
    cols = buf.reshape(r, c * kh * kw, b, out_h * out_w).transpose(0, 2, 1, 3)
    return (cols[0] if blocks is None else cols), out_h, out_w


def _im2col_rows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """:func:`_im2col`'s ``(n, f, l)`` ``cols`` as the view of a
    C-contiguous ``(n, l, f)`` array instead: the ``(n·l, f)`` rows the
    forward contraction's plan hands its GEMM (see :func:`_as_rows`),
    written straight from the input.

    A kernel row — ``kw`` adjacent input pixels — is adjacent in both
    the input and the rows, so the copy moves one opaque ``kw``-pixel
    item per (sample, output pixel, channel, kernel row) instead of
    ``kw`` scalars.
    """
    xp = np.ascontiguousarray(_padded(x, padding))
    n, c, hp, wp = xp.shape
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    run = np.dtype((np.void, xp.itemsize * kw))
    sn, sc, sh, sw = xp.strides
    src = np.ndarray((n, out_h, out_w, c, kh), dtype=run, buffer=xp,
                     strides=(sn, stride * sh, stride * sw, sc, sh))
    rows = np.empty((n, out_h, out_w, c, kh, kw), dtype=xp.dtype)
    rows.view(run)[..., 0] = src
    return rows.reshape(n, out_h * out_w, c * kh * kw).transpose(0, 2, 1)


#: Bytes of im2col rows one off-tape convolution chunk may hold (one
#: sample more at most).  A batch within it is one chunk; a larger one
#: splits into balanced chunks of at least half of it, at least two
#: samples each: BLAS picks other kernels for small GEMMs, and those
#: round differently.
_CONV_CHUNK_BYTES = 2 << 20


def _conv_chunks(n: int, sample_bytes: int):
    """Balanced ``[lo, hi)`` sample ranges of an off-tape convolution."""
    k = max(1, min(n // 2, -(-n * sample_bytes // _CONV_CHUNK_BYTES)))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _conv_forward_chunked(
    x: np.ndarray, w2: np.ndarray, bias: Optional[np.ndarray],
    kh: int, kw: int, stride: int, padding: int, l: int,
) -> np.ndarray:
    """``einsum_cached("of,nfl->nol", w2, rows) (+ bias)`` of the whole
    batch, one chunk of samples' rows at a time, into one ``(n, o, l)``
    output: C-contiguous with a bias, else laid out as einsum's own
    result is — the view of its GEMM's ``(n·l, o)`` matrix, or
    C-contiguous where ``f == 1`` makes the contraction a broadcast
    multiply.  One chunk returns that result itself."""
    n = x.shape[0]
    o, f = w2.shape
    # One output channel makes the contraction a matrix-vector product,
    # whose BLAS kernels sum a row in an order that depends on how many
    # rows there are: it stays one call.
    chunks = [(0, n)] if o == 1 else _conv_chunks(n, f * l * x.itemsize)
    out = None
    for lo, hi in chunks:
        part = einsum_cached("of,nfl->nol", w2, _im2col_rows(x[lo:hi], kh, kw, stride, padding))
        if out is None:
            if bias is None and len(chunks) == 1:
                return part
            # Allocated after the first contraction, whose temporaries are gone.
            dtype = part.dtype if bias is None else np.result_type(part, bias)
            out = (np.empty((n, o, l), dtype) if bias is not None or part.flags.c_contiguous
                   else np.empty((n * l, o), dtype).reshape(n, l, o).transpose(0, 2, 1))
        if bias is None:
            out[lo:hi] = part
        else:
            np.add(part, bias, out=out[lo:hi])
        del part  # before the next chunk's rows are written
    return out


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    hp, wp = h + 2 * padding, w + 2 * padding
    # Strided slice-adds over kernel positions replace ``np.add.at``:
    # contributions to any target pixel still accumulate in ascending
    # kernel-position order (the ufunc.at iteration order), 0 + slab_0 +
    # slab_1 + ..., so the sums are bit-identical while avoiding the
    # buffered scatter.  The buffer is channel-last, (hp, wp, n, c), and
    # the slabs are copied once to (kh*kw, out_h, out_w, n, c), so each
    # add runs over rows of out_w * n * c floats, not out_w.
    xp = np.zeros((hp, wp, n, c), dtype=cols.dtype)
    slabs = np.ascontiguousarray(
        cols.reshape(n, c, kh * kw, out_h, out_w).transpose(2, 3, 4, 0, 1)
    )
    p = 0
    for di in range(kh):
        for dj in range(kw):
            xp[di : di + stride * out_h : stride,
               dj : dj + stride * out_w : stride] += slabs[p]
            p += 1
    return np.ascontiguousarray(
        xp[padding : hp - padding, padding : wp - padding].transpose(2, 3, 0, 1)
    )


# ----------------------------------------------------------------------
# Affine map
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` with ``weight`` of shape ``(out, in)``.

    Outside :func:`~repro.tensor.rank_blocks` this is literally
    ``x.matmul(weight.transpose()) (+ bias)``.  Inside, it records the
    same three tape nodes — so a weight used at several places (an
    LSTM's recurrent matrix) collects its contributions in the same
    order — with block-aware closures: the three GEMMs (forward, data
    gradient, weight gradient) run per rank block at the single-rank
    shapes and strides (one NumPy matmul over the block axis, see
    :func:`~repro.tensor.tensor.split_blocks`), because a BLAS GEMM
    with few rows is not row-independent and one stacked GEMM would not
    reproduce the per-rank bytes.
    """
    blocks = rank_block_count()
    if blocks is None:
        out = x.matmul(weight.transpose())
        return out if bias is None else out + bias
    if x.ndim < 2:
        raise RankBlocksError("linear over rank blocks needs a batch axis")
    a, w = x.data, weight.data
    wt = Tensor._make(
        w.transpose(), (weight,), lambda g: weight._accumulate(g.swapaxes(-1, -2))
    )
    data = (split_blocks(a, blocks) @ wt.data).reshape(a.shape[:-1] + wt.shape[-1:])

    def matmul_backward(g: np.ndarray) -> None:
        gb = split_blocks(g, blocks)
        if x.requires_grad:
            x._accumulate((gb @ w).reshape(a.shape))
        if wt.requires_grad:
            wt._accumulate(_unbroadcast_blocks(
                split_blocks(a, blocks).swapaxes(-1, -2) @ gb, wt.shape))

    out = Tensor._make(data, (x, wt), matmul_backward)
    if bias is None:
        return out

    def add_backward(g: np.ndarray) -> None:
        if out.requires_grad:
            out._accumulate(g)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast_blocks(split_blocks(g, blocks), bias.shape))

    return Tensor._make(data + bias.data, (out, bias), add_backward)


# ----------------------------------------------------------------------
# Convolution / pooling
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D convolution on NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    """
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {ic}")
    # Inside rank_blocks every contraction with the weight runs per rank
    # block (the shapes einsum_cached validated for one rank); col2im and
    # the bias add are per-sample and run stacked.
    blocks = rank_block_count()
    if blocks is not None and n % blocks:
        raise RankBlocksError(f"batch axis {n} does not split into {blocks} rank blocks")
    f = c * kh * kw
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    w2 = weight.data.reshape(oc, f)
    # Off the tape (no candidate, no weight gradient, no rank blocks)
    # einsum's forward plan is the rows' one reader: im2col writes that
    # plan's rows, one bounded chunk of samples at a time.
    off_tape = blocks is None and n > 1 and not (
        kernel_specialization_enabled() or (weight.requires_grad and is_grad_enabled())
    )
    cols = None if off_tape else _im2col(x.data, kh, kw, stride, padding, blocks)[0]

    def with_weight(subscripts, batched, shape, add=None):
        """``einsum_cached(subscripts, w2, batched) (+ add)``, per rank
        block of ``batched`` (``(R, b, ...)`` inside rank_blocks), into
        one fresh C-contiguous array — or einsum's own result when there
        is neither a block nor an addend."""
        if blocks is None:
            part = einsum_cached(subscripts, w2, batched)
            if add is None:
                return part
            # Allocated after the contraction, whose temporaries are gone.
            dest = np.empty(shape, dtype=np.result_type(part, add))
            return np.add(part, add, out=dest)
        operands = (w2, batched) if add is None else (w2, batched, add)
        res = np.empty(shape, dtype=np.result_type(*operands))
        for dest, block in zip(split_blocks(res, blocks), batched):
            part = einsum_cached(subscripts, w2, block)
            if add is None:
                dest[...] = part
            else:
                np.add(part, add, out=dest)
        return res

    # einsum_cached defines the result: the contraction kernel
    # np.einsum picks varies with operand shapes, and its single-GEMM
    # rewrite is bit-identical on some conv geometries (LeNet's) but not
    # others (ResNet's).  einsum_cached proves equality per shape on
    # first use and only then switches kernels, so either way the bytes
    # match the plain np.einsum(optimize=True) call.  The bias is added
    # straight from the contraction's (n, o, l) result into the NCHW
    # output: one pass that also lays out the candidate's (o, n·l)
    # GEMM result, and a C-contiguous activation.
    add = None if bias is None else bias.data.reshape(1, oc, 1)
    if off_tape:
        out = _conv_forward_chunked(x.data, w2, add, kh, kw, stride, padding, out_h * out_w)
    else:
        out = with_weight("of,nfl->nol", cols, (n, oc, out_h * out_w), add)
    out = out.reshape(n, oc, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(n, oc, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(per_block(lambda gs: gs.sum(axis=(0, 2)), blocks, g2))
        if weight.requires_grad:
            def weight_grad(gs, cs):
                return einsum_cached("nol,nfl->of", gs, cs).reshape(weight.shape)

            weight._accumulate(weight_grad(g2, cols) if blocks is None else np.stack(
                [weight_grad(gs, cs) for gs, cs in zip(split_blocks(g2, blocks), cols)]))
        if x.requires_grad:
            gcols = with_weight(
                "of,nol->nfl", g2 if blocks is None else split_blocks(g2, blocks),
                (n, f, out_h * out_w),
            )
            gx = _col2im(gcols, x.shape, kh, kw, stride, padding)
            x._accumulate(gx)

    return Tensor._make(out.astype(x.dtype, copy=False), parents, backward)


def _window_fold(op, a: np.ndarray, k: int, rows: int, out_w: int) -> np.ndarray:
    """``op`` folded over every k x k window of ``a`` (an NCHW array with
    ``rows = n·c·out_h``), row-major: along w over a flat (-1, k) view,
    then along h over (rows, k, out_w) — long inner loops, not out_w."""
    flat = a.reshape(-1, k)
    acc = flat[:, 0]
    for j in range(1, k):
        acc = op(acc, flat[:, j])
    acc = acc.reshape(rows, k, out_w)
    out = acc[:, 0]
    for i in range(1, k):
        out = op(out, acc[:, i])
    return out


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling on NCHW input with square window."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    k = kernel_size
    if h % stride or w % stride or k != stride:
        # General (overlapping / padded) case via im2col.
        cols, out_h, out_w = _im2col(
            x.data.reshape(n * c, 1, h, w), k, k, stride, 0
        )  # (n*c, k*k, L)
        idx = cols.argmax(axis=1)
        out = np.take_along_axis(cols, idx[:, None, :], axis=1)[:, 0, :]
        out = out.reshape(n, c, out_h, out_w)

        def backward(g: np.ndarray) -> None:
            gcols = np.zeros_like(cols)
            np.put_along_axis(
                gcols, idx[:, None, :], g.reshape(n * c, 1, -1), axis=1
            )
            gx = _col2im(gcols, (n * c, 1, h, w), k, k, stride, 0)
            x._accumulate(gx.reshape(x.shape))

        return Tensor._make(out.astype(x.dtype), (x,), backward)

    # Fast non-overlapping path.  ``np.maximum`` returns its first
    # operand's NaN if either is NaN, else its second operand unless the
    # first is strictly larger; so a fold yields "the first NaN, else the
    # last maximal element" in fold order, however it associates.  The
    # window fold walks (i, j) row-major, the order of the historical
    # ``xr.max(axis=(3, 5))``, so results are bit-identical, signed zeros
    # and NaN payloads included.
    out_h, out_w = h // k, w // k
    rows = n * c * out_h
    if not (x.requires_grad and is_grad_enabled()):
        # No tape: fold each window position into the output in place,
        # with no temporaries and no backward-only tie mask.
        windows = x.data.reshape(rows, k, out_w, k)  # (n·c·oh, i, ow, j)
        out = windows[:, 0, :, 0].copy()
        for p in range(1, k * k):
            np.maximum(out, windows[:, p // k, :, p % k], out=out)
        return Tensor._make(out.reshape(n, c, out_h, out_w), (x,), None)
    # With a tape the window fold runs over flat views (faster, with
    # temporaries), and a copy keeps k == 1 from aliasing the input.
    out = _window_fold(np.maximum, x.data, k, rows, out_w)
    if k == 1:
        out = out.copy()
    # Tie mask in x's own layout, (n·c·oh, i, w), against the window
    # maxima repeated along w.
    mask = x.data.reshape(rows, k, w) == np.repeat(out, k, axis=1)[:, None, :]

    def backward(g: np.ndarray) -> None:
        # Integer tie counts are exact in any order.  The division by the
        # count happens in fp64 (as ``g / int64`` always has) on the small
        # pooled grid and rounds to the input dtype *before* the 0/1-mask
        # product: multiplying by exactly 1.0 or 0.0 commutes with the
        # rounding, so this matches the historical full-size fp64 product
        # bit for bit.
        ones = mask.view(np.uint8) if k * k < 256 else mask.astype(np.int64)
        counts = _window_fold(np.add, ones, k, rows, out_w)
        d = g.reshape(rows, out_w) / np.maximum(counts, 1).astype(np.int64)
        d = np.repeat(d.astype(x.dtype), k, axis=1)
        x._accumulate((mask * d[:, None, :]).reshape(x.shape))

    return Tensor._make(out.reshape(n, c, out_h, out_w), (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling on NCHW input with square non-overlapping window."""
    stride = stride or kernel_size
    if stride != kernel_size:
        raise NotImplementedError("avg_pool2d supports non-overlapping windows only")
    n, c, h, w = x.shape
    k = kernel_size
    out_h, out_w = h // k, w // k
    xr = x.data[:, :, : out_h * k, : out_w * k].reshape(n, c, out_h, k, out_w, k)
    out = xr.mean(axis=(3, 5))

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        tile = np.broadcast_to(
            g[:, :, :, None, :, None] / (k * k), (n, c, out_h, k, out_w, k)
        )
        gx[:, :, : out_h * k, : out_w * k] = tile.reshape(n, c, out_h * k, out_w * k)
        x._accumulate(gx)

    return Tensor._make(out.astype(x.dtype), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dimensions of an NCHW tensor -> (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (g - dot))

    return Tensor._make(out.astype(x.dtype), (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out.astype(x.dtype), (x,), backward)


def cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None
) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    ``ignore_index`` positions contribute zero loss and zero gradient
    (used for masked-LM objectives where only masked positions count).

    Inside :func:`~repro.tensor.rank_blocks` the loss is the ``(R,)``
    vector of per-block means, each over its own block's (valid) count.
    """
    targets = np.asarray(targets)
    if logits.ndim > 2:
        logits = logits.reshape(-1, logits.shape[-1])
        targets = targets.reshape(-1)
    n, c = logits.shape
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse

    if ignore_index is not None:
        valid = targets != ignore_index
        safe_targets = np.where(valid, targets, 0)
    else:
        valid = np.ones(n, dtype=bool)
        safe_targets = targets

    picked = logp[np.arange(n), safe_targets] * valid
    blocks = rank_block_count()
    if blocks is None:
        count = max(int(valid.sum()), 1) if ignore_index is not None else n
        counts, loss_val = (count,), -picked.sum() / count
    else:
        counts = [
            max(int(v.sum()), 1) if ignore_index is not None else n // blocks
            for v in split_blocks(valid, blocks)
        ]
        loss_val = [-p.sum() / c for p, c in zip(split_blocks(picked, blocks), counts)]
    src = logits

    def backward(g: np.ndarray) -> None:
        soft = np.exp(logp)
        grad = soft.copy()
        grad[np.arange(n), safe_targets] -= 1.0
        grad *= valid[:, None]
        rows = grad[None] if blocks is None else split_blocks(grad, blocks)
        for block, count, gr in zip(rows, counts, g.reshape(-1)):
            block *= float(gr) / count
        src._accumulate(grad.astype(src.dtype))

    return Tensor._make(np.asarray(loss_val, dtype=logits.dtype), (logits,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=pred.dtype)
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def nll_loss(logp: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log likelihood on log-probabilities (N, C)."""
    targets = np.asarray(targets)
    n = logp.shape[0]
    picked = logp[np.arange(n), targets]
    return -picked.mean()


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data
    blocks = rank_block_count()

    def reduce_to(grad, shape):
        if blocks is None:
            return _unbroadcast(grad, shape)
        return _unbroadcast_blocks(split_blocks(grad, blocks), shape)

    def backward(g: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(reduce_to(g, beta.shape))
        if gamma.requires_grad:
            gamma._accumulate(reduce_to(g * xhat, gamma.shape))
        if x.requires_grad:
            gxhat = g * gamma.data
            gx = (
                gxhat
                - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            ) * inv
            x._accumulate(gx.astype(x.dtype))

    return Tensor._make(out.astype(x.dtype), (x, gamma, beta), backward)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, H, W) per channel of an NCHW tensor.

    ``running_mean``/``running_var`` are updated in place when training.
    """
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        n_elem = x.data.size / x.shape[1]
        unbiased = var * n_elem / max(n_elem - 1, 1)
        running_mean *= 1 - momentum
        running_mean += momentum * mu
        running_var *= 1 - momentum
        running_var += momentum * unbiased
    else:
        mu, var = running_mean, running_var
    shape = (1, -1, 1, 1)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(shape)) * inv.reshape(shape)
    out = xhat * gamma.data.reshape(shape) + beta.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=axes))
        if x.requires_grad:
            gxhat = g * gamma.data.reshape(shape)
            if training:
                m = x.data.size / x.shape[1]
                gx = (
                    gxhat
                    - gxhat.mean(axis=axes, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)
                ) * inv.reshape(shape)
            else:
                gx = gxhat * inv.reshape(shape)
            x._accumulate(gx.astype(x.dtype))

    return Tensor._make(out.astype(x.dtype), (x, gamma, beta), backward)


# ----------------------------------------------------------------------
# Embedding / dropout
# ----------------------------------------------------------------------
def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (V, D) at integer ``indices`` (...)."""
    indices = np.asarray(indices)
    out = weight.data[indices]
    blocks = rank_block_count()

    def scatter(idx: np.ndarray, gs: np.ndarray) -> np.ndarray:
        gw = np.zeros_like(weight.data)
        np.add.at(gw, idx.reshape(-1), gs.reshape(-1, weight.shape[-1]))
        return gw

    def backward(g: np.ndarray) -> None:
        weight._accumulate(per_block(scatter, blocks, indices, g))

    return Tensor._make(out, (weight,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with keep-prob scaling."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out = x.data * mask

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(out, (x,), backward)
