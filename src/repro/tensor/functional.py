"""Higher-level differentiable functions built on :class:`repro.tensor.Tensor`.

These are the compute kernels behind :mod:`repro.nn`.  Convolution and
pooling are implemented with im2col-style reshuffles so the heavy
arithmetic stays inside BLAS calls, following the vectorization idiom of
the project's coding guide.

Hot-path kernels keep persistent caches (im2col gather indices, einsum
contraction paths) keyed by shape/kernel/stride/padding; use
:func:`clear_kernel_caches` to reset them (exposed as
``repro.tensor.clear_kernel_caches``).  All fast paths are bit-exact
with the reference formulations they replaced — the scatter in
:func:`_col2im` accumulates per-target contributions in the same order
``np.ufunc.at`` did, and the im2col gather is a pure reindexing — so
cached kernels never perturb experiment results.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import (
    RankBlocksError,
    Tensor,
    _unbroadcast,
    _unbroadcast_blocks,
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
# im2col helpers
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _im2col_indices_cached(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Gather indices for im2col; independent of the batch dimension."""
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    for arr in (k, i, j):
        arr.setflags(write=False)
    return k, i, j, out_h, out_w


def _im2col_indices(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Compute gather indices for im2col on an NCHW tensor (cached)."""
    _n, c, h, w = x_shape
    return _im2col_indices_cached(c, h, w, kh, kw, stride, padding)


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


def _einsum_ref(subscripts: str, operands) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` with all per-call dispatch hoisted.

    Bit-identical to the plain call: single-pair contractions invoke the
    same pairwise kernel ``np.einsum`` would (with the contraction
    resolved once per (subscripts, shapes) instead of every call);
    anything else falls back to ``np.einsum`` with a cached path.
    """
    plan = _einsum_plan(subscripts, *(op.shape for op in operands))
    if plan is not None:
        inds, pair_subscripts = plan
        ops = list(operands)
        pair = [ops.pop(x) for x in inds]
        return _np_bmm_einsum(pair_subscripts, *pair)
    path = _einsum_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def _conv_fwd_gemm(w2: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Single-GEMM candidate for ``of,nfl->nol``."""
    o, f = w2.shape
    n, _, l = cols.shape
    out = w2 @ cols.transpose(1, 0, 2).reshape(f, n * l)
    return np.ascontiguousarray(out.reshape(o, n, l).transpose(1, 0, 2))


def _conv_gcols_gemm(w2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Single-GEMM candidate for ``of,nol->nfl``."""
    o, f = w2.shape
    n, _, l = g2.shape
    out = w2.T @ g2.transpose(1, 0, 2).reshape(o, n * l)
    return np.ascontiguousarray(out.reshape(f, n, l).transpose(1, 0, 2))


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


def _bench_once(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _misaligned_copy(op: np.ndarray) -> np.ndarray:
    """Copy of ``op`` whose data pointer is offset by one element."""
    buf = np.empty(op.size + 1, dtype=op.dtype)
    mis = buf[1:].reshape(op.shape)
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
    data: only when the GEMM formulation is proven byte-identical across
    alignments — and measures faster — do later calls take it.  Every
    other shape keeps the einsum kernel.
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
        use = False
        if candidate is not None and _gemm_is_bit_stable(
            subscripts, candidate, operands
        ):
            use = _bench_once(lambda: candidate(*operands)) < _bench_once(
                lambda: _einsum_ref(subscripts, operands)
            )
        _gemm_verdict[key] = use
    return ref


def clear_kernel_caches() -> None:
    """Drop all persistent kernel caches (im2col indices, einsum plans).

    Escape hatch for tests and for long-lived processes that sweep many
    one-off shapes; correctness never depends on cache state.
    """
    _im2col_indices_cached.cache_clear()
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
    * the im2col/einsum plan caches are cleared (pure shape caches, but
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
        "im2col_indices": _im2col_indices_cached.cache_info()._asdict(),
        "einsum_path": _einsum_path.cache_info()._asdict(),
        "einsum_plan": _einsum_plan.cache_info()._asdict(),
        "gemm_verdicts": {
            "entries": len(_gemm_verdict),
            "fast": sum(_gemm_verdict.values()),
        },
    }


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    n, c, h, w = x.shape
    if padding > 0:
        # Zero-fill + slice assign: what np.pad(constant) computes, minus
        # its per-call python machinery.
        xp = np.zeros(
            (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
        )
        xp[:, :, padding:-padding, padding:-padding] = x
    else:
        xp = x
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    # Sliding-window view + transpose-copy: a pure reindexing, bit-exact
    # with the historical fancy-index gather but ~2-3x faster.
    v = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    v = v[:, :, ::stride, ::stride]  # (n, c, out_h, out_w, kh, kw)
    cols = v.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return cols, out_h, out_w


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
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    # Strided slice-adds over kernel positions replace ``np.add.at``:
    # contributions to any target pixel still accumulate in ascending
    # kernel-position order (the ufunc.at iteration order), so the sums
    # are bit-identical while avoiding the buffered scatter (~5x faster).
    cr = cols.reshape(n, c, kh * kw, out_h, out_w)
    p = 0
    for di in range(kh):
        for dj in range(kw):
            xp[:, :, di : di + stride * out_h : stride,
               dj : dj + stride * out_w : stride] += cr[:, :, p]
            p += 1
    if padding > 0:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


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
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    f = c * kh * kw
    w2 = weight.data.reshape(oc, f)
    # Inside rank_blocks every contraction with the weight runs per rank
    # block (the shapes einsum_cached validated for one rank); im2col,
    # col2im and the bias add are per-sample and run stacked.
    blocks = rank_block_count()

    def with_weight(subscripts, batched, shape):
        """``einsum_cached(subscripts, w2, batched)``, per rank block."""
        if blocks is None:
            return einsum_cached(subscripts, w2, batched)
        res = np.empty(shape, dtype=np.result_type(w2, batched))
        for dest, block in zip(split_blocks(res, blocks), split_blocks(batched, blocks)):
            dest[...] = einsum_cached(subscripts, w2, block)
        return res

    # einsum_cached defines the result: the contraction kernel
    # np.einsum picks varies with operand shapes, and its single-GEMM
    # rewrite is bit-identical on some conv geometries (LeNet's) but not
    # others (ResNet's).  einsum_cached proves equality per shape on
    # first use and only then switches kernels, so either way the bytes
    # match the plain np.einsum(optimize=True) call.
    out = with_weight("of,nfl->nol", cols, (n, oc, out_h * out_w))
    out = out.reshape(n, oc, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(n, oc, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(per_block(lambda gs: gs.sum(axis=(0, 2)), blocks, g2))
        if weight.requires_grad:
            weight._accumulate(per_block(
                lambda gs, cs: einsum_cached("nol,nfl->of", gs, cs).reshape(weight.shape),
                blocks, g2, cols,
            ))
        if x.requires_grad:
            gcols = with_weight("of,nol->nfl", g2, cols.shape)
            gx = _col2im(gcols, x.shape, kh, kw, stride, padding)
            x._accumulate(gx)

    return Tensor._make(out.astype(x.dtype, copy=False), parents, backward)


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

    # Fast non-overlapping path.  Window maxima fold over the k*k window
    # slices elementwise instead of reducing strided axes of the 6-D
    # view (which NumPy's reduce machinery handles an order of magnitude
    # slower).  The fold associates exactly like the historical
    # ``xr.max(axis=(3, 5))`` and max is exact, so results are
    # bit-identical.
    out_h, out_w = h // k, w // k
    xr = x.data.reshape(n, c, out_h, k, out_w, k)
    out = None
    for i in range(k):
        row = xr[:, :, :, i, :, 0]
        for j in range(1, k):
            row = np.maximum(row, xr[:, :, :, i, :, j])
        out = row if out is None else np.maximum(out, row)
    mask = xr == out[:, :, :, None, :, None]

    def backward(g: np.ndarray) -> None:
        # Integer tie counts are exact in any order.  The fp64 division
        # happens on the small pooled grid and rounds to the input dtype
        # *before* the 0/1-mask broadcast: multiplying by exactly 1.0 or
        # 0.0 commutes with the rounding, so this matches the historical
        # full-size fp64 product bit for bit.
        counts = np.zeros((n, c, out_h, out_w), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                counts += mask[:, :, :, i, :, j]
        counts = counts[:, :, :, None, :, None]
        d = (g[:, :, :, None, :, None] / np.maximum(counts, 1)).astype(x.dtype)
        gx = mask * d
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out.astype(x.dtype), (x,), backward)


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
