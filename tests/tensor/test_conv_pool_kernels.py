"""LeNet's conv and pool kernels against the formulations they replaced.

The references below are the previous ``_im2col`` (a C-contiguous
``(n, f, l)`` array), ``_col2im``, ``max_pool2d``, ``Tensor.relu`` and
``conv2d`` (its forward tail added the bias to a reshaped contraction
result), kept as they were.  The rewritten kernels must produce the same
bytes, forward and every gradient: with a tape, without one, and inside
``rank_blocks(R)``, with kernel specialization off and on.
"""

import contextlib
import time
import tracemalloc
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import (
    Tensor,
    clear_kernel_caches,
    functional as F,
    no_grad,
    rank_blocks,
    set_kernel_specialization,
    tune_allocator,
)
from repro.tensor.tensor import per_block, rank_block_count, split_blocks


# ----------------------------------------------------------------------
# The previous kernels
# ----------------------------------------------------------------------
def ref_im2col(x, kh, kw, stride, padding):
    # The final reshape may return a view of the input instead of a copy.
    # For a 1x1 kernel at stride >= 2 over one output row (or a width-1
    # input) that view is strided, and the verdict-approved single-GEMM
    # weight gradient summed it in BLAS's strided order, disagreeing with
    # einsum on data its probe had not seen.  The copy keeps this
    # reference at the C-contiguous (n, f, l) array other geometries got.
    n, c, h, w = x.shape
    if padding > 0:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:-padding, padding:-padding] = x
    else:
        xp = x
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    v = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    v = v[:, :, ::stride, ::stride]  # (n, c, out_h, out_w, kh, kw)
    cols = v.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def ref_col2im(cols, x_shape, kh, kw, stride, padding):
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
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


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    cols, out_h, out_w = ref_im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(oc, c * kh * kw)
    blocks = rank_block_count()

    def with_weight(subscripts, batched, shape):
        if blocks is None:
            return F.einsum_cached(subscripts, w2, batched)
        res = np.empty(shape, dtype=np.result_type(w2, batched))
        for dest, block in zip(split_blocks(res, blocks), split_blocks(batched, blocks)):
            dest[...] = F.einsum_cached(subscripts, w2, block)
        return res

    out = with_weight("of,nfl->nol", cols, (n, oc, out_h * out_w))
    out = out.reshape(n, oc, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g2 = g.reshape(n, oc, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(per_block(lambda gs: gs.sum(axis=(0, 2)), blocks, g2))
        if weight.requires_grad:
            weight._accumulate(per_block(
                lambda gs, cs: F.einsum_cached("nol,nfl->of", gs, cs).reshape(weight.shape),
                blocks, g2, cols,
            ))
        if x.requires_grad:
            gcols = with_weight("of,nol->nfl", g2, cols.shape)
            x._accumulate(ref_col2im(gcols, x.shape, kh, kw, stride, padding))

    return Tensor._make(out.astype(x.dtype, copy=False), parents, backward)


def ref_max_pool2d(x, kernel_size, stride=None):
    stride = stride or kernel_size
    n, c, h, w = x.shape
    k = kernel_size
    if h % stride or w % stride or k != stride:
        cols, out_h, out_w = ref_im2col(x.data.reshape(n * c, 1, h, w), k, k, stride, 0)
        idx = cols.argmax(axis=1)
        out = np.take_along_axis(cols, idx[:, None, :], axis=1)[:, 0, :]
        out = out.reshape(n, c, out_h, out_w)

        def backward(g):
            gcols = np.zeros_like(cols)
            np.put_along_axis(gcols, idx[:, None, :], g.reshape(n * c, 1, -1), axis=1)
            gx = ref_col2im(gcols, (n * c, 1, h, w), k, k, stride, 0)
            x._accumulate(gx.reshape(x.shape))

        return Tensor._make(out.astype(x.dtype), (x,), backward)

    out_h, out_w = h // k, w // k
    xr = x.data.reshape(n, c, out_h, k, out_w, k)
    out = None
    for i in range(k):
        row = xr[:, :, :, i, :, 0]
        for j in range(1, k):
            row = np.maximum(row, xr[:, :, :, i, :, j])
        out = row if out is None else np.maximum(out, row)
    mask = xr == out[:, :, :, None, :, None]

    def backward(g):
        counts = np.zeros((n, c, out_h, out_w), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                counts += mask[:, :, :, i, :, j]
        counts = counts[:, :, :, None, :, None]
        d = (g[:, :, :, None, :, None] / np.maximum(counts, 1)).astype(x.dtype)
        x._accumulate((mask * d).reshape(x.shape))

    return Tensor._make(out.astype(x.dtype), (x,), backward)


def ref_relu(x):
    mask = x.data > 0
    data = np.maximum(x.data, 0.0).astype(x.data.dtype, copy=False)

    def backward(g):
        x._accumulate((mask * g).astype(x.data.dtype, copy=False))

    return Tensor._make(data, (x,), backward)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
class Case(NamedTuple):
    op: str  # "conv2d", "max_pool2d" or "relu"
    x: np.ndarray
    upstream: np.ndarray  # the gradient seeded at the output
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    kernel: int = 1
    stride: int = 1
    padding: int = 0


def _out_hw(h, w, k, stride, padding):
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


SPECIALS = [float(np.float32(v)) for v in
            (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-45, -1e-45, 1e-40, np.inf, -np.inf, np.nan)]
# Few distinct values (and the array strategy's shared fill value) make
# ties common; the float draws add subnormals, NaN payloads and anything
# else a float32 can hold.
VALUES = st.one_of(st.sampled_from(SPECIALS), st.floats(width=32))


def _array(draw, shape):
    return draw(arrays(np.float32, shape, elements=VALUES))


@st.composite
def cases(draw):
    op = draw(st.sampled_from(["conv2d", "max_pool2d", "relu"]))
    n, c = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    if op == "relu":
        shape = (n, c, draw(st.integers(1, 12)), draw(st.integers(1, 12)))
        return Case(op, _array(draw, shape), _array(draw, shape))
    k, stride = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    if op == "max_pool2d":
        if draw(st.booleans()):  # the non-overlapping fast path
            stride = k
            h, w = (k * draw(st.integers(1, 12 // k)) for _ in range(2))
        else:
            h, w = draw(st.integers(k, 12)), draw(st.integers(k, 12))
        out = (n, c, (h - k) // stride + 1, (w - k) // stride + 1)
        return Case(op, _array(draw, (n, c, h, w)), _array(draw, out), kernel=k, stride=stride)
    padding = draw(st.integers(0, 2))
    low = max(1, k - 2 * padding)
    h, w = draw(st.integers(low, 12)), draw(st.integers(low, 12))
    oc = draw(st.integers(1, 4))
    out = (n, oc) + _out_hw(h, w, k, stride, padding)
    bias = _array(draw, (oc,)) if draw(st.booleans()) else None
    return Case(op, _array(draw, (n, c, h, w)), _array(draw, out),
                _array(draw, (oc, c, k, k)), bias, k, stride, padding)


def _lenet_case(op, x_shape, *, weight=None, kernel=2, padding=0):
    """A ``lenet_tta`` shape (4 ranks x 8 stacked) with relu-like inputs:
    many exact zeros, so pooling windows tie."""
    rng = np.random.default_rng(0)
    x = np.maximum(rng.standard_normal(x_shape), 0).astype(np.float32)
    x.flat[::97] = -0.0
    n, c, h, w = x_shape
    if op == "conv2d":
        oc = weight[0]
        wt = (rng.standard_normal(weight) * 0.2).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        out = (n, oc) + _out_hw(h, w, kernel, 1, padding)
        up = rng.standard_normal(out).astype(np.float32)
        up.flat[::13] = -0.0
        return Case(op, x, up, wt, b, kernel, 1, padding)
    out = x_shape if op == "relu" else (n, c, h // kernel, w // kernel)
    up = rng.standard_normal(out).astype(np.float32)
    up.flat[::13] = -0.0
    return Case(op, x, up, kernel=kernel, stride=kernel)


# ----------------------------------------------------------------------
# Running one case
# ----------------------------------------------------------------------
def _probe(data):
    """A non-leaf tensor holding ``data`` whose backward records the
    gradient it receives (a rank-block leaf may only take per-block
    gradients, so the data gradient is read here, not from a leaf)."""
    anchor = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    seen = []
    return Tensor._make(data, (anchor,), seen.append), seen


@contextlib.contextmanager
def _specialization(enabled: bool):
    """Kernel specialization on (from empty caches, so every GEMM verdict
    is probed on this run's own operands) or off, restored on exit."""
    if enabled:
        clear_kernel_caches()
    prior = set_kernel_specialization(enabled)
    try:
        yield
    finally:
        set_kernel_specialization(prior)
        clear_kernel_caches()


def _run(case: Case, new: bool, mode: str, blocks: int = 1, specialize: bool = False):
    """Output and gradient bytes of one case through the new kernels or
    the references; ``mode`` is "grad", "no_grad" or "blocks"."""
    with _specialization(specialize):
        return _run_case(case, new, mode, blocks)


def _run_case(case: Case, new: bool, mode: str, blocks: int):
    x, seen = _probe(case.x.copy())
    weight = None if case.weight is None else Tensor(case.weight.copy(), requires_grad=True)
    bias = None if case.bias is None else Tensor(case.bias.copy(), requires_grad=True)
    if case.op == "relu":
        forward = x.relu if new else (lambda: ref_relu(x))
    elif case.op == "max_pool2d":
        pool = F.max_pool2d if new else ref_max_pool2d
        forward = lambda: pool(x, case.kernel, case.stride)  # noqa: E731
    else:
        conv = F.conv2d if new else ref_conv2d
        forward = lambda: conv(x, weight, bias, stride=case.stride, padding=case.padding)  # noqa: E731

    def raw(a):
        # IEEE addition is commutative bit for bit except when both
        # operands are NaN: then the sign and payload returned depend on
        # which operand the add loop (SIMD lane or scalar tail) keeps.
        # col2im and the bias add sum in the same order as before, but in
        # other loops, so a convolution's NaNs compare as NaNs.
        if case.op == "conv2d":
            a = np.where(np.isnan(a), np.float32(np.nan), a)
        return a.tobytes()

    if mode == "no_grad":
        with no_grad():
            out = forward()
        return out.data.dtype, out.shape, raw(out.data)
    with rank_blocks(blocks) if mode == "blocks" else contextlib.nullcontext():
        out = forward()
        out.backward(case.upstream)
    grads = [raw(seen[0])] + [raw(t.grad) for t in (weight, bias) if t is not None]
    return out.data.dtype, out.shape, raw(out.data), grads


def _modes(n):
    yield "grad", 1
    yield "no_grad", 1
    for r in range(1, n + 1):
        if n % r == 0:
            yield "blocks", r


LENET_EXAMPLES = [
    _lenet_case("conv2d", (32, 1, 28, 28), weight=(6, 1, 5, 5), kernel=5, padding=2),
    _lenet_case("conv2d", (32, 6, 14, 14), weight=(16, 6, 5, 5), kernel=5),
    _lenet_case("max_pool2d", (32, 6, 28, 28)),
    _lenet_case("max_pool2d", (32, 16, 10, 10)),
    _lenet_case("relu", (32, 6, 28, 28)),
]

# A Hypothesis find: a 1x1 kernel at stride 2 over one output row, in two
# rank blocks, whose weight gradient shows its summation order in the
# bytes (193 + 2 * 7.158279e8 rounds differently by association).
BIG = np.float32(7.158279e8)
STRIDED_1X1 = Case(
    "conv2d", np.ones((2, 1, 1, 5), np.float32),
    np.array([[[[BIG, BIG, BIG]]], [[[193, BIG, BIG]]]], np.float32),
    np.zeros((1, 1, 1, 1), np.float32), None, kernel=1, stride=2,
)


@given(case=cases())
@settings(max_examples=80, deadline=None)
@example(case=LENET_EXAMPLES[0])
@example(case=LENET_EXAMPLES[1])
@example(case=LENET_EXAMPLES[2])
@example(case=LENET_EXAMPLES[3])
@example(case=LENET_EXAMPLES[4])
@example(case=STRIDED_1X1)
def test_kernels_match_the_reference(case):
    """Forward output and every gradient (data, weight, bias), byte for
    byte, with a tape, under ``no_grad`` and in every rank-block split,
    with kernel specialization off and on."""
    with np.errstate(all="ignore"):
        for specialize in (False, True):
            for mode, blocks in _modes(case.x.shape[0]):
                got = _run(case, True, mode, blocks, specialize)
                want = _run(case, False, mode, blocks, specialize)
                assert got == want, (mode, blocks, specialize)


@pytest.mark.parametrize("op", ["max_pool2d", "relu"])
def test_no_grad_forward_builds_no_mask(op):
    """Off the tape a forward allocates its output and nothing of
    size: no tie or sign mask for a backward that never comes."""
    x = Tensor(np.random.default_rng(0).standard_normal((256, 6, 28, 28)).astype(np.float32),
               requires_grad=True)
    forward = (lambda: F.max_pool2d(x, 2)) if op == "max_pool2d" else x.relu
    with no_grad():
        tracemalloc.start()
        try:
            out = forward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= out.data.nbytes + 64 * 1024, (peak, out.data.nbytes)


def _p10(fn, reps=200):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[reps // 10]


def _pool_step(pool, x, upstream):
    """One max-pool forward and its backward closure, called directly."""
    leaf = Tensor(x, requires_grad=True)
    out = pool(leaf, 2)
    out._backward(upstream)
    return out.data.tobytes(), leaf.grad.tobytes()


@pytest.mark.perf
def test_conv_pool_kernels_beat_the_reference():
    """``lenet_tta``'s stacked shapes, p10: ``_col2im`` into
    (32, 6, 14, 14) and max-pool forward + backward on (32, 6, 28, 28)
    and (32, 16, 10, 10) — one training step's worth of these kernels —
    >= 1.4x the references above together, same bytes out."""
    tune_allocator()  # as in a trainer: temporaries recycle, no mmap each
    gcols = np.random.default_rng(0).standard_normal((32, 150, 100)).astype(np.float32)
    kernels = {"col2im": tuple(
        (lambda col2im=col2im: np.ascontiguousarray(col2im(gcols, (32, 6, 14, 14), 5, 5, 1, 0)))
        for col2im in (F._col2im, ref_col2im))}
    for shape in ((32, 6, 28, 28), (32, 16, 10, 10)):
        case = _lenet_case("max_pool2d", shape)
        kernels[f"max_pool2d{shape}"] = tuple(
            (lambda pool=pool, case=case: _pool_step(pool, case.x, case.upstream))
            for pool in (F.max_pool2d, ref_max_pool2d))
    times = {}
    for name, (new, ref) in kernels.items():
        assert np.array_equal(new(), ref()) if name == "col2im" else new() == ref(), name
        new_s, ref_s = [], []
        for _ in range(3):  # alternate, so drift on a shared host hits both
            new_s.append(_p10(new))
            ref_s.append(_p10(ref))
        times[name] = min(new_s), min(ref_s)
    new_s, ref_s = (sum(t[i] for t in times.values()) for i in (0, 1))
    assert ref_s >= 1.4 * new_s, ", ".join(
        f"{name} {n * 1e3:.3f} vs {r * 1e3:.3f} ms ({r / n:.2f}x)" for name, (n, r) in times.items())


LENET_EVAL_CONVS = {  # x shape, weight shape, padding: lenet_tta's held-out batches
    "conv1": ((256, 1, 28, 28), (6, 1, 5, 5), 2),
    "conv2": ((256, 6, 14, 14), (16, 6, 5, 5), 0),
}


def _eval_conv(name):
    x_shape, w_shape, padding = LENET_EVAL_CONVS[name]
    rng = np.random.default_rng(0)
    x = np.maximum(rng.standard_normal(x_shape), 0).astype(np.float32)
    w = (rng.standard_normal(w_shape) * 0.2).astype(np.float32)
    b = rng.standard_normal(w_shape[0]).astype(np.float32)
    return (Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
            Tensor(b, requires_grad=True), padding)


@pytest.mark.parametrize("name", list(LENET_EVAL_CONVS))
def test_no_grad_conv_forward_copies_cols_once(name):
    """An eval convolution (``no_grad``, specialization off) holds one
    ``cols``: im2col writes the rows the forward GEMM reads, and einsum
    re-lays nothing out.  The ``tracemalloc`` peak is ``cols``, the
    GEMM's result and the output, the padded input, and 128 KiB for the
    ufunc buffers of the bias add, which reads the GEMM's result
    transposed (about 64 KB at conv2)."""
    x, w, b, padding = _eval_conv(name)
    n, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    out_h, out_w = _out_hw(h, wd, k, 1, padding)
    cols = n * c * k * k * out_h * out_w * 4
    out = n * oc * out_h * out_w * 4
    padded = n * c * (h + 2 * padding) * (wd + 2 * padding) * 4 if padding else 0
    with no_grad():
        tracemalloc.start()
        try:
            F.conv2d(x, w, b, padding=padding)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= cols + 2 * out + padded + 128 * 1024, (peak, cols, out, padded)


@pytest.mark.perf
def test_conv_forward_beats_the_reference():
    """``lenet_tta``'s held-out forward convolutions — conv1 and conv2 on
    two batches of 256, ``no_grad``, specialization off — p10 >= 1.3x
    the reference (the previous im2col, einsum's own re-layout of it,
    the bias add), same bytes out."""
    tune_allocator()  # as in a trainer: temporaries recycle, no mmap each
    convs = [_eval_conv(name) for name in LENET_EVAL_CONVS]

    def forward(conv):
        with no_grad():
            return [conv(x, w, b, padding=p).data.tobytes()
                    for _ in range(2) for x, w, b, p in convs]

    new, ref = (lambda: forward(F.conv2d)), (lambda: forward(ref_conv2d))
    assert new() == ref()
    new_s, ref_s = [], []
    for _ in range(3):  # alternate, so drift on a shared host hits both
        new_s.append(_p10(new, reps=30))
        ref_s.append(_p10(ref, reps=30))
    new_t, ref_t = min(new_s), min(ref_s)
    assert ref_t >= 1.3 * new_t, f"{new_t * 1e3:.2f} vs {ref_t * 1e3:.2f} ms ({ref_t / new_t:.2f}x)"
