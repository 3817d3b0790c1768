"""The core ``Tensor`` type: a NumPy array with a reverse-mode tape.

The engine is a classic define-by-run tape.  Every differentiable
operation allocates a new ``Tensor`` whose ``_backward`` closure knows
how to push gradients to its parents.  ``Tensor.backward`` performs a
topological sort of the recorded graph and runs the closures in reverse
order, accumulating into ``Tensor.grad``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects (not Tensors); we never
  need higher-order autograd — the exact-Hessian experiment of the paper
  (Figure 2) uses finite-difference Hessian-vector products instead (see
  :mod:`repro.core.hessian`).
* Broadcasting is supported for elementwise binary operations; the
  helper :func:`_unbroadcast` sums gradients back down to the original
  operand shape.
* A module-level switch (:func:`no_grad`) disables graph construction
  for inference and for the distributed-communication code paths, which
  operate on raw gradients.
* Beside it, :func:`rank_blocks` computes several simulated ranks in
  one pass: the leading axis of every batch tensor is ``R`` equal
  contiguous blocks, one per rank, and every parameter leaf receives an
  ``(R, *shape)`` gradient — one row per rank.  Only the ops that reduce
  the batch into a parameter gradient know about blocks (``linear``,
  ``conv2d``, ``layer_norm``, ``embedding`` and ``cross_entropy`` in
  :mod:`repro.tensor.functional`); they run each GEMM that touches a
  parameter per block, at the single-rank shapes.  Everything else runs
  stacked, unchanged.  A leaf that receives any other gradient shape —
  a parameter used through a generic op — raises
  :class:`RankBlocksError` before anything is written.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np


class _GradState(threading.local):
    # Class-level defaults: a thread that never set a switch reads them
    # without the AttributeError a getattr default would cost per op.
    enabled = True
    rank_blocks: Optional[int] = None


_GRAD_STATE = _GradState()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_STATE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction."""
    prev = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


class RankBlocksError(RuntimeError):
    """An op or loss cannot keep rank blocks apart (see :func:`rank_blocks`)."""


def rank_block_count() -> Optional[int]:
    """``R`` inside :func:`rank_blocks`, else ``None``."""
    return _GRAD_STATE.rank_blocks


@contextlib.contextmanager
def rank_blocks(num_blocks: int):
    """Context manager: batch axes are ``num_blocks`` equal rank blocks.

    Inside it, block-aware ops keep each block's contribution to a
    parameter gradient apart, so every parameter leaf receives an
    ``(num_blocks, *shape)`` gradient whose row ``r`` holds the bytes a
    pass over block ``r`` alone would produce.  Thread-local, like
    :func:`no_grad`.
    """
    if num_blocks < 1:
        raise ValueError(f"rank_blocks needs at least one block, got {num_blocks}")
    prev = rank_block_count()
    _GRAD_STATE.rank_blocks = int(num_blocks)
    try:
        yield
    finally:
        _GRAD_STATE.rank_blocks = prev


def split_blocks(arr: np.ndarray, num_blocks: int) -> np.ndarray:
    """``arr`` viewed as ``(num_blocks, n // num_blocks, ...)``.

    Row ``r`` is rank block ``r``, with exactly the strides of a
    single-rank array — so a NumPy matmul over the block axis runs one
    GEMM per block at the single-rank shapes (NumPy loops stacked
    matmuls over their leading axes; it never folds them into the row
    count).
    """
    n = arr.shape[0]
    if n % num_blocks:
        raise RankBlocksError(f"batch axis {n} does not split into {num_blocks} rank blocks")
    return arr.reshape((num_blocks, n // num_blocks) + arr.shape[1:])


def per_block(
    fn: Callable[..., np.ndarray], num_blocks: Optional[int], *arrays: np.ndarray
) -> np.ndarray:
    """``fn`` applied to each rank block of ``arrays``, stacked: ``(R, ...)``.

    With ``num_blocks`` ``None`` (outside :func:`rank_blocks`) it is
    just ``fn(*arrays)``: the one-rank parameter gradient.
    """
    if num_blocks is None:
        return fn(*arrays)
    return np.stack([fn(*block) for block in zip(*(split_blocks(a, num_blocks) for a in arrays))])


ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype == np.float64 and dtype is None:
        # Keep everything in float32 by default, as typical DL frameworks do.
        arr = arr.astype(np.float32)
    elif arr.dtype.kind in "iub" and dtype is None:
        # Integer tensors stay integer (labels, indices).
        pass
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape``; inverse of NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _unbroadcast_blocks(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """:func:`_unbroadcast` of every block of ``grad`` ``(R, ...)``, in
    one reduction over the block axis: ``(R, *shape)``, bit for bit the
    per-block results stacked."""
    extra = grad.ndim - 1 - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(1, 1 + extra)))
    axes = tuple(i + 1 for i, s in enumerate(shape) if s == 1 and grad.shape[i + 1] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(grad.shape[:1] + tuple(shape))


class Tensor:
    """A NumPy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Floating point data defaults to ``float32``.
    requires_grad:
        Whether ``backward`` should accumulate a gradient for this leaf.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name",
        "_grad_hook",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name: Optional[str] = None
        self._grad_hook: Optional[Callable[["Tensor"], None]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a non-leaf tensor recording ``backward`` if grads are on."""
        parents = tuple(parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = None
        out._grad_hook = None
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        out.requires_grad = track
        if track:
            out._backward = backward
            out._parents = parents
        else:
            out._backward = None
            out._parents = ()
        return out

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return self.data.item()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t._backward = None
        t._parents = ()
        t.name = self.name
        t._grad_hook = None
        return t

    def clone(self) -> "Tensor":
        """Differentiable copy."""
        out = Tensor._make(self.data.copy(), (self,), None)
        if out.requires_grad:

            def backward(g: np.ndarray) -> None:
                self._accumulate(g)

            out._backward = backward
        return out

    def copy_(self, other: "Tensor") -> "Tensor":
        """In-place copy of ``other``'s data (not differentiable)."""
        np.copyto(self.data, np.asarray(other.data, dtype=self.data.dtype))
        return self

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        blocks = _GRAD_STATE.rank_blocks
        if blocks is not None and self._backward is None:
            if grad.shape != (blocks,) + self.data.shape:
                raise RankBlocksError(
                    f"leaf {self.name or tuple(self.data.shape)} received a "
                    f"{grad.shape} gradient, not one row per rank block "
                    f"({blocks},) + {self.data.shape}: an op that is not "
                    "block-aware reduced the batch into it"
                )
        if self.grad is None:
            # Gradients are only ever replaced (never mutated in place), so
            # sharing the incoming buffer is safe; materialize views though.
            self.grad = np.ascontiguousarray(grad)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        # Grad-ready hooks: count how many backward closures will feed each
        # hooked leaf (a leaf may appear several times — e.g. a weight-tied
        # embedding used by both the input lookup and the output head) and
        # fire the hook on the contribution that completes its gradient.
        # The pre-scan counts *occurrences* in ``_parents`` because a
        # closure accumulates once per operand slot, not once per node.
        hooked: dict = {}
        for node in topo:
            if node._backward is None and node._grad_hook is not None:
                hooked[id(node)] = [0, node]
        if hooked:
            for node in topo:
                if node._backward is None:
                    continue
                for p in node._parents:
                    entry = hooked.get(id(p))
                    if entry is not None:
                        entry[0] += 1

        # Seed and propagate.
        grads = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                if hooked:
                    entry = hooked.get(id(node))
                    if entry is not None and entry[0] == 0:
                        # Leaf used directly as the backward root.
                        hooked.pop(id(node))
                        entry[1]._grad_hook(entry[1])
                continue
            # Non-leaf: let the closure push into parents. Parents receive
            # contributions through _pending mechanism below.
            node._push(g, grads)
            if hooked:
                for p in node._parents:
                    entry = hooked.get(id(p))
                    if entry is not None:
                        entry[0] -= 1
                        if entry[0] <= 0:
                            hooked.pop(id(p))
                            entry[1]._grad_hook(entry[1])

    def _push(self, g: np.ndarray, grads: dict) -> None:
        """Invoke the backward closure, routing parent grads via ``grads``."""
        # The closures were written to call parent._accumulate directly; to
        # avoid double bookkeeping we temporarily intercept by running the
        # closure (which calls _accumulate on parents) then migrating leaf
        # accumulations for interior nodes into the ``grads`` dict.
        interior_by_id = {
            id(p): p
            for p in self._parents
            if p.requires_grad and p._backward is not None
        }
        interior = list(interior_by_id.values())
        saved = {id(p): p.grad for p in interior}
        for p in interior:
            p.grad = None
        self._backward(g)
        for p in interior:
            contrib = p.grad
            p.grad = saved[id(p)]
            if contrib is not None:
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _binary(self, other: ArrayLike, fwd, bwd_self, bwd_other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        data = fwd(self.data, other_t.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(bwd_self(g, self.data, other_t.data), self.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(bwd_other(g, self.data, other_t.data), other_t.shape)
                )

        return Tensor._make(data, (self, other_t), backward)

    def __add__(self, other: ArrayLike) -> "Tensor":
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return (-self).__add__(other)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            np.divide,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    # Comparison operators yield plain boolean arrays (no grads).
    def __gt__(self, other):  # pragma: no cover - trivial
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):  # pragma: no cover - trivial
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):  # pragma: no cover - trivial
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):  # pragma: no cover - trivial
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        data = self.data @ other_t.data

        def backward(g: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.multiply.outer(g, b) if g.ndim else g * b
                elif a.ndim == 1:
                    ga = g @ b.swapaxes(-1, -2)
                else:
                    ga = g @ b.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(np.asarray(ga), self.shape))
            if other_t.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, g)
                elif b.ndim == 1:
                    gb = (a.swapaxes(-1, -2) @ g[..., None])[..., 0]
                    gb = _unbroadcast(gb, other_t.shape)
                else:
                    gb = a.swapaxes(-1, -2) @ g
                other_t._accumulate(_unbroadcast(np.asarray(gb), other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.shape
        data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(orig))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inv))

        return Tensor._make(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero padding; ``pad_width`` follows ``numpy.pad`` convention."""
        data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + dim) for (before, _after), dim in zip(pad_width, self.shape)
        )

        def backward(g: np.ndarray) -> None:
            self._accumulate(g[slices])

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accumulate(np.broadcast_to(gg, self.shape).astype(self.data.dtype))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = data if keepdims or axis is None else np.expand_dims(data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accumulate(mask * gg)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / np.maximum(data, 1e-12))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - data * data))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        # np.maximum(x, 0.0) matches np.where(x > 0, x, 0.0) bit for bit
        # (including the sign of zero) and avoids ``where``'s much slower
        # select loop; the 0/1-mask product in backward likewise keeps
        # kept gradients bitwise unchanged.
        mask = self.data > 0
        data = np.maximum(self.data, 0.0).astype(self.data.dtype, copy=False)

        def backward(g: np.ndarray) -> None:
            self._accumulate((mask * g).astype(self.data.dtype, copy=False))

        return Tensor._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi).astype(np.float32)
        # x * x * x instead of x ** 3: np.power has no small-integer fast
        # path for float32 and is ~100x slower than two multiplies on the
        # same data (the difference is <= 2 ulp and gelu is the hottest
        # elementwise op in the transformer forward pass).
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        data = (0.5 * x * (1.0 + t)).astype(self.data.dtype)

        def backward(g: np.ndarray) -> None:
            dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x ** 2)
            self._accumulate((g * (0.5 * (1.0 + t) + 0.5 * x * dt)).astype(self.data.dtype))

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * np.sign(self.data))

        return Tensor._make(data, (self,), backward)


def tensor(data: ArrayLike, requires_grad: bool = False, dtype=None) -> Tensor:
    """Construct a :class:`Tensor` (mirrors ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)
