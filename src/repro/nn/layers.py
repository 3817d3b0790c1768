"""Layers used by the paper's case-study models.

Every layer stores an explicit per-layer RNG only where stochasticity
exists (Dropout); initialization RNGs are passed in by the caller so
replicated ranks build identical models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(init.uniform_bias((out_features,), in_features, rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2D convolution, NCHW layout, square kernel."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        fan_in = in_channels * kernel_size * kernel_size
        self.bias = Parameter(init.uniform_bias((out_channels,), fan_in, rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        oc, ic, k, _ = self.weight.shape
        return f"Conv2d({ic}, {oc}, k={k}, s={self.stride}, p={self.padding})"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)


class BatchNorm2d(Module):
    """Batch normalization with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Embedding(Module):
    """Token embedding table of shape ``(num_embeddings, dim)``."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; inactive in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self.rng)


def rank_order_hazard(model: Module) -> Optional[str]:
    """What makes ``model``'s forward pass depend on the order its
    simulated ranks run in, or ``None`` when nothing does.

    ``"buffers"``: registered buffers (BatchNorm running statistics)
    update once per rank, in rank order.  ``"dropout"``: active dropout
    draws every rank's mask from one shared RNG, in rank order.  A model
    free of both may run its ranks concurrently (rank processes) or
    stacked in one pass (a rank-fused engine, rank-stacked autograd).
    """
    if any(True for _ in model.named_buffers()):
        return "buffers"
    if any(isinstance(mod, Dropout) and mod.p > 0.0 for mod in model.modules()):
        return "dropout"
    return None


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class MultiHeadAttention(Module):
    """Multi-head self-attention (the BERT encoder kernel).

    Input/output shape ``(batch, seq, dim)``.  An optional boolean
    ``attention_mask`` of shape ``(batch, seq)`` marks valid positions.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        b, s, d = x.shape
        h, hd = self.num_heads, self.head_dim
        qkv = self.qkv(x)  # (b, s, 3d)
        qkv = qkv.reshape(b, s, 3, h, hd).transpose(2, 0, 3, 1, 4)  # (3, b, h, s, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = q.matmul(k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))  # (b, h, s, s)
        if attention_mask is not None:
            bias = np.where(attention_mask[:, None, None, :], 0.0, -1e9).astype(np.float32)
            scores = scores + Tensor(bias)
        attn = F.softmax(scores, axis=-1)
        attn = self.drop(attn)
        ctx = attn.matmul(v)  # (b, h, s, hd)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, s, d)
        return self.out(ctx)
