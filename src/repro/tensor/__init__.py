"""Reverse-mode automatic differentiation on NumPy arrays.

This package provides the minimal-but-complete autograd engine that the
rest of the reproduction is built on.  It deliberately mirrors the parts
of the PyTorch tensor API that the Adasum paper's training code relies
on (``backward``, ``detach``, ``no_grad``, elementwise ops, ``matmul``,
convolution and normalization primitives) while staying pure NumPy.

Public API
----------
``Tensor``
    The differentiable array type.
``tensor(data, requires_grad=False)``
    Convenience constructor.
``no_grad()``
    Context manager disabling graph construction.
``rank_blocks(R)``
    Context manager computing ``R`` stacked rank blocks in one pass,
    with one parameter-gradient row per block (``RankBlocksError`` when
    an op cannot keep them apart).
``functional``
    Higher-level differentiable functions (conv2d, softmax, ...).
``gradcheck``
    Numerical gradient checking used throughout the test-suite.
"""

from repro.tensor.tensor import (
    RankBlocksError,
    Tensor,
    is_grad_enabled,
    no_grad,
    rank_blocks,
    tensor,
)
from repro.tensor import functional
from repro.tensor.functional import (
    clear_kernel_caches,
    kernel_cache_stats,
    kernel_specialization_enabled,
    pin_blas_threads,
    reset_process_state,
    set_kernel_specialization,
    tune_allocator,
)
from repro.tensor.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "rank_blocks",
    "RankBlocksError",
    "functional",
    "clear_kernel_caches",
    "kernel_cache_stats",
    "kernel_specialization_enabled",
    "pin_blas_threads",
    "reset_process_state",
    "set_kernel_specialization",
    "tune_allocator",
    "gradcheck",
    "numerical_gradient",
]
