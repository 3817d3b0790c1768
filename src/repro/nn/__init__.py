"""Neural-network building blocks on top of :mod:`repro.tensor`.

Mirrors the subset of ``torch.nn`` needed by the paper's case-study
models (LeNet-5, ResNet, BERT) while staying pure NumPy.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    Linear,
    Conv2d,
    MaxPool2d,
    AvgPool2d,
    BatchNorm2d,
    LayerNorm,
    Embedding,
    Dropout,
    ReLU,
    GELU,
    Tanh,
    Flatten,
    Identity,
    MultiHeadAttention,
    rank_order_hazard,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "ReLU",
    "GELU",
    "Tanh",
    "Flatten",
    "Identity",
    "MultiHeadAttention",
    "rank_order_hazard",
    "CrossEntropyLoss",
    "MSELoss",
    "init",
]
