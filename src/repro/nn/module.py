"""Module/Parameter system: named parameters, train/eval mode, state dicts.

The distributed machinery of the paper operates *per layer* (Section
3.6: per-layer Adasum; Section 4.3: layer-aligned partitioning), so the
module system exposes stable, ordered ``named_parameters`` that all
reduction code keys on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; always requires grad."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` in deterministic order."""
        for name, p in self._parameters.items():
            yield (prefix + name, p)
        for mname, mod in self._modules.items():
            yield from mod.named_parameters(prefix + mname + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (prefix + name, getattr(self, name))
        for mname, mod in self._modules.items():
            yield from mod.named_buffers(prefix + mname + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode switches
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # Grad-ready hooks (overlap scheduling)
    # ------------------------------------------------------------------
    def register_grad_ready_hook(self, fn) -> None:
        """Fire ``fn(name, param)`` when a parameter's gradient is complete.

        ``backward`` counts the contributions each parameter will receive
        (weight-tied parameters receive several) and invokes the hook on
        the one that completes the gradient, so a scheduler can start
        reducing a layer while the rest of backprop is still running.
        One hook per parameter: registering again replaces the previous
        hook; ``clear_grad_ready_hooks`` removes them.
        """
        for name, p in self.named_parameters():
            p._grad_hook = (lambda t, _n=name: fn(_n, t))

    def clear_grad_ready_hooks(self) -> None:
        """Remove grad-ready hooks from every parameter."""
        for _, p in self.named_parameters():
            p._grad_hook = None

    # ------------------------------------------------------------------
    # State serialization (used to clone replicas across simulated ranks)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters and buffers keyed by qualified name."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state["buffer:" + name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters/buffers in place from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for key, value in state.items():
            if key.startswith("buffer:"):
                buf = buffers[key[len("buffer:"):]]
                np.copyto(buf, value)
            else:
                np.copyto(params[key].data, value)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
