"""Module/Parameter system: named parameters, train/eval mode, state dicts.

The distributed machinery of the paper operates *per layer* (Section
3.6: per-layer Adasum; Section 4.3: layer-aligned partitioning), so the
module system exposes stable, ordered ``named_parameters`` that all
reduction code keys on.

Every walk (``named_parameters``, ``parameters``, ``named_buffers``,
``modules``, ``zero_grad``, the grad-ready hooks) iterates a flattened
tuple each module keeps until the structure of *any* module changes.
The structure changes only at the three registration points —
:meth:`Module.__setattr__` of a :class:`Parameter` or :class:`Module`,
:meth:`Module.register_buffer` and :meth:`Sequential.__init__` — and
each replaces one process-wide epoch token, which retires every cache
at once: a child cannot tell its parents that it changed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import Tensor

#: The structure epoch: a fresh token each time any module registers a
#: parameter, a child module or a buffer.  A cache is valid while it
#: holds the current token; tokens are compared by identity, so a cache
#: pickled into another process or deep-copied never matches.
_epoch = object()


def _structure_changed() -> None:
    global _epoch
    _epoch = object()


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
        object.__setattr__(self, "_flat_cache", None)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            value.name = name
            _structure_changed()
        elif isinstance(value, Module):
            self._modules[name] = value
            _structure_changed()
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)
        _structure_changed()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _flat(self) -> "_Flat":
        """This module's tree, flattened: rebuilt by one recursive walk
        the first time it is asked for in a new structure epoch."""
        flat = self._flat_cache
        if flat is None or flat.epoch is not _epoch:
            flat = _Flat(self)
            object.__setattr__(self, "_flat_cache", flat)
        return flat

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` in deterministic order."""
        named = self._flat().named_parameters
        if not prefix:
            return iter(named)
        return ((prefix + name, p) for name, p in named)

    def parameters(self) -> List[Parameter]:
        return list(self._flat().parameters)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        # The attribute's current object: a buffer may be reassigned.
        for name, mod, attr in self._flat().buffers:
            yield (prefix + name, getattr(self if mod is None else mod, attr))

    def modules(self) -> Iterator["Module"]:
        yield self
        yield from self._flat().descendants

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
        for p in self._flat().parameters:
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
        for name, p in self._flat().named_parameters:
            p._grad_hook = (lambda t, _n=name: fn(_n, t))

    def clear_grad_ready_hooks(self) -> None:
        """Remove grad-ready hooks from every parameter."""
        for p in self._flat().parameters:
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
        _structure_changed()

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class _Flat:
    """One recursive walk of a module tree, in registration order:
    ``(qualified_name, parameter)`` pairs, the parameters alone,
    ``(qualified_name, owner, attribute)`` per buffer and the modules
    below the root (pre-order).  The root itself is never referenced
    (its buffers' owner is ``None``), so the cache it keeps makes no
    reference cycle and a dropped model is freed by refcount.  Shared
    modules and tied parameters appear once per place they are
    registered, as the walk meets them."""

    __slots__ = ("epoch", "named_parameters", "parameters", "buffers", "descendants")

    def __init__(self, root: Module):
        self.epoch = _epoch
        named: List[Tuple[str, Parameter]] = []
        buffers: List[Tuple[str, Optional[Module], str]] = []
        modules: List[Module] = []
        # Pre-order with an explicit stack: a recursive closure would be
        # a reference cycle holding ``root``.
        stack: List[Tuple[Module, str]] = [(root, "")]
        while stack:
            mod, prefix = stack.pop()
            owner = None if mod is root else mod
            named.extend((prefix + n, p) for n, p in mod._parameters.items())
            buffers.extend((prefix + n, owner, n) for n in mod._buffers)
            children = [(child, prefix + n + ".") for n, child in mod._modules.items()]
            stack.extend(reversed(children))
            if owner is not None:
                modules.append(mod)
        self.named_parameters = tuple(named)
        self.parameters = tuple(p for _, p in named)
        self.buffers = tuple(buffers)
        self.descendants = tuple(modules)
