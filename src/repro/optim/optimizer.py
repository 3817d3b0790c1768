"""Optimizer base class.

State is kept in a dict keyed by the *parameter's position*, so replicas
of the same model on different simulated ranks have identical state
layout — a requirement for the optimizer-state partitioning of Section
4.3 of the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

import numpy as np

from repro.nn.module import Parameter
from repro.optim.lr_schedules import ConstantLR, LRSchedule


class Optimizer:
    """Base optimizer over a list of parameters.

    Parameters
    ----------
    params:
        Parameters to optimize (ordered; order defines state keys).
    lr:
        Either a float (wrapped in :class:`ConstantLR`) or an
        :class:`LRSchedule` evaluated at each step.
    """

    def __init__(self, params: Iterable[Parameter], lr: Union[float, LRSchedule]):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr_schedule: LRSchedule = ConstantLR(lr) if isinstance(lr, (int, float)) else lr
        self.state: Dict[int, Dict[str, np.ndarray]] = {}
        self.step_count: int = 0

    @property
    def lr(self) -> float:
        """Learning rate that the *next* step will use."""
        return self.lr_schedule(self.step_count)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_for(self, index: int) -> Dict[str, np.ndarray]:
        """Mutable state dict for parameter ``index`` (created on demand)."""
        if index not in self.state:
            self.state[index] = {}
        return self.state[index]

    def step(self) -> None:
        """Apply one update using the current ``param.grad`` values."""
        lr = self.lr_schedule(self.step_count)
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._update_param(i, p, np.asarray(p.grad), lr)
        self.step_count += 1

    def step_subset(self, indices: Iterable[int], advance: bool = True) -> None:
        """Apply the update only to the given parameter indices.

        Used by the optimizer-state partitioning of Section 4.3, where
        each local GPU updates only the layers in its partition.
        ``advance=False`` leaves ``step_count`` untouched so multiple
        partitions can share one logical step.
        """
        lr = self.lr_schedule(self.step_count)
        for i in indices:
            p = self.params[i]
            if p.grad is None:
                continue
            self._update_param(i, p, np.asarray(p.grad), lr)
        if advance:
            self.step_count += 1

    def _update_param(self, index: int, p: Parameter, grad: np.ndarray, lr: float) -> None:
        raise NotImplementedError

    def state_nbytes(self) -> int:
        """Total bytes of optimizer state (used by the §4.3 memory model)."""
        return sum(
            arr.nbytes for st in self.state.values() for arr in st.values()
        )
