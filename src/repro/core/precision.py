"""Low-precision support (paper Section 4.4.1).

:class:`DynamicScaler` is the dynamic loss/tensor scaling policy of the
Horovod implementation: keep a scale factor that grows while values
stay finite and backs off on overflow (NaN/Inf), applied to the tensors
Adasum introduces such as the effective gradient of Figure 3.  The fp16
wire cast itself is the ``"fp16"`` stage of the codec stack
(:class:`repro.comm.codec.Fp16Codec`), which consults this scaler; the
Adasum dot products and norms still accumulate in float64 (see
:func:`repro.core.operator.adasum_scale_factors`), the property the
paper calls "crucial for the improved convergence".
"""

from __future__ import annotations


class DynamicScaler:
    """Dynamic scaling à la mixed-precision training (Micikevicius 2017).

    ``scale_value`` multiplies tensors up into fp16's dynamic range;
    ``update(found_overflow)`` implements the standard policy: on
    overflow halve the scale and skip the step, otherwise double it
    every ``growth_interval`` clean steps.
    """

    def __init__(
        self,
        init_scale: float = 2.0 ** 10,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 100,
        max_scale: float = 2.0 ** 24,
    ):
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        self.scale_value = float(init_scale)
        self.growth_factor = growth_factor
        self.backoff_factor = backoff_factor
        self.growth_interval = growth_interval
        self.max_scale = max_scale
        self._clean_steps = 0
        self.overflow_count = 0

    def state_dict(self) -> dict:
        """The mutable scaling state (JSON-serializable)."""
        return {
            "scale_value": self.scale_value,
            "clean_steps": self._clean_steps,
            "overflow_count": self.overflow_count,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` copy in place."""
        self.scale_value = float(state["scale_value"])
        self._clean_steps = int(state["clean_steps"])
        self.overflow_count = int(state["overflow_count"])

    def update(self, found_overflow: bool) -> bool:
        """Adjust the scale; returns True if the step should be skipped."""
        if found_overflow:
            self.scale_value = max(self.scale_value * self.backoff_factor, 1.0)
            self._clean_steps = 0
            self.overflow_count += 1
            return True
        self._clean_steps += 1
        if self._clean_steps >= self.growth_interval:
            self.scale_value = min(self.scale_value * self.growth_factor, self.max_scale)
            self._clean_steps = 0
        return False
