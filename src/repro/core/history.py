"""Exponentially weighted average prediction (paper Section 3.2).

The per-window measurements it consumes — link utilization (Eq. (2)) and
input-buffer utilization (Eq. (3)) over a history window of ``H`` router
cycles — are computed by
:meth:`PortDVSController.close_window
<repro.core.controller.PortDVSController.close_window>` from the channel's
busy-time accumulator and the downstream port's occupancy integral.
:class:`EWMAPredictor` combines the current window with the running
prediction (Eq. (5)):

    Par_predict = (W * Par_current + Par_past) / (W + 1)

The paper fixes ``W = 3`` so hardware can evaluate this as a shift-and-add
(multiply by 3 = shift+add, divide by 4 = shift right by two); the class
checks for and exposes that property but accepts any positive weight.
"""

from __future__ import annotations

from ..errors import ConfigError


class EWMAPredictor:
    """Exponentially weighted moving average, paper Eq. (5)."""

    __slots__ = ("weight", "_predicted", "_primed")

    def __init__(self, weight: float = 3.0, initial: float = 0.0) -> None:
        if weight <= 0.0:
            raise ConfigError(f"EWMA weight must be positive, got {weight!r}")
        if not 0.0 <= initial <= 1.0:
            raise ConfigError("initial prediction must be a utilization in [0, 1]")
        self.weight = weight
        self._predicted = initial
        self._primed = False

    @property
    def predicted(self) -> float:
        """Most recent prediction (``Par_past`` for the next update)."""
        return self._predicted

    @property
    def primed(self) -> bool:
        """Whether at least one observation has been folded in."""
        return self._primed

    def update(self, current: float) -> float:
        """Fold one window's observation into the prediction and return it."""
        if current < 0.0:
            raise ConfigError(f"utilization cannot be negative, got {current!r}")
        self._predicted = (self.weight * current + self._predicted) / (
            self.weight + 1.0
        )
        self._primed = True
        return self._predicted

    def skip_idle(self, count: int) -> None:
        """Fold in *count* zero observations, as *count* ``update(0.0)``
        calls would."""
        for _ in range(count):
            # Once the prediction has decayed to 0.0 it stays there.
            if self.update(0.0) == 0.0:
                break

    @property
    def is_shift_add_friendly(self) -> bool:
        """True when ``weight + 1`` is a power of two, so the divide is a
        shift and the multiply a shift-and-add — the paper's W=3 case."""
        denom = self.weight + 1.0
        if denom != int(denom):
            return False
        denom_int = int(denom)
        return denom_int > 0 and (denom_int & (denom_int - 1)) == 0
