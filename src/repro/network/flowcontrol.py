"""Credit-based flow control bookkeeping.

Two pieces of state live here; the router owns every rule that changes
them:

* :class:`CreditState` — the upstream side's per-output-port credit
  counters and output-VC free flags. A credit is consumed when a flit is
  launched and returned when that flit later departs the downstream buffer;
  the free flag of a downstream VC is cleared at VC allocation and set when
  the packet's tail flit is launched.
* :class:`OccupancyTracker` — the downstream side's input-port occupancy
  integral. Because credit counters mirror downstream occupancy exactly,
  the paper's DVS controller gets input-buffer utilization (Eq. (3)) "for
  free"; we integrate occupancy over time event-wise (occupancy x cycles)
  instead of sampling every cycle, which is exact and much cheaper. The
  router advances ``occupied`` and the integral inline wherever a flit
  enters or leaves the port's buffers.
"""

from __future__ import annotations

from ..errors import ConfigError, FlowControlError


class CreditState:
    """Upstream credit counters for one output port."""

    __slots__ = ("credits", "vc_free", "capacity_per_vc")

    def __init__(self, vcs: int, capacity_per_vc: int):
        if vcs < 1 or capacity_per_vc < 1:
            raise ConfigError("need >= 1 VC and >= 1 slot per VC")
        self.capacity_per_vc = capacity_per_vc
        self.credits = [capacity_per_vc] * vcs
        self.vc_free = [True] * vcs


class OccupancyTracker:
    """Event-wise time integral of one input port's buffer occupancy.

    The integral is **cumulative** so that any number of independent
    consumers (the upstream DVS controller, a Figure-4 profiling probe...)
    can each difference it against their own last reading.
    """

    __slots__ = ("occupied", "_integral", "_last_cycle")

    def __init__(self):
        self.occupied = 0
        self._integral = 0.0
        self._last_cycle = 0

    def _advance(self, now: int) -> None:
        if now < self._last_cycle:
            raise FlowControlError(
                f"occupancy time ran backwards: {now} < {self._last_cycle}"
            )
        if now > self._last_cycle:
            self._integral += self.occupied * (now - self._last_cycle)
            self._last_cycle = now

    def cumulative_integral(self, now: int) -> float:
        """Occupied-slots x cycles accumulated from cycle 0 through *now*."""
        self._advance(now)
        return self._integral
