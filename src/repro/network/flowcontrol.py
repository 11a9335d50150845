"""Credit-based flow control bookkeeping.

Two pieces live here:

* :class:`CreditState` — the upstream side's per-output-port credit
  counters and output-VC free flags. A credit is consumed when a flit is
  launched and returned when that flit later departs the downstream buffer;
  the free flag of a downstream VC is cleared at VC allocation and set when
  the credit of the packet's tail flit returns.
* :class:`OccupancyTracker` — the downstream side's input-port occupancy
  integral. Because credit counters mirror downstream occupancy exactly,
  the paper's DVS controller gets input-buffer utilization (Eq. (3)) "for
  free"; we integrate occupancy over time event-wise (occupancy x cycles)
  instead of sampling every cycle, which is exact and much cheaper.
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

    def consume(self, vc: int) -> None:
        """Spend one credit on *vc* (a flit is being launched)."""
        if self.credits[vc] <= 0:
            raise FlowControlError(f"credit underflow on VC {vc}")
        self.credits[vc] -= 1

    def restore(self, vc: int) -> None:
        """Return one credit to *vc* (a flit left the downstream buffer)."""
        if self.credits[vc] >= self.capacity_per_vc:
            raise FlowControlError(f"credit overflow on VC {vc}")
        self.credits[vc] += 1

    def allocate_vc(self, vc: int) -> None:
        """Claim downstream VC *vc* for a packet."""
        if not self.vc_free[vc]:
            raise FlowControlError(f"VC {vc} allocated while in use")
        self.vc_free[vc] = False

    def release_vc(self, vc: int) -> None:
        """Release downstream VC *vc* (its tail flit departed downstream)."""
        if self.vc_free[vc]:
            raise FlowControlError(f"VC {vc} released while already free")
        self.vc_free[vc] = True


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

    # on_enqueue/on_dequeue run once per flit hop on the kernel's hot path;
    # both fold the :meth:`_advance` integration inline.

    def on_enqueue(self, now: int) -> None:  # repro-hot
        """A flit entered the port's buffers at *now*."""
        last = self._last_cycle
        if now != last:
            if now < last:
                raise FlowControlError(
                    f"occupancy time ran backwards: {now} < {last}"
                )
            self._integral += self.occupied * (now - last)
            self._last_cycle = now
        self.occupied += 1

    def on_dequeue(self, now: int) -> None:  # repro-hot
        """A flit left the port's buffers at *now*."""
        last = self._last_cycle
        if now != last:
            if now < last:
                raise FlowControlError(
                    f"occupancy time ran backwards: {now} < {last}"
                )
            self._integral += self.occupied * (now - last)
            self._last_cycle = now
        if self.occupied <= 0:
            raise FlowControlError("occupancy underflow")
        self.occupied -= 1

    def cumulative_integral(self, now: int) -> float:
        """Occupied-slots x cycles accumulated from cycle 0 through *now*."""
        self._advance(now)
        return self._integral
