"""LU / BU / BA profiling probes (Figures 3, 4 and 5).

A :class:`UtilizationProbe` watches one channel and the input port it
feeds, sampling link utilization and input-buffer utilization every
``window_cycles`` (the paper profiles with H=50) and collecting the buffer
ages of departing flits. It reads the same cumulative counters the DVS
controller uses, so it can coexist with (or replace) a controller on the
same channel without interference. The probe is itself an instrument-bus
observer: attached to a simulator's bus, it closes a window every
``window_cycles``.
"""

from __future__ import annotations

from ..core.dvs_link import DVSChannel
from ..errors import ConfigError
from ..instrument.bus import Observer
from ..network.flowcontrol import OccupancyTracker
from .histogram import Histogram


class UtilizationProbe(Observer):
    """Windowed LU/BU sampler plus a buffer-age tap for one channel."""

    __slots__ = (
        "channel",
        "tracker",
        "window_cycles",
        "buffer_capacity",
        "lu_samples",
        "bu_samples",
        "ages",
        "_last_busy",
        "_last_integral",
    )

    def __init__(
        self,
        channel: DVSChannel,
        tracker: OccupancyTracker,
        *,
        window_cycles: int = 50,
        buffer_capacity: int = 128,
    ):
        if window_cycles <= 0:
            raise ConfigError("probe window must be positive")
        if buffer_capacity <= 0:
            raise ConfigError("buffer capacity must be positive")
        self.channel = channel
        self.tracker = tracker
        self.window_cycles = window_cycles
        self.buffer_capacity = buffer_capacity
        self.lu_samples: list[float] = []
        self.bu_samples: list[float] = []
        self.ages: list[int] = []
        self._last_busy = 0.0
        self._last_integral = 0.0

    def on_age(self, age: int) -> None:
        """Router age hook: a flit of this port departed after *age* cycles."""
        self.ages.append(age)

    def on_window_close(self, now: int) -> None:
        """Record this window's LU and BU samples."""
        busy_total = self.channel.busy_cycles_total
        busy = busy_total - self._last_busy
        self._last_busy = busy_total
        self.lu_samples.append(min(1.0, busy / self.window_cycles))

        integral_total = self.tracker.cumulative_integral(now)
        integral = integral_total - self._last_integral
        self._last_integral = integral_total
        self.bu_samples.append(
            min(1.0, integral / (self.window_cycles * self.buffer_capacity))
        )

    def reset(self) -> None:
        """Drop collected samples (counters stay aligned)."""
        self.lu_samples.clear()
        self.bu_samples.clear()
        self.ages.clear()

    # -- summaries -------------------------------------------------------

    def lu_histogram(self, bins: int = 10) -> Histogram:
        histogram = Histogram(bins)
        for sample in self.lu_samples:
            histogram.add(sample)
        return histogram

    def bu_histogram(self, bins: int = 10) -> Histogram:
        histogram = Histogram(bins)
        for sample in self.bu_samples:
            histogram.add(sample)
        return histogram

    def age_histogram(self, bins: int = 10, max_age: int = 200) -> Histogram:
        histogram = Histogram(bins, low=0.0, high=float(max_age))
        for age in self.ages:
            histogram.add(float(age))
        return histogram

    def mean_lu(self) -> float:
        return sum(self.lu_samples) / len(self.lu_samples) if self.lu_samples else 0.0

    def mean_bu(self) -> float:
        return sum(self.bu_samples) / len(self.bu_samples) if self.bu_samples else 0.0

    def mean_age(self) -> float:
        return sum(self.ages) / len(self.ages) if self.ages else 0.0
