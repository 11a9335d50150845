"""Standard observers: the paper's measurement stack, ported to the bus.

Each class here adapts one of the long-standing collectors
(:class:`~repro.metrics.latency.LatencyCollector`,
:class:`~repro.metrics.timeseries.WindowedSeries`) to the
:class:`~repro.instrument.bus.Observer` protocol, so the cycle kernel
stays measurement-free and new observables can ride the same seam. A
:class:`~repro.metrics.utilization.UtilizationProbe` is an observer
itself. The :class:`~repro.power.accounting.PowerAccountant` needs no
observer: it integrates energy lazily from the channels and counts
transitions from their own counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..metrics.latency import LatencyCollector
from ..metrics.timeseries import WindowedSeries
from ..power.accounting import PowerAccountant
from .bus import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.channel import NetworkChannel
    from ..network.packet import Packet


class MeasurementMeter(Observer):
    """Offered/ejected counts and packet latencies for the measured phase.

    Counts every ejected packet from cycle 0 (``total_ejected``); once
    :meth:`begin` marks the start of the measurement phase it also counts
    offered and ejected packets and records the latency of packets
    *created* inside the phase, per the paper's methodology.
    """

    __slots__ = ("latency", "measuring", "measure_start", "offered", "ejected",
                 "total_ejected")

    def __init__(self, latency: LatencyCollector | None = None) -> None:
        self.latency = latency if latency is not None else LatencyCollector()
        self.measuring = False
        self.measure_start = 0
        self.offered = 0
        self.ejected = 0
        self.total_ejected = 0

    def begin(self, now: int) -> None:
        """Start (or restart) the measured phase at cycle *now*."""
        self.measuring = True
        self.measure_start = now
        self.latency.reset()
        self.offered = 0
        self.ejected = 0

    def on_packet_offered(self, packet: Packet, now: int) -> None:
        if self.measuring:
            self.offered += 1

    def on_packet_ejected(self, packet: Packet, now: int) -> None:
        self.total_ejected += 1
        if self.measuring:
            self.ejected += 1
            if packet.created_cycle >= self.measure_start:
                self.latency.record(packet.latency)


class SeriesObserver(Observer):
    """Windowed network-wide time series (Figures 9 and 12 support).

    Maintains the four standard series — ``offered_rate``,
    ``accepted_rate``, ``power_w``, ``mean_level`` — one sample per
    ``window_cycles``. Offered/ejected tallies follow the meter's
    measurement gate, matching the historical simulator behaviour.
    """

    __slots__ = ("window_cycles", "series", "_meter", "_channels", "_accountant",
                 "_router_clock_hz", "_offered", "_ejected", "_last_energy")

    def __init__(
        self,
        window_cycles: int,
        channels: Sequence[NetworkChannel],
        accountant: PowerAccountant,
        router_clock_hz: float,
        meter: MeasurementMeter,
    ) -> None:
        self.window_cycles = window_cycles
        self.series: dict[str, WindowedSeries] = {
            name: WindowedSeries(window_cycles)
            for name in ("offered_rate", "accepted_rate", "power_w", "mean_level")
        }
        self._meter = meter
        self._channels = channels
        self._accountant = accountant
        self._router_clock_hz = router_clock_hz
        self._offered = 0
        self._ejected = 0
        self._last_energy = 0.0

    def _total_energy(self, now: int) -> float:
        total = 0.0
        for channel in self._channels:
            channel.dvs.finalize(now)
            total += channel.dvs.total_energy_j
        return total

    def begin(self, now: int) -> None:
        """Reset window tallies at the start of the measured phase."""
        self._offered = 0
        self._ejected = 0
        self._last_energy = self._total_energy(now)

    def on_packet_offered(self, packet: Packet, now: int) -> None:
        if self._meter.measuring:
            self._offered += 1

    def on_packet_ejected(self, packet: Packet, now: int) -> None:
        if self._meter.measuring:
            self._ejected += 1

    def on_window_close(self, now: int) -> None:
        window = self.window_cycles
        self.series["offered_rate"].append(self._offered / window)
        self.series["accepted_rate"].append(self._ejected / window)
        energy = self._total_energy(now)
        window_s = window / self._router_clock_hz
        self.series["power_w"].append((energy - self._last_energy) / window_s)
        self.series["mean_level"].append(self._accountant.mean_level())
        self._last_energy = energy
        self._offered = 0
        self._ejected = 0

