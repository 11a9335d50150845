"""The measurement-phase facade over the cycle kernel.

:class:`Simulator` is the Python counterpart of the paper's C++ simulator
(Section 4.1): warm up, measure, summarize. Since the kernel split it is a
thin facade — the simulated hardware (topology, routers, DVS channels,
controllers, traffic, the event loop) lives in
:class:`~repro.network.engine.SimulationEngine`. Power is read straight
from the channels by a :class:`~repro.power.accounting.PowerAccountant`
(it integrates energy lazily, so it needs no hook), and every other
measured quantity is an observer on the engine's
:class:`~repro.instrument.bus.InstrumentBus`:

* a :class:`~repro.instrument.observers.MeasurementMeter` for offered /
  ejected counts and packet latencies,
* an optional :class:`~repro.instrument.observers.SeriesObserver` when a
  ``series_window`` is requested,
* each :class:`~repro.metrics.utilization.UtilizationProbe` added
  through :meth:`Simulator.attach_probe`.

Extra observers (e.g. a
:class:`~repro.instrument.trace.TraceRecorder`) attach through
``simulator.bus`` without touching either layer. The facade preserves the
pre-split public surface — ``simulator.latency``, ``.accountant``,
``.series``, ``.total_ejected_packets`` and friends keep working — and its
results are bit-identical to the monolithic simulator for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimulationConfig
from ..errors import ConfigError, SimulationError
from ..instrument.bus import InstrumentBus
from ..instrument.observers import MeasurementMeter, SeriesObserver
from ..metrics.latency import LatencyCollector, LatencyStats
from ..metrics.timeseries import WindowedSeries
from ..metrics.utilization import UtilizationProbe
from ..power.accounting import PowerAccountant, PowerReport
from .engine import SimulationEngine


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Everything a harness needs from one simulation run.

    Rates are network-wide packets per router cycle, measured over the
    measurement phase only.
    """

    config: SimulationConfig
    measure_cycles: int
    offered_packets: int
    ejected_packets: int
    offered_rate: float
    accepted_rate: float
    latency: LatencyStats
    power: PowerReport
    mean_level: float
    requests_dropped: int
    series: dict[str, WindowedSeries] = field(default_factory=dict)


class Simulator(SimulationEngine):
    """One fully wired network simulation with the standard measurement stack."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        traffic=None,
        series_window: int = 0,
        bus: InstrumentBus | None = None,
        fast_forward: bool = True,
        sanitize: bool = False,
    ):
        if series_window < 0:
            raise ConfigError("series window cannot be negative")
        super().__init__(
            config,
            traffic=traffic,
            bus=bus,
            fast_forward=fast_forward,
            sanitize=sanitize,
        )
        self.series_window = series_window

        self.accountant = PowerAccountant(
            [channel.dvs for channel in self.channels],
            config.network.router_clock_hz,
        )
        self.probes: list[UtilizationProbe] = []

        self._meter = MeasurementMeter()
        self.bus.attach(self._meter)
        self._series_observer: SeriesObserver | None = None
        if series_window:
            self._series_observer = SeriesObserver(
                series_window,
                self.channels,
                self.accountant,
                config.network.router_clock_hz,
                self._meter,
            )
            self.bus.attach(self._series_observer)

    # ------------------------------------------------------------------
    # Legacy measurement surface (pre-split attribute names)
    # ------------------------------------------------------------------

    @property
    def latency(self) -> LatencyCollector:
        return self._meter.latency

    @property
    def total_ejected_packets(self) -> int:
        return self._meter.total_ejected

    @property
    def offered_measured(self) -> int:
        return self._meter.offered

    @property
    def ejected_measured(self) -> int:
        return self._meter.ejected

    @property
    def _measure_start(self) -> int:
        return self._meter.measure_start

    @property
    def series(self) -> dict[str, WindowedSeries]:
        if self._series_observer is None:
            return {}
        return self._series_observer.series

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------

    def attach_probe(
        self, src_node: int, src_port: int, *, window_cycles: int = 50
    ) -> UtilizationProbe:
        """Attach a Figure-3/4/5 profiling probe to one channel.

        The probe watches the channel leaving ``src_node`` through
        ``src_port`` and the downstream input port it feeds, including a
        buffer-age tap.
        """
        channel = self.routers[src_node].channels[src_port]
        if channel is None:
            raise ConfigError(f"node {src_node} has no channel on port {src_port}")
        spec = channel.spec
        downstream = self.routers[spec.dst_node]
        tracker = downstream.occupancy[spec.dst_port]
        probe = UtilizationProbe(
            channel.dvs,
            tracker,
            window_cycles=window_cycles,
            buffer_capacity=self.config.network.buffers_per_port,
        )
        downstream.age_hooks.setdefault(spec.dst_port, []).append(probe.on_age)
        self.probes.append(probe)
        self.bus.attach(probe)
        # Probe windows have always closed before the series window on
        # shared boundary cycles; keep the series observer last.
        window_hooks = self.bus.window_hooks
        if self._series_observer is not None and self._series_observer in window_hooks:
            window_hooks.remove(self._series_observer)
            window_hooks.append(self._series_observer)
        return probe

    # ------------------------------------------------------------------
    # Measurement lifecycle
    # ------------------------------------------------------------------

    def begin_measurement(self) -> None:
        """End warmup: reset collectors and start the measured phase."""
        now = self.now
        self._meter.begin(now)
        self.accountant.begin(now)
        if self._series_observer is not None:
            self._series_observer.begin(now)
        for probe in self.probes:
            probe.reset()
        self.bus.mark("measurement_begin", now)

    def run(self) -> SimulationResult:
        """Warmup, measure, and summarize per the configuration."""
        self.run_cycles(self.config.warmup_cycles)
        self.begin_measurement()
        self.run_cycles(self.config.measure_cycles)
        return self.finish()

    def finish(self) -> SimulationResult:
        """Summarize the measurement phase ending now."""
        now = self.now
        meter = self._meter
        if not meter.measuring:
            raise SimulationError("finish() before begin_measurement()")
        measure_cycles = now - meter.measure_start
        if measure_cycles <= 0:
            raise SimulationError("measurement phase is empty")
        self.catch_up_controllers()
        power = self.accountant.report(now)
        self.bus.mark("measurement_end", now)
        return SimulationResult(
            config=self.config,
            measure_cycles=measure_cycles,
            offered_packets=meter.offered,
            ejected_packets=meter.ejected,
            offered_rate=meter.offered / measure_cycles,
            accepted_rate=meter.ejected / measure_cycles,
            latency=meter.latency.stats(),
            power=power,
            mean_level=self.accountant.mean_level(),
            requests_dropped=sum(c.requests_dropped for c in self.controllers),
            series=dict(self.series),
        )
