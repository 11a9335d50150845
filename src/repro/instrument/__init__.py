"""Pluggable instrumentation for the cycle kernel.

The simulation stack is split into three layers (see
``docs/architecture.md``): the pure cycle kernel
(:class:`~repro.network.engine.SimulationEngine`), this instrumentation
bus, and the harness's execution backends. Everything measurable —
latency, power, time series, utilization profiles, event traces — is an
:class:`Observer` attached to an :class:`InstrumentBus`; the kernel never
learns what is being measured.
"""

from .bus import InstrumentBus, Observer, TransitionEvent
from .observers import MeasurementMeter, SeriesObserver
from .trace import TraceRecorder

__all__ = [
    "InstrumentBus",
    "Observer",
    "TransitionEvent",
    "MeasurementMeter",
    "SeriesObserver",
    "TraceRecorder",
]
