"""Thin construction/run helpers around the simulator.

This is the single-simulation primitive the execution backends
(:mod:`repro.harness.backends`) map over, and the place where extra
instrumentation observers get attached to the simulator's bus before the
run starts.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from ..config import SimulationConfig
from ..instrument.bus import Observer
from ..network.simulator import SimulationResult, Simulator

#: Environment switch for the network sanitizer; any value other than
#: ``""``/"0"/"off"/"false"/"no" enables it. Read per run (not at import)
#: so sweep worker processes — which inherit the environment — honor it.
SANITIZE_ENV = "REPRO_SANITIZE"


def _sanitize_from_env() -> bool:
    return os.environ.get(SANITIZE_ENV, "").strip().lower() not in (
        "",
        "0",
        "off",
        "false",
        "no",
    )


def build_simulator(
    config: SimulationConfig,
    *,
    observers: Iterable[Observer] = (),
    sanitize: Optional[bool] = None,
) -> Simulator:
    """Construct a fully wired simulator for *config*.

    Any *observers* are attached to the simulator's instrumentation bus
    (e.g. a :class:`~repro.instrument.trace.TraceRecorder`). *sanitize*
    attaches the :class:`~repro.analysis.sanitizer.NetworkSanitizer`
    family; None (the default) defers to the ``REPRO_SANITIZE``
    environment variable.
    """
    if sanitize is None:
        sanitize = _sanitize_from_env()
    simulator = Simulator(config, sanitize=sanitize)
    for observer in observers:
        simulator.bus.attach(observer)
    return simulator


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Build, warm up, measure, and summarize one simulation."""
    return build_simulator(config).run()
