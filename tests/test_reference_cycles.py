"""A finished simulation is freed by reference counting alone.

Routers write the kernel's containers (calendar ring, counters, pools, the
bus's ejection hooks) instead of holding callbacks into their engine, so
nothing inside a simulation refers back to it: dropping the last reference
frees every kernel object at once, without waiting for the cyclic garbage
collector. Sanitized runs are not covered: the sanitizer holds its engine
by design.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.registry import registered_policies
from repro.instrument.trace import TraceRecorder
from repro.network.simulator import Simulator

from .conftest import small_config


@pytest.fixture
def cyclic_gc_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
@pytest.mark.parametrize("policy", registered_policies())
def test_a_finished_simulation_is_freed_by_reference_counting(
    policy, routing, cyclic_gc_off
):
    config = small_config(
        policy=policy, routing=routing, rate=0.3, warmup=200, measure=800
    )
    simulator = Simulator(config, series_window=100)
    simulator.attach_probe(0, simulator.topology.plus_port(0))
    recorder = simulator.bus.attach(TraceRecorder())
    result = simulator.run()
    ref = weakref.ref(simulator)
    del simulator
    assert ref() is None, "the simulation is kept alive by a reference cycle"
    assert result.ejected_packets > 0
    assert recorder.records
