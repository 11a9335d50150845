"""A finished simulation is freed by reference counting alone.

Routers write the kernel's containers (calendar ring, counters, pools, the
bus's ejection hooks) instead of holding callbacks into their engine, and
the traffic sources keep plain tuples in their heaps, so nothing inside a
simulation refers back to it: dropping the last reference frees every
kernel object at once, without waiting for the cyclic garbage collector.
Each case checks both that the simulator itself is gone and that the
collector then finds nothing, which also catches a cycle that lives
wholly inside one component, such as an ON/OFF source set. Sanitized
runs are not covered: the sanitizer holds its engine by design.
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
    gc.collect()  # start from a heap with no garbage left by other tests
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_and_drop(config):
    """Run *config* with a probe and a trace recorder, drop the simulator,
    and check that reference counting alone freed all of it."""
    simulator = Simulator(config, series_window=100)
    simulator.attach_probe(0, simulator.topology.plus_port(0))
    recorder = simulator.bus.attach(TraceRecorder())
    result = simulator.run()
    ref = weakref.ref(simulator)
    del simulator
    assert ref() is None, "the simulation is kept alive by a reference cycle"
    assert gc.collect() == 0, "the simulation left cyclic garbage behind"
    assert result.ejected_packets > 0
    assert recorder.records
    return result


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
@pytest.mark.parametrize("policy", registered_policies())
def test_a_finished_simulation_is_freed_by_reference_counting(
    policy, routing, cyclic_gc_off
):
    run_and_drop(
        small_config(policy=policy, routing=routing, rate=0.3, warmup=200,
                     measure=800)
    )


@pytest.mark.parametrize("routing", ["dor", "adaptive"])
@pytest.mark.parametrize("policy", registered_policies())
def test_a_finished_two_level_simulation_is_acyclic(
    policy, routing, cyclic_gc_off
):
    """Task sessions at a high per-task rate: 45 of the 50 primed
    sessions run their ON/OFF sources in renewal mode."""
    config = small_config(
        policy=policy, routing=routing, workload_kind="two_level", rate=7.0,
        average_tasks=50, warmup=200, measure=800,
    )
    run_and_drop(config)
