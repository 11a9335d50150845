"""Drain-progress accounting overhead (outstanding-event counters).

``drain()`` and conservation tests poll :meth:`flits_in_network` and the
drain predicate every cycle. Before the kernel split those polls walked
every pending event bucket — O(all buckets) per call, and the bucket map
holds thousands of future arrivals/credits under load. The kernel now
maintains outstanding-event counters updated at schedule/dispatch, so
both checks are O(routers).

Measured on the pre-refactor monolith at this exact load point (8x8
mesh, uniform 0.6, ~1.6k pending events): 10,000 ``flits_in_network()``
calls took 0.482 s (~48 us each) and 10,000 transport-event scans took
0.074 s. The counter-based equivalents below run the same 10,000 calls
in ~0.016 s / ~0.0004 s (~29x and ~180x faster); the benchmark asserts a
loose 10x bound so scheduler noise cannot flake it.
"""

from repro.analysis.sanitizer import NetworkSanitizer
from repro.config import NetworkConfig, SimulationConfig, WorkloadConfig
from repro.network.simulator import Simulator

from .common import run_once

CALLS = 10_000


def loaded_simulator() -> Simulator:
    """An 8x8 mesh warmed to steady state with plenty of in-flight events."""
    config = SimulationConfig(
        network=NetworkConfig(radix=8, dimensions=2),
        workload=WorkloadConfig(kind="uniform", injection_rate=0.6, seed=11),
        warmup_cycles=0,
        measure_cycles=1_000,
    )
    simulator = Simulator(config)
    simulator.run_cycles(1_000)
    return simulator


def test_flits_in_network_is_counter_based(benchmark):
    simulator = loaded_simulator()
    pending = sum(1 for _ in simulator.iter_scheduled_events())
    # The load point only makes sense with a busy event map.
    assert pending > 500

    def poll():
        total = 0
        for _ in range(CALLS):
            total += simulator.flits_in_network()
        return total

    total = run_once(benchmark, poll)
    assert total == CALLS * simulator.flits_in_network()
    # Counters must agree with a full bucket walk (the sanitizer's
    # event-counters rule re-derives them).
    assert NetworkSanitizer(simulator, raise_on_violation=False).check_now() == []
    # 10k calls took 0.482 s on the bucket-walking monolith; allow 10x
    # headroom over the measured 0.017 s counter time.
    assert benchmark.stats["mean"] < 0.482 / 10


def test_drain_predicate_is_constant_time(benchmark):
    simulator = loaded_simulator()

    def poll():
        busy = 0
        for _ in range(CALLS):
            busy += simulator._pending_transport > 0
        return busy

    busy = run_once(benchmark, poll)
    assert busy == CALLS  # network is loaded, so always busy
    assert benchmark.stats["mean"] < 0.074
