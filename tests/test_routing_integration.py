"""Routing behaviour at the network level: adaptivity, torus, saturation."""

from repro.network.simulator import Simulator
from repro.traffic.trace import TraceReplaySource

from .conftest import ejected_packets, small_config


def run_with_trace(config, trace, cycles):
    simulator = Simulator(config)
    simulator.traffic = TraceReplaySource(simulator.topology, config.workload, trace)
    simulator.begin_measurement()
    simulator.run_cycles(cycles)
    simulator.traffic = TraceReplaySource(simulator.topology, config.workload, [])
    simulator.drain(max_cycles=200_000)
    return simulator


def transpose_trace(radix, rate_per_node, cycles):
    """A transpose permutation injected at a fixed per-node rate."""
    import random

    rng = random.Random(5)
    trace = []
    nodes = radix * radix
    for now in range(cycles):
        for node in range(nodes):
            x, y = node % radix, node // radix
            dst = x * radix + y
            if dst != node and rng.random() < rate_per_node:
                trace.append((now, node, dst))
    return trace


class TestAdaptiveVsDeterministic:
    def test_adaptive_helps_on_transpose(self):
        """Transpose concentrates DOR traffic on few turns; minimal
        adaptive routing spreads it and cuts latency at equal load."""
        radix = 4
        trace = transpose_trace(radix, rate_per_node=0.035, cycles=3_000)
        latencies = {}
        for routing in ("dor", "adaptive"):
            config = small_config(radix=radix, routing=routing, rate=0.001)
            simulator = run_with_trace(config, list(trace), 3_000)
            latencies[routing] = simulator.meter.latency.stats().mean
        assert latencies["adaptive"] <= latencies["dor"] * 1.05

    def test_both_deliver_everything(self):
        radix = 4
        trace = transpose_trace(radix, rate_per_node=0.03, cycles=2_000)
        for routing in ("dor", "adaptive"):
            config = small_config(radix=radix, routing=routing, rate=0.001)
            simulator = run_with_trace(config, list(trace), 2_000)
            assert ejected_packets(simulator) == len(trace)


class TestTorusVsMesh:
    def test_torus_cuts_corner_to_corner_latency(self):
        """Wraparound halves the worst-case path, visible in latency."""
        corner_trace = [(i * 40, 0, 15) for i in range(30)]  # (0,0)->(3,3)
        mesh = run_with_trace(
            small_config(radix=4, rate=0.001), list(corner_trace), 1_500
        )
        torus = run_with_trace(
            small_config(radix=4, wraparound=True, rate=0.001),
            list(corner_trace),
            1_500,
        )
        # Mesh distance 6 hops; torus distance 2 hops.
        assert torus.meter.latency.stats().mean < mesh.meter.latency.stats().mean


class TestSaturationBehaviour:
    def test_latency_monotone_in_offered_load(self):
        means = []
        for rate in (0.1, 0.8, 2.5):
            config = small_config(rate=rate, warmup=500, measure=3_000)
            result = Simulator(config).run()
            means.append(result.latency.mean)
        assert means[0] < means[2]

    def test_accepted_rate_saturates(self):
        accepted = []
        for rate in (0.5, 4.0, 8.0):
            config = small_config(rate=rate, warmup=500, measure=3_000)
            result = Simulator(config).run()
            accepted.append(result.accepted_rate)
        # Offered 4 -> 8 must not double accepted throughput (saturation).
        assert accepted[2] < accepted[1] * 1.7
        assert accepted[1] > accepted[0]
