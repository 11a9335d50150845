"""Stress and shape tests: unusual topologies, capacity limits, and
channel-bandwidth properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    DVSControlConfig,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.dvs_link import ChannelDesign, DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.network.simulator import Simulator
from repro.traffic.trace import TraceReplaySource

from .conftest import FAST_LINK, ejected_packets


def build(network, rate=0.3, policy="none", measure=2_000, **wl):
    config = SimulationConfig(
        network=network,
        link=FAST_LINK,
        dvs=DVSControlConfig(policy=policy),
        workload=WorkloadConfig(kind="uniform", injection_rate=rate, seed=2, **wl),
        warmup_cycles=200,
        measure_cycles=measure,
    )
    return Simulator(config)


class TestUnusualTopologies:
    def test_ring_delivers(self):
        network = NetworkConfig(
            radix=6, dimensions=1, wraparound=True, buffers_per_port=16
        )
        simulator = build(network, rate=0.2)
        simulator.run_cycles(2_000)
        offered = simulator.traffic.packets_offered
        simulator.traffic = TraceReplaySource(
            simulator.topology, simulator.config.workload, []
        )
        simulator.drain(max_cycles=50_000)
        assert ejected_packets(simulator) == offered

    def test_3d_cube_delivers(self):
        network = NetworkConfig(radix=3, dimensions=3, buffers_per_port=16)
        simulator = build(network, rate=0.4)
        simulator.run_cycles(2_000)
        offered = simulator.traffic.packets_offered
        simulator.traffic = TraceReplaySource(
            simulator.topology, simulator.config.workload, []
        )
        simulator.drain(max_cycles=50_000)
        assert ejected_packets(simulator) == offered

    def test_3d_cube_with_dvs(self):
        network = NetworkConfig(radix=3, dimensions=3, buffers_per_port=16)
        simulator = build(network, rate=0.05, policy="history", measure=4_000)
        result = simulator.run()
        assert result.power.normalized < 1.0

    def test_minimal_2x2_mesh(self):
        network = NetworkConfig(radix=2, dimensions=2, buffers_per_port=8)
        simulator = build(network, rate=0.2)
        result = simulator.run()
        assert result.ejected_packets > 0


class TestCapacityLimits:
    def test_single_flow_throughput_bounded_by_link(self):
        """A one-pair flow cannot exceed one flit per cycle per channel:
        0.2 packets/cycle with 5-flit packets."""
        network = NetworkConfig(radix=3, dimensions=2, buffers_per_port=16)
        trace = [(cycle, 0, 1) for cycle in range(4_000) for _ in range(2)]
        simulator = build(network, rate=0.001)
        simulator.traffic = TraceReplaySource(
            simulator.topology, simulator.config.workload, trace
        )
        simulator.begin_measurement()
        simulator.run_cycles(4_000)
        result = simulator.finish()
        assert result.accepted_rate <= 0.2 + 0.01

    def test_slow_links_cut_single_flow_throughput(self):
        """Pinning links at the bottom level divides the same flow's
        capacity by the serialization ratio (8x at level 0)."""
        network = NetworkConfig(radix=3, dimensions=2, buffers_per_port=16)
        trace = [(cycle, 0, 1) for cycle in range(4_000)]
        results = {}
        for level in (9, 0):
            config = SimulationConfig(
                network=network,
                link=FAST_LINK,
                dvs=DVSControlConfig(policy="history", initial_level=level),
                workload=WorkloadConfig(kind="uniform", injection_rate=0.001),
                warmup_cycles=0,
                measure_cycles=4_000,
            )
            simulator = Simulator(config)
            simulator.controllers = []  # pin the level: no policy actions
            simulator.traffic = TraceReplaySource(
                simulator.topology, config.workload, trace
            )
            simulator.begin_measurement()
            simulator.run_cycles(4_000)
            results[level] = simulator.finish()
        ratio = results[9].accepted_rate / results[0].accepted_rate
        assert ratio == pytest.approx(8.0, rel=0.2)


class TestChannelBandwidthProperty:
    @settings(max_examples=20, deadline=None)
    @given(level=st.integers(min_value=0, max_value=9))
    def test_saturated_channel_hits_rated_bandwidth(self, level):
        """Offering a flit every cycle, a channel at any level delivers
        its rated 1/serialization flits per cycle (staging register)."""
        channel = DVSChannel(
            ChannelDesign(
                PAPER_TABLE, PAPER_LINK_POWER, timing=TransitionTiming(0.2e-6, 4)
            ),
            initial_level=level,
        )
        horizon = 2_000
        sent = 0
        for now in range(horizon):
            if channel.can_accept_flit(now):
                channel.send_flit(now)
                sent += 1
        rated = horizon / channel.serialization_cycles
        assert sent == pytest.approx(rated, rel=0.01)

    @settings(max_examples=20, deadline=None)
    @given(level=st.integers(min_value=0, max_value=9))
    def test_busy_time_never_exceeds_horizon(self, level):
        channel = DVSChannel(
            ChannelDesign(
                PAPER_TABLE, PAPER_LINK_POWER, timing=TransitionTiming(0.2e-6, 4)
            ),
            initial_level=level,
        )
        horizon = 1_000
        for now in range(horizon):
            if channel.can_accept_flit(now):
                channel.send_flit(now)
        # One flit may straddle the horizon boundary.
        assert channel.busy_cycles_total <= horizon + channel.serialization_cycles
