"""Integration tests for the full simulator."""

import pytest

from repro.config import DVSControlConfig
from repro.errors import ConfigError, SimulationError
from repro.instrument.bus import Observer
from repro.network.engine import SimulationEngine
from repro.network.simulator import Simulator
from repro.traffic.trace import TraceReplaySource

from .conftest import small_config, trace_simulator


class TestSinglePacket:
    def test_one_hop_latency(self):
        """Zero-load latency of a 1-hop, 5-flit packet: injection + one
        pipeline traversal + tail serialization at full speed."""
        simulator = trace_simulator([(0, 0, 1)])
        simulator.begin_measurement()
        simulator.drain()
        assert simulator.total_ejected_packets == 1
        stats = simulator.latency.stats()
        pipeline = simulator.config.network.pipeline_depth
        flits = simulator.config.network.flits_per_packet
        assert stats.mean == pipeline + flits

    def test_multi_hop_latency_scales_with_distance(self):
        config = small_config()
        one = trace_simulator([(0, 0, 1)], config=config)
        one.begin_measurement()
        one.drain()
        far = trace_simulator([(0, 0, 2)], config=config)  # 2 hops in 3x3
        far.begin_measurement()
        far.drain()
        pipeline = config.network.pipeline_depth
        assert far.latency.stats().mean == one.latency.stats().mean + pipeline

    def test_flits_arrive_in_order(self):
        simulator = trace_simulator([(0, 0, 4)])
        simulator.begin_measurement()
        simulator.drain()
        assert simulator.total_ejected_packets == 1


class TestConservation:
    @pytest.mark.parametrize("kind,rate", [("uniform", 0.3), ("two_level", 0.3)])
    def test_every_offered_packet_is_delivered(self, kind, rate):
        config = small_config(
            rate=rate,
            workload_kind=kind,
            measure=3_000,
            average_tasks=5,
            average_task_duration_s=3.0e-6,
            onoff_sources_per_task=4,
        ) if kind == "two_level" else small_config(rate=rate, measure=3_000)
        simulator = Simulator(config)
        simulator.begin_measurement()
        simulator.run_cycles(3_000)
        offered = simulator.traffic.packets_offered
        # Stop traffic and drain.
        simulator.traffic = TraceReplaySource(
            simulator.topology, config.workload, []
        )
        simulator.drain(max_cycles=50_000)
        assert simulator.total_ejected_packets == offered
        assert simulator.flits_in_network() == 0

    def test_conservation_with_dvs_enabled(self):
        config = small_config(policy="history", rate=0.4, measure=4_000)
        simulator = Simulator(config)
        simulator.begin_measurement()
        simulator.run_cycles(4_000)
        offered = simulator.traffic.packets_offered
        simulator.traffic = TraceReplaySource(simulator.topology, config.workload, [])
        simulator.drain(max_cycles=100_000)
        assert simulator.total_ejected_packets == offered

    def test_conservation_adaptive_routing(self):
        config = small_config(routing="adaptive", rate=0.5, measure=3_000)
        simulator = Simulator(config)
        simulator.run_cycles(3_000)
        offered = simulator.traffic.packets_offered
        simulator.traffic = TraceReplaySource(simulator.topology, config.workload, [])
        simulator.drain(max_cycles=100_000)
        assert simulator.total_ejected_packets == offered

    def test_conservation_torus_dateline(self):
        config = small_config(wraparound=True, rate=0.5, measure=3_000, radix=4)
        simulator = Simulator(config)
        simulator.run_cycles(3_000)
        offered = simulator.traffic.packets_offered
        simulator.traffic = TraceReplaySource(simulator.topology, config.workload, [])
        simulator.drain(max_cycles=100_000)
        assert simulator.total_ejected_packets == offered


class TestSingleVCOrdering:
    def test_packets_same_pair_stay_ordered_with_one_vc(self):
        """With one VC and deterministic routing, delivery is FIFO per pair."""
        config = small_config(vcs=1)
        trace = [(i * 3, 0, 8) for i in range(10)]
        simulator = trace_simulator(trace, config=config)
        order = []

        class EjectionOrder(Observer):
            def on_packet_ejected(self, packet, now):
                order.append(packet.packet_id)

        simulator.bus.attach(EjectionOrder())
        simulator.drain(max_cycles=20_000)
        assert order == sorted(order)
        assert len(order) == 10


class TestMeasurement:
    def test_result_fields(self, mesh3_config):
        result = Simulator(mesh3_config).run()
        assert result.measure_cycles == mesh3_config.measure_cycles
        assert result.offered_packets >= 0
        assert result.latency.count > 0
        assert result.power.normalized == pytest.approx(1.0)
        assert result.power.savings_factor == pytest.approx(1.0)

    def test_offered_rate_tracks_config(self, mesh3_config):
        result = Simulator(mesh3_config).run()
        assert result.offered_rate == pytest.approx(
            mesh3_config.workload.injection_rate, rel=0.5
        )

    def test_finish_without_measurement_raises(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(10)
        with pytest.raises(SimulationError):
            simulator.finish()

    def test_warmup_packets_excluded_from_latency(self):
        config = small_config(rate=0.2, warmup=1_000, measure=1_000)
        simulator = Simulator(config)
        result = simulator.run()
        # Latency samples only from packets created in the measured phase.
        assert result.latency.count <= result.ejected_packets


class TestSeries:
    def test_series_collected(self):
        config = small_config(rate=0.2, warmup=200, measure=2_000)
        simulator = Simulator(config, series_window=500)
        result = simulator.run()
        assert set(result.series) == {
            "offered_rate",
            "accepted_rate",
            "power_w",
            "mean_level",
        }
        assert len(result.series["power_w"]) >= 3

    def test_negative_series_window_rejected(self, mesh3_config):
        with pytest.raises(ConfigError):
            Simulator(mesh3_config, series_window=-1)

    def test_window_not_dividing_measure_cycles(self):
        # 2000 measured cycles / 300-cycle windows: the trailing partial
        # window is simply not emitted; full windows land on multiples of
        # the window size counted from cycle 0, not from measurement start.
        config = small_config(rate=0.2, warmup=250, measure=2_000)
        simulator = Simulator(config, series_window=300)
        result = simulator.run()
        # Boundaries at 300..2100 fall inside (250, 2250]; 2400 does not.
        assert len(result.series["offered_rate"]) == 7
        assert len(result.series["power_w"]) == 7

    def test_zero_series_window_with_probes_attached(self):
        # series_window=0 means "no series"; probes must still work and
        # their windows must keep closing.
        config = small_config(rate=0.2, warmup=200, measure=1_000)
        simulator = Simulator(config, series_window=0)
        probe = simulator.attach_probe(4, 0, window_cycles=50)
        result = simulator.run()
        assert result.series == {}
        assert len(probe.lu_samples) > 0

    def test_begin_measurement_twice_restarts_the_phase(self):
        config = small_config(rate=0.2, warmup=0, measure=300)
        simulator = Simulator(config, series_window=100)
        simulator.run_cycles(400)
        simulator.begin_measurement()
        simulator.run_cycles(300)
        first_offered = simulator.offered_measured
        assert first_offered > 0
        simulator.begin_measurement()  # restart: counters reset, clock rebased
        assert simulator.offered_measured == 0
        assert simulator.ejected_measured == 0
        assert simulator._measure_start == 700
        simulator.run_cycles(300)
        result = simulator.finish()
        assert result.measure_cycles == 300
        assert result.offered_packets == simulator.offered_measured


class TestDVSIntegration:
    def test_idle_network_scales_down_and_saves_power(self):
        config = small_config(
            policy="history", rate=0.02, warmup=2_000, measure=4_000
        )
        result = Simulator(config).run()
        assert result.mean_level < 5.0
        assert result.power.normalized < 0.5
        assert result.power.savings_factor > 2.0

    def test_nodvs_network_stays_at_max(self):
        config = small_config(policy="none", rate=0.02)
        result = Simulator(config).run()
        assert result.mean_level == 9.0
        assert result.power.transition_count == 0

    def test_static_policy_reaches_level(self):
        config = small_config(rate=0.05, warmup=3_000, measure=2_000)
        config = config.with_dvs(DVSControlConfig(policy="static", static_level=4))
        result = Simulator(config).run()
        assert result.mean_level == pytest.approx(4.0, abs=0.5)

    def test_initial_level_respected(self):
        config = small_config(rate=0.02, warmup=0, measure=100)
        config = config.with_dvs(
            DVSControlConfig(policy="history", initial_level=2)
        )
        simulator = Simulator(config)
        assert all(ch.dvs.level == 2 for ch in simulator.channels)

    def test_transition_energy_appears_in_report(self):
        config = small_config(policy="history", rate=0.02, warmup=0, measure=4_000)
        result = Simulator(config).run()
        assert result.power.transition_count > 0
        assert result.power.transition_energy_j > 0.0


class TestProbes:
    def test_probe_collects_samples(self):
        config = small_config(rate=0.4, warmup=0, measure=2_000)
        simulator = Simulator(config)
        probe = simulator.attach_probe(4, 0, window_cycles=50)
        simulator.begin_measurement()
        simulator.run_cycles(2_000)
        # Windows close at cycles 50..1950 inside the run: 39 samples.
        assert len(probe.lu_samples) == 39
        assert len(probe.bu_samples) == len(probe.lu_samples)
        assert all(0.0 <= s <= 1.0 for s in probe.lu_samples)

    def test_probe_on_missing_channel_rejected(self):
        simulator = Simulator(small_config())
        corner = 0  # node (0,0) has no minus-x channel
        with pytest.raises(ConfigError):
            simulator.attach_probe(corner, 1)

    def test_probe_ages_via_hook(self):
        config = small_config(rate=0.5, warmup=0, measure=2_000)
        simulator = Simulator(config)
        probe = simulator.attach_probe(4, 0, window_cycles=50)
        simulator.run_cycles(2_000)
        assert probe.ages
        assert all(age >= 0 for age in probe.ages)


class TestDueCycles:
    def test_a_due_cycle_steps_without_computing_the_horizon(self, monkeypatch):
        """With events in the ring slot at ``now`` the horizon can only be
        ``now``: the kernel steps at once and never computes it there."""
        seen = {"due": 0, "horizons": 0}
        horizon = SimulationEngine._quiescent_horizon
        step = SimulationEngine.step

        def checked_horizon(engine):
            seen["horizons"] += 1
            assert not engine._ring[engine.now & engine._ring_mask]
            return horizon(engine)

        def counted_step(engine):
            if not engine._active_list and engine._ring[engine.now & engine._ring_mask]:
                seen["due"] += 1
            step(engine)

        monkeypatch.setattr(SimulationEngine, "_quiescent_horizon", checked_horizon)
        monkeypatch.setattr(SimulationEngine, "step", counted_step)
        Simulator(small_config(policy="history", rate=0.05)).run()
        assert seen["due"] > 0 and seen["horizons"] > 0

