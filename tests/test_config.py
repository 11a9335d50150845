"""Tests for the configuration layer."""

import pytest

from repro.config import (
    DVSControlConfig,
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
    paper_baseline_config,
)
from repro.errors import ConfigError


class TestNetworkConfig:
    def test_paper_defaults(self):
        config = NetworkConfig()
        assert config.radix == 8
        assert config.dimensions == 2
        assert config.node_count == 64
        assert config.vcs_per_port == 2
        assert config.buffers_per_port == 128
        assert config.buffers_per_vc == 64
        assert config.flits_per_packet == 5
        assert config.pipeline_depth == 13
        assert config.router_clock_hz == 1.0e9

    def test_pipeline_latency(self):
        assert NetworkConfig().pipeline_latency == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radix": 1},
            {"dimensions": 0},
            {"vcs_per_port": 0},
            {"buffers_per_port": 1, "vcs_per_port": 2},
            {"flits_per_packet": 0},
            {"router_clock_hz": 0.0},
            {"pipeline_depth": 0},
            {"credit_delay": 0},
            {"routing": "magic"},
            {"routing": "adaptive", "wraparound": True},
            {"wraparound": True, "vcs_per_port": 1},
            # 5 slots per VC, 15 per port, but utilization divides by 16.
            {"buffers_per_port": 16, "vcs_per_port": 3},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkConfig(**kwargs)


class TestLinkConfig:
    def test_builders(self):
        config = LinkConfig()
        table = config.build_table()
        assert len(table) == 10
        model = config.build_power_model()
        assert model.power_w(table[9]) == pytest.approx(0.2)
        regulator = config.build_regulator()
        assert regulator.efficiency == 0.9
        timing = config.build_timing()
        assert timing.voltage_transition_s == 10.0e-6
        assert timing.frequency_transition_link_cycles == 100

    def test_invalid_caught_at_construction(self):
        with pytest.raises(ConfigError):
            LinkConfig(levels=1)
        with pytest.raises(ConfigError):
            LinkConfig(min_frequency_hz=2e9)
        with pytest.raises(ConfigError):
            LinkConfig(regulator_efficiency=1.2)
        with pytest.raises(ConfigError):
            LinkConfig(low_power_w=0.5, high_power_w=0.2)


class TestDVSControlConfig:
    def test_defaults(self):
        config = DVSControlConfig()
        assert config.policy == "history"
        assert config.enabled
        assert config.history_window == 200
        assert config.ewma_weight == 3.0

    def test_none_disables(self):
        assert not DVSControlConfig(policy="none").enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "bogus"},
            {"ewma_weight": 0.0},
            {"history_window": 0},
            {"static_level": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DVSControlConfig(**kwargs)


class TestWorkloadConfig:
    def test_defaults(self):
        config = WorkloadConfig()
        assert config.kind == "two_level"
        assert config.on_shape == 1.4
        assert config.off_shape == 1.2

    def test_with_rate(self):
        config = WorkloadConfig(injection_rate=0.5)
        assert config.with_rate(1.5).injection_rate == 1.5
        assert config.injection_rate == 0.5  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus"},
            {"injection_rate": -1.0},
            {"average_tasks": 0},
            {"average_task_duration_s": 0.0},
            {"task_duration_jitter": 1.0},
            {"onoff_sources_per_task": 0},
            {"on_shape": 2.5},
            {"off_shape": 1.0},
            {"locality_radius": 0},
            {"locality_probability": 1.1},
            {"on_location_cycles": 0.0},
            {"peak_interval_cycles": -5.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadConfig(**kwargs)


class TestSimulationConfig:
    def test_total_cycles(self):
        config = SimulationConfig(warmup_cycles=100, measure_cycles=200)
        assert config.total_cycles == 300

    def test_with_rate(self):
        config = SimulationConfig()
        changed = config.with_rate(1.7)
        assert changed.workload.injection_rate == 1.7
        assert changed.network == config.network

    def test_with_dvs(self):
        config = SimulationConfig()
        changed = config.with_dvs(DVSControlConfig(policy="none"))
        assert changed.dvs.policy == "none"

    def test_invalid(self):
        with pytest.raises(ConfigError):
            SimulationConfig(warmup_cycles=-1)
        with pytest.raises(ConfigError):
            SimulationConfig(measure_cycles=0)

    def test_paper_baseline(self):
        config = paper_baseline_config()
        assert config.network.radix == 8
        assert config.dvs.policy == "history"

    def test_paper_baseline_override(self):
        config = paper_baseline_config(dvs=DVSControlConfig(policy="none"))
        assert config.dvs.policy == "none"
