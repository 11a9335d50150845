"""Tests for the Orion-style router-core energy model."""

import pytest

from repro.errors import ConfigError
from repro.network.simulator import Simulator
from repro.power.orion import (
    OrionParameters,
    RouterEnergyCounters,
    RouterEnergyModel,
    core_energy_comparison,
)

from .conftest import small_config


class TestModel:
    def test_event_energies_positive_and_ordered(self):
        model = RouterEnergyModel()
        assert 0.0 < model.buffer_read_j < model.buffer_write_j
        assert model.crossbar_traversal_j > 0.0
        assert model.arbitration_j > 0.0
        # Arbitration is the cheap one — the paper's 81 mW observation.
        assert model.arbitration_j < model.buffer_write_j

    def test_peak_core_power_near_figure7_budget(self):
        """A fully loaded router's core should land near the Figure 7
        core budget (~1.37 W: 7.77 W total minus 6.4 W links)."""
        model = RouterEnergyModel()
        peak = model.peak_core_power_w(1.0e9)
        assert 0.3 <= peak <= 3.0

    def test_scaling_with_width(self):
        narrow = RouterEnergyModel(OrionParameters(flit_bits=16))
        wide = RouterEnergyModel(OrionParameters(flit_bits=64))
        assert wide.buffer_write_j > narrow.buffer_write_j
        assert wide.crossbar_traversal_j > narrow.crossbar_traversal_j

    def test_scaling_with_ports(self):
        small = RouterEnergyModel(OrionParameters(ports=3))
        large = RouterEnergyModel(OrionParameters(ports=9))
        assert large.crossbar_traversal_j > small.crossbar_traversal_j
        assert large.arbitration_j > small.arbitration_j

    def test_validation(self):
        with pytest.raises(ConfigError):
            OrionParameters(voltage_v=0.0)
        with pytest.raises(ConfigError):
            OrionParameters(ports=0)
        with pytest.raises(ConfigError):
            RouterEnergyModel().peak_core_power_w(0.0)

    def test_describe(self):
        assert "pJ" in RouterEnergyModel().describe()


class TestCounters:
    def test_from_simulator(self):
        simulator = Simulator(small_config(rate=0.3, measure=2_000))
        simulator.run_cycles(2_000)
        counters = RouterEnergyCounters.from_simulator(simulator)
        assert counters.flits_switched > 0
        assert counters.flits_ejected > 0

    def test_energy_monotone_in_activity(self):
        model = RouterEnergyModel()
        quiet = RouterEnergyCounters(flits_switched=10, flits_ejected=10)
        busy = RouterEnergyCounters(flits_switched=100, flits_ejected=100)
        assert busy.energy_j(model) > quiet.energy_j(model)

    def test_ejection_cheaper_than_switching(self):
        model = RouterEnergyModel()
        switched = RouterEnergyCounters(flits_switched=100).energy_j(model)
        ejected = RouterEnergyCounters(flits_ejected=100).energy_j(model)
        assert ejected < switched


class TestPaperClaim:
    def test_core_power_insensitive_to_dvs(self):
        """Paper Section 4.2: 'router power consumption does not vary much
        with and without DVS links' — same traffic delivered means the
        same buffer/crossbar event counts."""
        config = small_config(rate=0.3, warmup=500, measure=4_000)
        baseline = Simulator(config)
        baseline.run()
        from repro.config import DVSControlConfig

        dvs = Simulator(config.with_dvs(DVSControlConfig(policy="history")))
        dvs.run()
        base_w, dvs_w, change = core_energy_comparison(baseline, dvs)
        assert base_w > 0.0
        assert abs(change) < 0.25

    def test_comparison_requires_run(self):
        config = small_config()
        fresh = Simulator(config)
        with pytest.raises(ConfigError):
            core_energy_comparison(fresh, fresh)
