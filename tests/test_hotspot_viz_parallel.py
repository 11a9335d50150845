"""Tests for hotspot traffic, terminal visualization, and parallel sweeps."""

import collections

import pytest

from repro import viz
from repro.config import WorkloadConfig
from repro.errors import ConfigError, ExperimentError, WorkloadError
from repro.network.simulator import Simulator
from repro.network.topology import Topology
from repro.traffic.hotspot import HotspotTraffic

from .conftest import small_config


class TestHotspotTraffic:
    def make(self, fraction=0.5, hotspots=None):
        topology = Topology(4, 2)
        return (
            HotspotTraffic(
                topology,
                WorkloadConfig(kind="uniform", injection_rate=1.0, seed=3),
                hotspots=hotspots,
                hotspot_fraction=fraction,
            ),
            topology,
        )

    def test_hotspot_receives_biased_share(self):
        source, topology = self.make(fraction=0.5, hotspots=(5,))
        counts = collections.Counter()
        for now in range(10_000):
            for _src, dst in source.injections(now):
                counts[dst] += 1
        total = sum(counts.values())
        assert counts[5] / total == pytest.approx(0.5, abs=0.08)

    def test_zero_fraction_is_uniform(self):
        source, _ = self.make(fraction=0.0, hotspots=(5,))
        counts = collections.Counter()
        for now in range(10_000):
            for _src, dst in source.injections(now):
                counts[dst] += 1
        total = sum(counts.values())
        assert counts[5] / total < 0.15

    def test_no_self_traffic(self):
        source, _ = self.make(fraction=1.0, hotspots=(0,))
        for now in range(2_000):
            for src, dst in source.injections(now):
                assert src != dst

    def test_default_hotspot_is_center(self):
        source, topology = self.make(hotspots=None)
        assert source.hotspots == (topology.node_at((2, 2)),)

    def test_validation(self):
        topology = Topology(4, 2)
        config = WorkloadConfig(kind="uniform", injection_rate=1.0)
        with pytest.raises(WorkloadError):
            HotspotTraffic(topology, config, hotspots=(99,))
        with pytest.raises(WorkloadError):
            HotspotTraffic(topology, config, hotspots=())
        with pytest.raises(WorkloadError):
            HotspotTraffic(topology, config, hotspot_fraction=1.5)

    def test_drives_simulator_and_concentrates_load(self):
        config = small_config(radix=4, rate=0.8, warmup=0, measure=3_000)
        simulator = Simulator(config)
        simulator.traffic = HotspotTraffic(
            simulator.topology, config.workload, hotspot_fraction=0.6
        )
        simulator.run_cycles(3_000)
        hotspot = simulator.topology.node_at((2, 2))
        into_hotspot = sum(
            ch.dvs.flits_sent
            for ch in simulator.channels
            if ch.spec.dst_node == hotspot
        )
        mean_in = sum(ch.dvs.flits_sent for ch in simulator.channels) / len(
            simulator.channels
        )
        assert into_hotspot / 4 > mean_in  # hotspot's 4 in-channels run hot


class TestViz:
    def test_level_grid_shape(self):
        simulator = Simulator(small_config(radix=4))
        grid = viz.level_grid(simulator)
        lines = grid.splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 4 for line in lines)
        assert set("".join(grid.split())) == {"9"}  # all at max level

    def test_heatmap_edges_blank(self):
        simulator = Simulator(small_config(radix=4))
        heat = viz.channel_level_heatmap(simulator, direction=0)  # +x
        lines = [line.split() for line in heat.splitlines()]
        # The rightmost column has no +x channel.
        assert all(line[-1] == "." for line in lines)
        assert all(cell == "9" for line in lines for cell in line[:-1])

    def test_heatmap_direction_validation(self):
        simulator = Simulator(small_config(radix=4))
        with pytest.raises(ConfigError):
            viz.channel_level_heatmap(simulator, direction=7)

    def test_sparkline(self):
        line = viz.sparkline([0, 1, 2, 3, 4, 5])
        assert len(line) == 6
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_downsamples(self):
        assert len(viz.sparkline(range(1000), width=40)) == 40

    def test_sparkline_flat(self):
        assert viz.sparkline([3, 3, 3]) == "   "

    def test_sparkline_empty(self):
        with pytest.raises(ConfigError):
            viz.sparkline([])

    def test_utilization_bars(self):
        simulator = Simulator(small_config(rate=0.5, measure=1_500))
        simulator.run_cycles(1_500)
        text = viz.utilization_bars(simulator, top=5)
        assert "busiest channels" in text
        assert "#" in text


class TestParallelSweeps:
    def test_validation(self):
        from repro.harness.sweep import compare_policies

        with pytest.raises(ExperimentError):
            compare_policies(small_config(), (0.2,), {})
