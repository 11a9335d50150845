"""Structural contracts of the remaining experiment functions (tiny scale)."""

import dataclasses
import math

import pytest

from repro.core.thresholds import TABLE2_SETTINGS
from repro.harness.experiments import (
    FigureResult,
    ablation_history_window,
    ablation_ideal_links,
    fig11_dvs_vs_nodvs_50tasks,
    fig12_congestion_power,
    fig13_threshold_latency,
    fig14_threshold_power,
    fig16_voltage_transition_sweep,
    fig17_frequency_transition_sweep,
    headline_summary,
    router_core_energy,
    threshold_sweeps,
    workload_comparison,
)
from repro.harness.paper import HEADLINE_CLAIMS
from repro.harness.scales import SMOKE_SCALE

TINY = dataclasses.replace(
    SMOKE_SCALE,
    warmup_cycles=800,
    measure_cycles=2_500,
    sweep_rates=(0.2, 0.8),
)


class TestComparisonFigures:
    def test_fig11_structure(self):
        figure = fig11_dvs_vs_nodvs_50tasks(TINY)
        assert isinstance(figure, FigureResult)
        assert len(figure.rows) == 2
        assert figure.extras["summary"].max_savings > 1.0

    def test_fig12_structure(self):
        figure = fig12_congestion_power(TINY, rates=(0.3, 2.0))
        assert [row[0] for row in figure.rows] == [0.3, 2.0]
        powers = [row[3] for row in figure.rows]
        assert all(0.0 < p <= 1.2 for p in powers)

    def test_headline_structure(self, monkeypatch):
        figure = headline_summary(TINY)
        metrics = [row[0] for row in figure.rows]
        assert "max power savings (X)" in metrics
        assert len(figure.rows) == 5
        # The paper column is HEADLINE_CLAIMS; the loss is a negative change.
        claims = {claim.metric: claim.value for claim in HEADLINE_CLAIMS}
        assert [row[1] for row in figure.rows] == [
            claims["max_power_savings_x"],
            claims["avg_power_savings_x"],
            claims["zero_load_latency_increase"],
            claims["presaturation_latency_increase"],
            -claims["throughput_reduction"],
        ]
        # Handed the Figure 10 result, it summarises without simulating.
        monkeypatch.setattr("repro.harness.backends.run_simulation", None)
        again = headline_summary(TINY, fig10=figure.extras["fig10"])
        assert again.rows == figure.rows


class TestThresholdFigures:
    @pytest.fixture(scope="class")
    def sweeps(self):
        settings = {"I": TABLE2_SETTINGS["I"], "VI": TABLE2_SETTINGS["VI"]}
        return threshold_sweeps(TINY, rates=(0.3, 0.8), settings=settings)

    def test_fig13_from_shared_sweeps(self, sweeps):
        figure = fig13_threshold_latency(TINY, sweeps=sweeps)
        assert figure.columns == ["rate", "I", "VI"]
        assert len(figure.rows) == 2

    def test_fig14_from_shared_sweeps(self, sweeps):
        figure = fig14_threshold_power(TINY, sweeps=sweeps)
        powers = [row[1:] for row in figure.rows]
        assert all(0.0 < p <= 1.2 for row in powers for p in row)

    def test_aggressive_setting_saves_at_least_as_much(self, sweeps):
        mean = {
            name: sum(p.normalized_power for p in points) / len(points)
            for name, points in sweeps.items()
        }
        assert mean["VI"] <= mean["I"] * 1.1


class TestTransitionFigures:
    def test_fig16_panel_structure(self):
        figure = fig16_voltage_transition_sweep(TINY, panel="d", rates=(0.4,))
        assert "Figure 16(d)" in figure.figure
        assert set(figure.extras["sweeps"]) == {
            "nodvs",
            "vt_1.0x",
            "vt_0.5x",
            "vt_0.1x",
        }

    def test_fig17_panel_structure(self):
        figure = fig17_frequency_transition_sweep(TINY, panel="c", rates=(0.4,))
        assert "Figure 17(c)" in figure.figure
        assert set(figure.extras["sweeps"]) == {"nodvs", "ft_100", "ft_50", "ft_10"}

    def test_fig17_bad_panel(self):
        with pytest.raises(Exception):
            fig17_frequency_transition_sweep(TINY, panel="q")


class TestExtensions:
    def test_ideal_links_structure(self):
        figure = ablation_ideal_links(TINY, rates=(0.4,))
        (row,) = figure.rows
        lat_conservative, lat_ideal = row[1], row[2]
        assert not math.isnan(lat_conservative)
        assert not math.isnan(lat_ideal)
        # Loose structural bound only: at this light load both variants sit
        # near baseline latency (ideal links even track the LU band more
        # tightly, trading a few cycles for power). The real shape claim —
        # ideal links cut the queueing-dominated latency cost — is asserted
        # by the default-scale bench.
        assert lat_ideal <= lat_conservative * 1.5

    def test_workload_comparison_structure(self):
        figure = workload_comparison(TINY, rate=0.6)
        names = [row[0] for row in figure.rows]
        assert names == ["two_level", "uniform", "permutation"]
        for row in figure.rows:
            assert row[4] < 1.1  # normalized power sane under DVS

    def test_router_core_energy_structure(self):
        figure = router_core_energy(TINY)
        assert [row[0] for row in figure.rows] == [
            "core power, non-DVS (W)",
            "core power, history DVS (W)",
            "relative change",
            "per-flit hop energy (pJ)",
        ]
        extras = figure.extras
        assert extras["base_w"] > 0.0 and extras["dvs_w"] > 0.0
        assert extras["change"] == pytest.approx(extras["dvs_w"] / extras["base_w"] - 1.0)

    def test_history_window_rows(self):
        figure = ablation_history_window(TINY, rate=0.6, windows=(100, 400))
        assert [row[0] for row in figure.rows] == [100, 400]
