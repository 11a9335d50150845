"""Smoke tests for the per-figure experiment functions (tiny scale).

These verify structure and qualitative direction, not paper numbers —
EXPERIMENTS.md and the benchmark suite cover those at real scales.
"""

import dataclasses

import pytest

from repro.harness.experiments import (
    FigureResult,
    ablation_ewma_weight,
    fig10_dvs_vs_nodvs,
    fig15_pareto_curve,
    fig16_voltage_transition_sweep,
    fig3_link_utilization_profile,
    fig4_buffer_utilization_profile,
    fig5_buffer_age_profile,
    fig7_router_power_distribution,
    fig8_spatial_variance,
    fig9_temporal_variance,
    utilization_profiles,
)
from repro.harness.scales import SMOKE_SCALE

TINY = dataclasses.replace(
    SMOKE_SCALE,
    warmup_cycles=1_000,
    measure_cycles=3_000,
    sweep_rates=(0.2, 0.8),
)


class TestFig7:
    def test_structure(self):
        figure = fig7_router_power_distribution()
        assert isinstance(figure, FigureResult)
        assert figure.columns == ["component", "power_w", "fraction"]
        names = [row[0] for row in figure.rows]
        assert names[0] == "links"
        fractions = {row[0]: row[2] for row in figure.rows}
        assert fractions["links"] == pytest.approx(0.824, abs=0.001)

    def test_render(self):
        assert "Figure 7" in fig7_router_power_distribution().render()


class TestWorkloadFigures:
    def test_fig8_spatial_variance(self):
        figure = fig8_spatial_variance(TINY, snapshot_cycles=2_000)
        assert len(figure.rows) == TINY.radix
        assert figure.extras["variance"] > 0.0

    def test_fig9_temporal_variance(self):
        figure = fig9_temporal_variance(TINY, window=200, windows=20)
        assert len(figure.rows) == 20
        assert figure.extras["variance"] >= 0.0


class TestUtilizationProfiles:
    def test_profiles_structure(self, monkeypatch):
        profiles = utilization_profiles(TINY, loads=(0.2, 1.0), probe_window=50)
        assert set(profiles) == {0.2, 1.0}
        for profile in profiles.values():
            assert 0.0 <= profile["mean_lu"] <= 1.0
            assert 0.0 <= profile["mean_bu"] <= 1.0
            assert profile["lu_histogram"].total > 0
        # Figures 3-5 format one shared profile set without simulating.
        monkeypatch.setattr("repro.harness.experiments.build_simulator", None)
        for build, key in (
            (fig3_link_utilization_profile, "mean_lu"),
            (fig4_buffer_utilization_profile, "mean_bu"),
            (fig5_buffer_age_profile, "mean_age"),
        ):
            figure = build(TINY, profiles=profiles)
            assert [row[:2] for row in figure.rows] == [
                (load, profile[key]) for load, profile in profiles.items()
            ]

    def test_utilization_rises_with_load(self):
        profiles = utilization_profiles(TINY, loads=(0.1, 1.2), probe_window=50)
        assert profiles[1.2]["mean_lu"] >= profiles[0.1]["mean_lu"]


class TestComparisons:
    def test_fig10_structure_and_direction(self):
        figure = fig10_dvs_vs_nodvs(TINY)
        assert len(figure.rows) == len(TINY.sweep_rates)
        summary = figure.extras["summary"]
        # DVS must save power and cost some latency.
        assert summary.average_savings > 1.2
        assert summary.average_presaturation_increase > 0.0

    def test_fig15_pareto(self):
        settings = {
            "I": __import__("repro.core.thresholds", fromlist=["TABLE2_SETTINGS"]).TABLE2_SETTINGS["I"],
            "VI": __import__("repro.core.thresholds", fromlist=["TABLE2_SETTINGS"]).TABLE2_SETTINGS["VI"],
        }
        figure = fig15_pareto_curve(TINY, rate=0.8, settings=settings)
        assert len(figure.rows) == 2
        savings = {row[0]: row[4] for row in figure.rows}
        # VI is the more aggressive setting: at least as much savings as I.
        assert savings["VI"] >= savings["I"] * 0.85

    def test_fig16_panel_validation(self):
        with pytest.raises(Exception):
            fig16_voltage_transition_sweep(TINY, panel="z")


class TestAblation:
    def test_ewma_weight_rows(self):
        figure = ablation_ewma_weight(TINY, rate=0.6, weights=(1.0, 3.0))
        assert len(figure.rows) == 2
        assert all(row[1] > 0 or row[1] != row[1] for row in figure.rows)
