"""Tests for power accounting and the router power profile."""

import pytest

from repro.core.dvs_link import ChannelDesign, DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import ConfigError, SimulationError
from repro.power.accounting import PowerAccountant
from repro.power.router_power import RouterPowerProfile


DESIGN = ChannelDesign(
    PAPER_TABLE, PAPER_LINK_POWER, timing=TransitionTiming(0.2e-6, 4)
)


def make_channels(count=4, initial_level=9):
    return [DVSChannel(DESIGN, initial_level=initial_level) for _ in range(count)]


class TestPowerAccountant:
    def test_baseline(self):
        accountant = PowerAccountant(make_channels(4))
        assert accountant.baseline_power_w == pytest.approx(4 * 1.6)
        # Read from the design, it is still the power model's own
        # top-level channel power, bit for bit.
        assert accountant.baseline_power_w == 4 * PAPER_LINK_POWER.channel_power_w(
            PAPER_TABLE, PAPER_TABLE.max_level, 8
        )

    def test_channels_must_share_one_design(self):
        other = ChannelDesign(PAPER_TABLE, PAPER_LINK_POWER, lanes=4)
        with pytest.raises(SimulationError, match="one design"):
            PowerAccountant(make_channels(2) + [DVSChannel(other)])

    def test_steady_max_power_normalized_one(self):
        channels = make_channels(4)
        accountant = PowerAccountant(channels)
        accountant.begin(0)
        for channel in channels:
            channel.finalize(10_000)
        report = accountant.report(10_000)
        assert report.normalized == pytest.approx(1.0)
        assert report.savings_factor == pytest.approx(1.0)
        assert report.transition_count == 0

    def test_low_level_savings(self):
        channels = make_channels(4, initial_level=0)
        accountant = PowerAccountant(channels)
        accountant.begin(0)
        report = accountant.report(10_000)
        assert report.savings_factor == pytest.approx(200.0 / 23.6, rel=1e-6)

    def test_transitions_counted_in_phase(self):
        channels = make_channels(2)
        accountant = PowerAccountant(channels)
        channels[0].request_level(8, 0)  # before measurement
        while channels[0].pending_event_cycle is not None:
            channels[0].on_phase_end(channels[0].pending_event_cycle)
        accountant.begin(1_000)
        channels[1].request_level(8, 1_000)
        while channels[1].pending_event_cycle is not None:
            channels[1].on_phase_end(channels[1].pending_event_cycle)
        report = accountant.report(5_000)
        assert report.transition_count == 1
        assert report.transition_energy_j > 0.0

    def test_report_before_begin(self):
        accountant = PowerAccountant(make_channels(1))
        with pytest.raises(SimulationError):
            accountant.report(100)

    def test_zero_length_phase(self):
        accountant = PowerAccountant(make_channels(1))
        accountant.begin(10)
        with pytest.raises(SimulationError):
            accountant.report(10)

    def test_needs_channels(self):
        with pytest.raises(SimulationError):
            PowerAccountant([])

    def test_mean_level(self):
        channels = make_channels(2, initial_level=9) + make_channels(
            2, initial_level=5
        )
        accountant = PowerAccountant(channels)
        assert accountant.mean_level() == pytest.approx(7.0)

    def test_instantaneous_power(self):
        accountant = PowerAccountant(make_channels(3))
        assert accountant.instantaneous_power_w() == pytest.approx(3 * 1.6)


class TestRouterPowerProfile:
    def test_paper_link_fraction(self):
        profile = RouterPowerProfile()
        fractions = profile.breakdown_fractions()
        assert fractions["links"] == pytest.approx(0.824)

    def test_paper_allocator_power(self):
        profile = RouterPowerProfile()
        assert profile.breakdown_w()["allocators"] == pytest.approx(0.081)

    def test_links_power(self):
        # 4 ports x 8 links x 200 mW = 6.4 W.
        assert RouterPowerProfile().links_power_w == pytest.approx(6.4)

    def test_total_implied(self):
        assert RouterPowerProfile().total_power_w == pytest.approx(6.4 / 0.824)

    def test_fractions_sum_to_one(self):
        fractions = RouterPowerProfile().breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_describe(self):
        text = RouterPowerProfile().describe()
        assert "links" in text
        assert "TOTAL" in text

    def test_validation(self):
        with pytest.raises(ConfigError):
            RouterPowerProfile(link_fraction=1.5)
        with pytest.raises(ConfigError):
            RouterPowerProfile(ports=0)
        with pytest.raises(ConfigError):
            RouterPowerProfile(core_split={"buffers": 0.5})

    def test_inconsistent_anchors_rejected(self):
        profile = RouterPowerProfile(allocator_power_w=10.0)
        with pytest.raises(ConfigError):
            profile.breakdown_w()
