"""Tests for repro.units."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.errors import ConfigError


class TestConversions:
    def test_mhz(self):
        assert units.mhz(125.0) == 125.0e6

    def test_ghz(self):
        assert units.ghz(1.0) == 1.0e9

    def test_microseconds(self):
        assert units.microseconds(10.0) == pytest.approx(10.0e-6)

    def test_milliseconds(self):
        assert units.milliseconds(1.0) == pytest.approx(1.0e-3)

    def test_milliwatts(self):
        assert units.milliwatts(23.6) == pytest.approx(0.0236)


class TestSecondsToCycles:
    def test_paper_voltage_transition(self):
        # 10 us at the 1 GHz router clock is 10,000 cycles.
        assert units.seconds_to_cycles(10.0e-6, 1.0e9) == 10_000

    def test_rounding(self):
        assert units.seconds_to_cycles(1.4e-9, 1.0e9) == 1
        assert units.seconds_to_cycles(1.6e-9, 1.0e9) == 2

    def test_zero_duration(self):
        assert units.seconds_to_cycles(0.0, 1.0e9) == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            units.seconds_to_cycles(-1.0e-6, 1.0e9)

    def test_bad_clock_rejected(self):
        with pytest.raises(ConfigError):
            units.seconds_to_cycles(1.0e-6, 0.0)

    @given(st.floats(min_value=1e-9, max_value=1e-2))
    def test_round_trip(self, duration):
        cycles = units.seconds_to_cycles(duration, 1.0e9)
        back = units.cycles_to_seconds(cycles, 1.0e9)
        assert back == pytest.approx(duration, abs=1e-9)


class TestCyclesToSeconds:
    def test_simple(self):
        assert units.cycles_to_seconds(1000, 1.0e9) == pytest.approx(1.0e-6)

    def test_bad_clock(self):
        with pytest.raises(ConfigError):
            units.cycles_to_seconds(10, -1.0)


class TestFemtojoules:
    """The integer energy unit of the per-link energy ledgers."""

    def test_one_joule(self):
        assert units.joules_to_femtojoules(1.0) == 10**15

    def test_zero(self):
        assert units.joules_to_femtojoules(0.0) == 0
        assert units.femtojoules_to_joules(0) == 0.0

    def test_result_is_a_python_int(self):
        assert isinstance(units.joules_to_femtojoules(2.5), int)

    def test_link_cycle_scale(self):
        # One cycle at the paper's lowest-power point: 23.6 mW for 1 ns.
        assert units.joules_to_femtojoules(0.0236 * 1.0e-9) == 23_600

    def test_rounds_to_nearest(self):
        assert units.joules_to_femtojoules(1.4e-15) == 1
        assert units.joules_to_femtojoules(1.6e-15) == 2

    @given(st.integers(min_value=0, max_value=10**15))
    def test_integer_round_trip_is_exact(self, count):
        """fJ -> J -> fJ is lossless across the per-window energy scale."""
        back = units.joules_to_femtojoules(units.femtojoules_to_joules(count))
        assert back == count

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_joules_round_trip_within_half_ulp(self, energy_j):
        """J -> fJ -> J round-trips to float precision over a full paper
        run's energy range (tens of joules)."""
        back = units.femtojoules_to_joules(units.joules_to_femtojoules(energy_j))
        assert back == pytest.approx(energy_j, rel=1e-12, abs=0.5e-15)

    def test_paper_run_energies_fit_the_int64_ledger(self):
        """A real run's fJ counts fit a signed 64-bit integer (~9223 J),
        with three orders of magnitude to spare."""
        assert units.joules_to_femtojoules(100.0) < 2**63 - 1
        assert units.joules_to_femtojoules(9_000.0) < 2**63 - 1

    def test_python_ints_do_not_overflow_beyond_the_ledger(self):
        huge = units.joules_to_femtojoules(1.0e6)
        assert isinstance(huge, int)
        assert huge == pytest.approx(10**21, rel=1e-12)
        assert units.femtojoules_to_joules(huge) == pytest.approx(1.0e6)


class TestBandwidth:
    def test_paper_channel_max(self):
        # 8 serial links at 1 GHz with 4:1 mux = 32 Gb/s.
        assert units.bandwidth_bits_per_s(1.0e9, 8, 4) == pytest.approx(32.0e9)

    def test_paper_channel_min(self):
        assert units.bandwidth_bits_per_s(125.0e6, 8, 4) == pytest.approx(4.0e9)

    def test_bad_lanes(self):
        with pytest.raises(ConfigError):
            units.bandwidth_bits_per_s(1.0e9, 0, 4)
