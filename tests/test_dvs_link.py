"""Tests for the DVS channel state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dvs_link import (
    ChannelPhase,
    DVSChannel,
    LevelConstants,
    TransitionTiming,
)
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER, RegulatorModel
from repro.errors import ConfigError, LinkStateError


def make_channel(
    *,
    initial_level=None,
    voltage_transition_s=1.0e-6,
    frequency_transition_link_cycles=10,
    lanes=8,
):
    return DVSChannel(
        PAPER_TABLE,
        PAPER_LINK_POWER,
        RegulatorModel(),
        lanes=lanes,
        router_clock_hz=1.0e9,
        timing=TransitionTiming(
            voltage_transition_s=voltage_transition_s,
            frequency_transition_link_cycles=frequency_transition_link_cycles,
        ),
        initial_level=initial_level,
    )


def drive_to_completion(channel, now):
    """Advance through all pending phase ends; return the finish cycle."""
    while channel.pending_event_cycle is not None:
        now = channel.pending_event_cycle
        channel.on_phase_end(now)
    return now


class TestConstruction:
    def test_defaults_to_max_level(self):
        channel = make_channel()
        assert channel.level == 9
        assert channel.is_steady
        assert channel.functional

    def test_initial_level(self):
        assert make_channel(initial_level=3).level == 3

    def test_bad_initial_level(self):
        with pytest.raises(ConfigError):
            make_channel(initial_level=10)

    def test_initial_power_is_channel_power(self):
        channel = make_channel(initial_level=9)
        assert channel.power_w == pytest.approx(1.6)  # 8 x 200 mW

    def test_serialization_at_levels(self):
        assert make_channel(initial_level=9).serialization_cycles == pytest.approx(1.0)
        assert make_channel(initial_level=0).serialization_cycles == pytest.approx(8.0)


class TestUpTransition:
    def test_voltage_first_then_frequency(self):
        channel = make_channel(initial_level=5)
        assert channel.request_level(6, now=100)
        # Voltage ramp: functional, frequency unchanged.
        assert channel.phase is ChannelPhase.VOLTAGE_RAMP
        assert channel.functional
        assert channel.level == 5
        assert channel.pending_event_cycle == 100 + 1000  # 1 us at 1 GHz
        channel.on_phase_end(1100)
        # Frequency lock: dead, still at old frequency's serialization.
        assert channel.phase is ChannelPhase.FREQUENCY_LOCK
        assert not channel.functional
        channel.on_phase_end(channel.pending_event_cycle)
        assert channel.is_steady
        assert channel.level == 6
        assert channel.voltage_level == 6

    def test_frequency_lock_duration_uses_old_frequency(self):
        channel = make_channel(initial_level=0)  # 125 MHz: 8 router cycles per link clock
        channel.request_level(1, now=0)
        channel.on_phase_end(1000)  # end of voltage ramp
        lock_cycles = channel.pending_event_cycle - 1000
        assert lock_cycles == 10 * 8  # 10 link clocks at 125 MHz

    def test_transition_energy_charged(self):
        channel = make_channel(initial_level=5)
        channel.request_level(6, now=0)
        v1 = PAPER_TABLE.voltage(5)
        v2 = PAPER_TABLE.voltage(6)
        expected = 0.1 * 5.0e-6 * (v2**2 - v1**2)
        assert channel.transition_energy_j == pytest.approx(expected)
        assert channel.transition_count == 1


class TestDownTransition:
    def test_frequency_first_then_voltage(self):
        channel = make_channel(initial_level=6)
        assert channel.request_level(5, now=50)
        assert channel.phase is ChannelPhase.FREQUENCY_LOCK
        assert not channel.functional
        channel.on_phase_end(channel.pending_event_cycle)
        # Frequency now lower; voltage ramps down while functional.
        assert channel.level == 5
        assert channel.phase is ChannelPhase.VOLTAGE_RAMP
        assert channel.functional
        assert channel.voltage_level == 6  # rail still at the old level
        channel.on_phase_end(channel.pending_event_cycle)
        assert channel.is_steady
        assert channel.voltage_level == 5

    def test_down_serialization_applies_after_lock(self):
        channel = make_channel(initial_level=9)
        channel.request_level(8, now=0)
        assert channel.serialization_cycles == pytest.approx(1.0)
        channel.on_phase_end(channel.pending_event_cycle)
        assert channel.serialization_cycles > 1.0


class TestTransitionRules:
    def test_request_during_transition_rejected(self):
        channel = make_channel(initial_level=5)
        assert channel.request_level(6, now=0)
        assert not channel.request_level(7, now=10)
        assert not channel.request_level(4, now=10)
        assert channel.target_level == 6

    def test_request_same_level_is_noop(self):
        channel = make_channel(initial_level=5)
        assert channel.request_level(5, now=0)
        assert channel.is_steady
        assert channel.pending_event_cycle is None

    def test_request_clamps(self):
        channel = make_channel(initial_level=9)
        assert channel.request_level(99, now=0)
        assert channel.is_steady  # clamped to 9 == current

    def test_multi_step_chains(self):
        channel = make_channel(initial_level=2)
        channel.request_level(4, now=0)
        drive_to_completion(channel, 0)
        assert channel.level == 4
        assert channel.level_step_counts["up"] == 2
        assert channel.transition_count == 2

    def test_phase_end_requires_exact_cycle(self):
        channel = make_channel(initial_level=5)
        channel.request_level(6, now=0)
        with pytest.raises(LinkStateError):
            channel.on_phase_end(channel.pending_event_cycle + 1)

    def test_phase_end_without_pending(self):
        channel = make_channel()
        with pytest.raises(LinkStateError):
            channel.on_phase_end(0)

    def test_force_level_during_transition_rejected(self):
        channel = make_channel(initial_level=5)
        channel.request_level(6, now=0)
        with pytest.raises(LinkStateError):
            channel.force_level(3)

    def test_dead_cycles_accumulate(self):
        channel = make_channel(initial_level=9)
        channel.request_level(8, now=0)
        drive_to_completion(channel, 0)
        assert channel.dead_cycles == 10  # 10 link clocks at 1 GHz


class TestWire:
    def test_send_and_busy(self):
        channel = make_channel(initial_level=9)
        assert channel.can_accept_flit(0)
        done = channel.send_flit(0)
        assert done == pytest.approx(1.0)
        assert channel.flits_sent == 1
        assert channel.busy_cycles_total == pytest.approx(1.0)

    def test_staging_allows_back_to_back_at_fractional_ratio(self):
        channel = make_channel(initial_level=8)  # ser ~1.098
        sent = 0
        now = 0
        for now in range(100):
            if channel.can_accept_flit(now):
                channel.send_flit(now)
                sent += 1
        # Achieved rate must be close to the rated 1/ser, not floor-limited.
        rated = 100 / channel.serialization_cycles
        assert sent >= int(rated) - 1

    def test_send_while_locked_raises(self):
        channel = make_channel(initial_level=9)
        channel.request_level(8, now=0)  # down: immediate frequency lock
        assert not channel.can_accept_flit(1)
        with pytest.raises(LinkStateError):
            channel.send_flit(1)

    def test_send_while_staged_full_raises(self):
        channel = make_channel(initial_level=0)  # ser 8
        channel.send_flit(0)
        assert not channel.can_accept_flit(1)
        with pytest.raises(LinkStateError):
            channel.send_flit(1)

    def test_functional_during_voltage_ramp(self):
        channel = make_channel(initial_level=5)
        channel.request_level(6, now=0)
        assert channel.phase is ChannelPhase.VOLTAGE_RAMP
        assert channel.can_accept_flit(5)
        channel.send_flit(5)  # no exception


class TestEnergy:
    def test_steady_energy_integration(self):
        channel = make_channel(initial_level=9)
        channel.finalize(1000)
        # 1.6 W for 1 us.
        assert channel.link_energy_j == pytest.approx(1.6e-6)

    def test_average_power_steady(self):
        channel = make_channel(initial_level=0)
        power = channel.average_power_w(10_000)
        assert power == pytest.approx(8 * 23.6e-3)

    def test_ramp_billed_at_higher_level(self):
        channel = make_channel(initial_level=5)
        steady = channel.power_w
        channel.request_level(6, now=0)
        assert channel.power_w > steady

    def test_energy_monotone_in_time(self):
        channel = make_channel(initial_level=4)
        channel.finalize(100)
        first = channel.total_energy_j
        channel.finalize(200)
        assert channel.total_energy_j > first

    def test_average_power_inside_a_prebilled_span(self):
        # A step requested while a flit is mid-wire pre-bills energy to
        # the lock start (cycle 102 here). Like finalize, average_power_w
        # must accept a cycle inside that span instead of raising
        # "time ran backwards".
        channel = make_channel(initial_level=5)
        channel.send_flit(100)
        assert channel.request_level(4, 100)
        assert channel._last_energy_cycle == 102
        channel.finalize(100)
        power = channel.average_power_w(100)
        assert power == channel.total_energy_j / (100 / 1.0e9)

    def test_finalize_before_checkpoint_is_a_noop(self):
        # Transition starts pre-bill energy past `now`, so finalize must
        # tolerate landing inside an already-integrated span (it used to
        # raise LinkStateError, crashing series collection under DVS).
        channel = make_channel()
        channel.finalize(100)
        before = channel.total_energy_j
        channel.finalize(50)
        assert channel.total_energy_j == before


class TestLevelConstants:
    def test_shared_constants_must_match_the_channel(self):
        reference = make_channel()
        with pytest.raises(ConfigError, match="different channel design"):
            DVSChannel(
                PAPER_TABLE,
                PAPER_LINK_POWER,
                RegulatorModel(),
                lanes=4,
                constants=reference._constants,
            )

    def test_shared_constants_give_the_same_channel(self):
        regulator = RegulatorModel()
        timing = TransitionTiming(1.0e-6, 10)
        constants = LevelConstants(
            PAPER_TABLE,
            PAPER_LINK_POWER,
            regulator,
            lanes=8,
            router_clock_hz=1.0e9,
            timing=timing,
        )
        shared = DVSChannel(
            PAPER_TABLE, PAPER_LINK_POWER, regulator, timing=timing,
            initial_level=6, constants=constants,
        )
        own = DVSChannel(
            PAPER_TABLE, PAPER_LINK_POWER, regulator, timing=timing, initial_level=6
        )
        for channel in (shared, own):
            channel.request_level(0, 0)
            drive_to_completion(channel, 0)
            channel.request_level(9, channel._last_energy_cycle)
            drive_to_completion(channel, 0)
        for name in ("link_energy_fj", "transition_energy_fj", "dead_cycles",
                     "_last_energy_cycle", "_power_w", "_serialization_cycles"):
            assert getattr(shared, name) == getattr(own, name)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.integers(min_value=0, max_value=9),
    commands=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
)
def test_random_command_sequences_keep_invariants(initial, commands):
    """Whatever levels are requested, the machine stays consistent."""
    channel = make_channel(initial_level=initial)
    now = 0
    for target in commands:
        channel.request_level(target, now)
        while channel.pending_event_cycle is not None:
            now = channel.pending_event_cycle
            channel.on_phase_end(now)
        # Invariants at every steady point:
        assert channel.is_steady
        assert 0 <= channel.level <= 9
        assert channel.voltage_level == channel.level
        assert channel.serialization_cycles == pytest.approx(
            1.0e9 / PAPER_TABLE.frequency(channel.level)
        )
        assert channel.transition_energy_j >= 0.0
        now += 1
    # Energy accounting remains self-consistent.
    channel.finalize(now + 10)
    assert channel.total_energy_j >= 0.0
