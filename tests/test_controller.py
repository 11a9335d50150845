"""Tests for the per-port DVS controller."""

import pytest

from repro.core.controller import PortDVSController
from repro.core.dvs_link import ChannelDesign, DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.policy import DVSAction
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import ConfigError

from .conftest import make_policy


class FakeOccupancy:
    """Scripted cumulative occupancy integral (the port itself stays empty)."""

    def __init__(self):
        self.total = 0.0
        self.occupied = 0

    def add(self, integral):
        self.total += integral

    def cumulative_integral(self, now):
        return self.total


def make_channel(initial_level=9):
    design = ChannelDesign(
        PAPER_TABLE,
        PAPER_LINK_POWER,
        timing=TransitionTiming(
            voltage_transition_s=0.5e-6, frequency_transition_link_cycles=5
        ),
    )
    return DVSChannel(design, initial_level=initial_level)


def make_controller(channel=None, policy=None, occupancy=None, window=200):
    channel = channel if channel is not None else make_channel()
    policy = policy if policy is not None else make_policy("history")
    occupancy = occupancy if occupancy is not None else FakeOccupancy()
    return (
        PortDVSController(
            channel,
            policy,
            occupancy,
            window_cycles=window,
            buffer_capacity=128,
        ),
        channel,
        occupancy,
    )


class TestMeasurement:
    def test_link_utilization_from_busy_delta(self):
        controller, channel, _ = make_controller()
        for cycle in range(100):
            channel.send_flit(cycle)  # 1 cycle each at max level
        controller.close_window(200)
        assert controller.last_link_utilization == pytest.approx(0.5)

    def test_busy_counter_differenced_between_windows(self):
        controller, channel, _ = make_controller()
        for cycle in range(60):
            channel.send_flit(cycle)
        controller.close_window(200)
        controller.close_window(400)
        assert controller.last_link_utilization == 0.0

    def test_buffer_utilization_from_integral_delta(self):
        controller, _, occupancy = make_controller()
        occupancy.add(200 * 64.0)  # half the 128-slot port for a window
        controller.close_window(200)
        assert controller.last_buffer_utilization == pytest.approx(0.5)

    def test_utilizations_clamped(self):
        controller, channel, occupancy = make_controller(window=10)
        occupancy.add(1e9)
        for cycle in range(10):
            channel.send_flit(cycle)
        controller.close_window(10)
        assert controller.last_link_utilization <= 1.0
        assert controller.last_buffer_utilization == 1.0


class TestActuation:
    def test_idle_link_steps_down(self):
        controller, channel, _ = make_controller()
        action = None
        now = 0
        for _ in range(10):
            now += 200
            # The engine dispatches phase events at their exact cycle,
            # before any window closing at or after them.
            while (
                channel.pending_event_cycle is not None
                and channel.pending_event_cycle <= now
            ):
                channel.on_phase_end(channel.pending_event_cycle)
            action = controller.close_window(now)
        assert action is DVSAction.STEP_DOWN
        assert channel.level < 9

    def test_requests_dropped_mid_transition(self):
        channel = make_channel()
        controller, _, _ = make_controller(channel=channel)
        controller.close_window(200)  # starts a down transition (idle link)
        assert not channel.is_steady
        controller.close_window(400)  # link still transitioning
        assert controller.requests_dropped >= 1

    def test_static_policy_drives_to_level(self):
        channel = make_channel(initial_level=9)
        controller, _, _ = make_controller(
            channel=channel, policy=make_policy("static", static_level=7)
        )
        now = 0
        for _ in range(40):
            now += 200
            while (
                channel.pending_event_cycle is not None
                and channel.pending_event_cycle <= now
            ):
                channel.on_phase_end(channel.pending_event_cycle)
            controller.close_window(now)
        # Drain any in-flight transition.
        while channel.pending_event_cycle is not None:
            channel.on_phase_end(channel.pending_event_cycle)
        assert channel.level == 7

    def test_action_bookkeeping(self):
        controller, channel, _ = make_controller()
        controller.close_window(200)
        assert controller.windows_evaluated == 1
        assert sum(controller.actions_taken.values()) == 1


class TestDormancy:
    def test_standalone_controller_evaluates_every_window(self):
        controller, _, _ = make_controller(channel=make_channel(initial_level=0))
        controller.close_window(200)
        assert controller.dormant_action is None

    def test_idle_close_goes_dormant_and_wake_replays_the_skipped_windows(self):
        channel = make_channel(initial_level=0)
        controller, _, _ = make_controller(channel=channel)
        controller.flight_cycles = 12  # as an engine sets it
        # Idle window, steady at level 0: STEP_DOWN clamps to a no-op.
        controller.close_window(200)
        assert controller.dormant_action is DVSAction.STEP_DOWN
        controller.windows_skipped = 3  # the engine counts skipped closes
        controller.wake()
        assert controller.dormant_action is None
        assert controller.windows_evaluated == 4
        assert controller.actions_taken[DVSAction.STEP_DOWN] == 4
        assert controller.requests_dropped == 0

    def test_catch_up_replays_the_skipped_windows_and_stays_dormant(self):
        controller, _, _ = make_controller(channel=make_channel(initial_level=0))
        controller.flight_cycles = 12
        controller.close_window(200)
        controller.windows_skipped = 3
        controller.catch_up()
        assert controller.dormant_action is DVSAction.STEP_DOWN
        assert controller.windows_skipped == 0
        assert controller.windows_evaluated == 4
        controller.catch_up()
        assert controller.windows_evaluated == 4

    def test_dormancy_mid_transition_counts_dropped_requests(self):
        channel = make_channel(initial_level=9)
        controller, _, _ = make_controller(channel=channel)
        controller.flight_cycles = 12
        controller.close_window(200)  # idle: starts a down step
        assert not channel.is_steady
        assert controller.dormant_action is DVSAction.STEP_DOWN
        controller.windows_skipped = 2
        controller.wake()
        assert controller.requests_dropped == 2


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ConfigError):
            PortDVSController(
                make_channel(),
                make_policy("history"),
                FakeOccupancy(),
                window_cycles=0,
                buffer_capacity=128,
            )

    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            PortDVSController(
                make_channel(),
                make_policy("history"),
                FakeOccupancy(),
                window_cycles=200,
                buffer_capacity=0,
            )
