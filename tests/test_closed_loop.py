"""Closed-loop properties of controller + policy + channel, no network.

Emulates a constant-rate traffic source feeding one DVS channel: each
history window contributes ``rate * H`` flits' worth of busy time at the
channel's *current* serialization (capped at the window), which is exactly
what a backlogged or metered link would show. The control loop must then
satisfy basic stability properties whatever the rate.
"""

from hypothesis import given, settings, strategies as st

from repro.core.controller import PortDVSController
from repro.core.dvs_link import DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.policy import HistoryDVSPolicy
from repro.core.power_model import PAPER_LINK_POWER
from repro.core.thresholds import TABLE1_DEFAULT


class ConstantRateLoop:
    """Drives one controller with synthetic constant-rate traffic."""

    def __init__(self, rate_flits_per_cycle: float, *, window: int = 200):
        self.rate = rate_flits_per_cycle
        self.window = window
        self.channel = DVSChannel(
            PAPER_TABLE,
            PAPER_LINK_POWER,
            timing=TransitionTiming(0.5e-6, 5),
        )
        self._occupancy_total = 0.0
        #: OccupancySource: the scripted port holds no flit between windows.
        self.occupied = 0
        self.controller = PortDVSController(
            self.channel,
            HistoryDVSPolicy(),
            self,
            window_cycles=window,
            buffer_capacity=128,
        )
        self.now = 0

    def cumulative_integral(self, now: int) -> float:
        return self._occupancy_total

    def set_buffer_utilization(self, bu: float) -> None:
        """Make the next window observe *bu* (adds the right integral)."""
        self._occupancy_total += bu * self.window * 128

    def run_windows(self, count: int, *, bu: float = 0.0) -> None:
        for _ in range(count):
            self.now += self.window
            # Offered busy time at the current serialization, capped.
            busy = min(
                float(self.window),
                self.rate * self.window * self.channel.serialization_cycles,
            )
            self.channel.busy_cycles_total += busy
            self.channel.busy_window += busy
            self.set_buffer_utilization(bu)
            # Engine ordering: phase events fire at their exact cycle,
            # before any window closing at or after them.
            while (
                self.channel.pending_event_cycle is not None
                and self.channel.pending_event_cycle <= self.now
            ):
                self.channel.on_phase_end(self.channel.pending_event_cycle)
            self.controller.close_window(self.now)


class TestConvergence:
    def test_idle_sinks_to_bottom(self):
        loop = ConstantRateLoop(0.0)
        loop.run_windows(400)
        assert loop.channel.level == 0

    def test_saturating_rate_climbs_to_top(self):
        loop = ConstantRateLoop(1.0)  # one flit per cycle: LU = ser >= 1
        loop.run_windows(600)
        assert loop.channel.level == PAPER_TABLE.max_level

    def test_moderate_rate_settles_mid_table(self):
        # rate 0.1 f/c: LU in the [0.3, 0.4] band needs ser in [3, 4].
        loop = ConstantRateLoop(0.1)
        loop.run_windows(600)
        ser = loop.channel.serialization_cycles
        assert 2.0 <= ser <= 5.0

    def test_congested_band_tolerates_higher_lu(self):
        """Under congestion (high BU) the same rate settles slower."""
        light = ConstantRateLoop(0.13)
        light.run_windows(600, bu=0.1)
        congested = ConstantRateLoop(0.13)
        congested.run_windows(600, bu=0.9)
        assert congested.channel.level <= light.channel.level

    @settings(max_examples=25, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=1.2))
    def test_no_persistent_overload(self, rate):
        """At any constant rate the loop never parks below the load: after
        settling, either the link is at max level or its utilization
        prediction is not persistently above the step-up threshold."""
        loop = ConstantRateLoop(rate)
        loop.run_windows(800)
        if loop.channel.level < PAPER_TABLE.max_level and loop.channel.is_steady:
            policy = loop.controller.policy
            t_low, t_high = TABLE1_DEFAULT.select(
                policy.predicted_buffer_utilization
            )
            # Mid-oscillation states are allowed; persistent overload at a
            # steady level is not (the policy would have stepped up).
            lu = policy.predicted_link_utilization
            assert lu <= t_high + 0.3

    @settings(max_examples=25, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=1.2))
    def test_level_always_valid(self, rate):
        loop = ConstantRateLoop(rate)
        loop.run_windows(300)
        assert 0 <= loop.channel.level <= PAPER_TABLE.max_level
        assert loop.channel.transition_energy_j >= 0.0
