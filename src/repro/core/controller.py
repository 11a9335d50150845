"""Per-port DVS controller: wires measurement to policy to actuation.

One controller sits at each router output port (paper Figure 6). Every
history window of ``H`` router cycles it:

1. reads the channel's accumulated busy time (the hardware's busy-cycle
   counter combined with the clock-ratio counter) and converts the window's
   delta to link utilization (paper Eq. (2));
2. reads the time-integral of downstream input-buffer occupancy — available
   for free from the credit counters any credit-flow-controlled router
   already maintains — and converts the window's delta to buffer
   utilization (paper Eq. (3));
3. runs the policy and, if it prescribes a step, asks the channel state
   machine to move one level. Requests during an in-flight transition are
   dropped by the channel and simply retried at a later window.

The occupancy counter is cumulative on the producer side; the controller
differences it against its own last reading so that profiling probes can
observe the same counter without interference (the increments are
integer-valued floats, so the subtraction is exact). Busy time instead
uses the channel's reset-based ``busy_window`` accumulator: a window's
utilization is then computed from the same float increments whatever the
channel's earlier history (profilers still have the cumulative
``busy_cycles_total`` alongside it).

The controller is deliberately thin: all prediction state lives in the
policy, all transition state in the channel, so each piece is independently
testable.

**Dormancy.** Most closes on a lightly loaded network see a window in
which the channel carried nothing. When such a close leaves the policy at
a declared idle fixpoint (:meth:`DVSPolicy.idle_action
<repro.core.policy.DVSPolicy.idle_action>`) whose action changes no
channel state as it stands — a hold, a step dropped mid-transition, or a
step clamped at the end of the table — every later idle window would
repeat it verbatim. The controller then goes *dormant*: at each boundary
the engine only finalizes the channel's energy, which is all such a close
does to the channel, and counts the skipped close, until a flit is sent
(a boundary finds ``busy_window`` nonzero) or the channel's phase event
fires; :meth:`PortDVSController.wake` then replays the skipped windows'
bookkeeping as a count. The engine's run loops also replay them on
return (:meth:`PortDVSController.catch_up`), so a read after a run is
exact. Only an engine delivers those triggers, so only controllers it
drives (``flight_cycles`` set) go dormant.
"""

from __future__ import annotations

from typing import Protocol

from ..errors import ConfigError
from .dvs_link import ChannelPhase, DVSChannel
from .policy import DVSAction, DVSPolicy, PolicyInputs

_HOLD = DVSAction.HOLD
_SLEEP = DVSAction.SLEEP
_WAKE = DVSAction.WAKE
_STEADY = ChannelPhase.STEADY


class OccupancySource(Protocol):
    """A downstream input port's buffer occupancy, as the controller sees it.

    The network's :class:`~repro.network.flowcontrol.OccupancyTracker`
    implements this; tests use stubs.
    """

    #: Flit slots occupied right now.
    occupied: int

    def cumulative_integral(self, now: int) -> float:
        """Occupied-slots x cycles accumulated since cycle 0."""
        ...


class PortDVSController:
    """Controls the DVS channel of one router output port."""

    __slots__ = (
        "channel",
        "policy",
        "window_cycles",
        "buffer_capacity",
        "occupancy_source",
        "flight_cycles",
        "windows_evaluated",
        "requests_dropped",
        "last_link_utilization",
        "last_buffer_utilization",
        "dormant_action",
        "dormant_since",
        "windows_skipped",
        "_dormant_drops",
        "_action_counts",
        "_max_level",
        "_last_occupancy_integral",
    )

    def __init__(
        self,
        channel: DVSChannel,
        policy: DVSPolicy,
        occupancy_source: OccupancySource,
        *,
        window_cycles: int,
        buffer_capacity: int,
    ) -> None:
        if window_cycles <= 0:
            raise ConfigError("history window must be positive")
        if buffer_capacity <= 0:
            raise ConfigError("buffer capacity must be positive")
        self.channel = channel
        self.policy = policy
        self.occupancy_source = occupancy_source
        self.window_cycles = window_cycles
        self.buffer_capacity = buffer_capacity
        #: Cycles from a launch on the channel to the flit's arrival in the
        #: downstream buffer, set by the engine driving this controller.
        #: ``None`` (standalone) means nothing delivers the wake triggers,
        #: so the controller never goes dormant.
        self.flight_cycles: int | None = None
        self.windows_evaluated = 0
        self.requests_dropped = 0
        self.last_link_utilization = 0.0
        self.last_buffer_utilization = 0.0
        #: The idle action every skipped window repeats, or ``None`` while
        #: awake — the one attribute the engine's boundary loop tests.
        self.dormant_action: DVSAction | None = None
        #: Boundary cycle of the close that entered dormancy.
        self.dormant_since = 0
        #: Window closes skipped and not yet replayed (counted by the
        #: engine).
        self.windows_skipped = 0
        self._dormant_drops = False
        #: Per-action counts indexed by ``action._value_`` (negative values
        #: wrap), so counting hashes no enum member.
        self._action_counts = [0] * len(DVSAction)
        self._max_level = channel.design.max_level
        self._last_occupancy_integral = 0.0

    @property
    def actions_taken(self) -> dict[DVSAction, int]:
        """How many windows returned each action."""
        counts = self._action_counts
        return {action: counts[action._value_] for action in DVSAction}

    def close_window(self, now: int) -> DVSAction:
        """Evaluate one history window ending at router cycle *now*.

        Call only while awake: the engine wakes a dormant controller first.
        """
        channel = self.channel
        # Sync energy accrual to the window boundary so the channel sits
        # at the same quantization point here whether the engine stepped
        # or fast-forwarded since the last boundary.
        channel.finalize(now)
        busy = channel.busy_window
        channel.busy_window = 0.0
        link_utilization = min(1.0, busy / self.window_cycles)

        occupancy_total = self.occupancy_source.cumulative_integral(now)
        occupancy = occupancy_total - self._last_occupancy_integral
        self._last_occupancy_integral = occupancy_total
        buffer_utilization = min(
            1.0, occupancy / (self.window_cycles * self.buffer_capacity)
        )

        self.last_link_utilization = link_utilization
        self.last_buffer_utilization = buffer_utilization

        asleep = channel.sleeping
        policy = self.policy
        inputs = PolicyInputs(
            link_utilization,
            buffer_utilization,
            channel._level,
            self._max_level,
            now,
            asleep,
            channel.sleep_demand,
        )
        action = policy.decide(inputs)
        if asleep:
            # The policy has seen this window's wake demand; re-arm it.
            channel.sleep_demand = False
        self.windows_evaluated += 1
        self._action_counts[action._value_] += 1

        if policy.has_replay:
            replay_flits = policy.consume_replay_flits()
            if replay_flits:
                channel.charge_replay(replay_flits, now)

        if action is _HOLD:
            pass
        elif action is _SLEEP:
            if not channel.request_sleep(now):
                self.requests_dropped += 1
        elif action is _WAKE:
            if not channel.request_wake(now):
                self.requests_dropped += 1
        elif not channel.request_level(channel._level + action._value_, now):
            self.requests_dropped += 1

        if link_utilization == 0.0 and buffer_utilization == 0.0:
            flight = self.flight_cycles
            if (
                flight is not None
                and not channel.sleeping
                and self.occupancy_source.occupied == 0
                # The window's last flit has reached the downstream buffer.
                and channel.busy_until + flight <= now
            ):
                idle = policy.idle_action(inputs)
                if idle is not None:
                    self._enter_dormancy(idle, now)
        return action

    def _enter_dormancy(self, idle: DVSAction, now: int) -> None:
        """Go dormant at boundary *now* if *idle* changes no channel state."""
        channel = self.channel
        if idle is _HOLD:
            drops = False
        elif idle is _SLEEP or idle is _WAKE:
            return
        elif channel._phase is _STEADY and channel._level == channel._target_level:
            # A step from a steady channel starts a transition unless the
            # table clamps it to the current level.
            if 0 <= channel._level + idle._value_ <= self._max_level:
                return
            drops = False
        else:
            # Mid-transition: the channel drops every level request.
            drops = True
        self.dormant_action = idle
        self.dormant_since = now
        self._dormant_drops = drops

    def catch_up(self) -> None:
        """Replay the windows skipped so far, staying dormant.

        Each skipped window saw zero link and buffer utilization, left the
        policy one idle step further along and repeated the dormant
        action, so the replay is a count: the policy skips that many idle
        windows, and the window, action and (mid-transition) dropped
        request counts grow by it. The engine finalized the channel's
        energy at each skipped boundary itself.
        """
        skipped = self.windows_skipped
        action = self.dormant_action
        if skipped and action is not None:
            self.windows_skipped = 0
            self.policy.skip_idle_windows(skipped)
            self.windows_evaluated += skipped
            self._action_counts[action._value_] += skipped
            if self._dormant_drops:
                self.requests_dropped += skipped

    def wake(self) -> None:
        """Leave dormancy, replaying the skipped windows first."""
        self.catch_up()
        self.dormant_action = None
