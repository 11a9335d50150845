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
"""

from __future__ import annotations

from typing import Protocol

from ..errors import ConfigError
from .dvs_link import DVSChannel
from .policy import DVSAction, DVSPolicy, PolicyInputs


class OccupancySource(Protocol):
    """Anything reporting a cumulative buffer-occupancy time integral.

    The network's :class:`~repro.network.flowcontrol.OccupancyTracker`
    implements this; tests use stubs.
    """

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
        "windows_evaluated",
        "actions_taken",
        "requests_dropped",
        "last_link_utilization",
        "last_buffer_utilization",
        "_last_occupancy_integral",
    )

    def __init__(
        self,
        channel: DVSChannel,
        policy: DVSPolicy,
        occupancy_source: OccupancySource,
        *,
        window_cycles: int = 200,
        buffer_capacity: int = 128,
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
        self.windows_evaluated = 0
        self.actions_taken = {action: 0 for action in DVSAction}
        self.requests_dropped = 0
        self.last_link_utilization = 0.0
        self.last_buffer_utilization = 0.0
        self._last_occupancy_integral = 0.0

    def close_window(self, now: int) -> DVSAction:
        """Evaluate one history window ending at router cycle *now*."""
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
        action = self.policy.decide(
            PolicyInputs(
                link_utilization=link_utilization,
                buffer_utilization=buffer_utilization,
                level=channel.level,
                max_level=channel.table.max_level,
                cycle=now,
                asleep=asleep,
                sleep_demand=channel.sleep_demand,
            )
        )
        if asleep:
            # The policy has seen this window's wake demand; re-arm it.
            channel.sleep_demand = False
        self.windows_evaluated += 1
        self.actions_taken[action] += 1

        if self.policy.has_replay:
            replay_flits = self.policy.consume_replay_flits()
            if replay_flits:
                channel.charge_replay(replay_flits, now)

        if action is DVSAction.SLEEP:
            if not channel.request_sleep(now):
                self.requests_dropped += 1
        elif action is DVSAction.WAKE:
            if not channel.request_wake(now):
                self.requests_dropped += 1
        elif action is not DVSAction.HOLD:
            target = channel.level + action.value
            accepted = channel.request_level(target, now)
            if not accepted:
                self.requests_dropped += 1
        return action
