"""DVS channel state machine.

Models one router-output *channel*: eight serial links sharing a single
adaptive power-supply regulator and a common frequency (paper Figure 1 and
Section 4.2). The state machine implements the paper's transition
sequencing (Section 2, Figure 2):

* **Speeding up** (level ``L`` to ``L+1``): the supply voltage ramps first
  — a slow analog ramp, 10 us per adjacent level by default — during which
  the link keeps operating at the *old* frequency. Only then does the
  frequency synthesizer retune, which takes 100 link-clock cycles during
  which the receiver re-locks and the **link is dead**.
* **Slowing down** (level ``L`` to ``L-1``): frequency first (link dead for
  the lock time, measured in *old* link clocks), then the voltage ramps
  down while the link runs at the new, lower frequency.

Commands that arrive while a transition is in flight are rejected — a
voltage ramp spans ~50 history windows at the paper's parameters, so the
controlling policy simply re-evaluates later. Multi-step retargets chain
adjacent transitions automatically.

The channel also owns its own energy bookkeeping: steady-state power is
integrated over time at the phase-appropriate level (conservatively, the
*higher* of the two voltages during a ramp) and each voltage ramp is
charged the regulator overhead of paper Eq. (1).

Energy accumulators are **integer femtojoules**: every accrual converts
its float joule increment once through
:func:`repro.units.joules_to_femtojoules` and then adds integers. Integer
addition is associative, so two channels that accrued the same increments
in different groupings hold *exactly* equal totals, and a phase delta
(total at the end minus total at the start) is exact whatever the total
was when the phase began. The float ``*_energy_j`` views remain as
derived properties.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..errors import ConfigError, LinkStateError
from ..units import femtojoules_to_joules, joules_to_femtojoules, seconds_to_cycles
from .levels import VFOperatingPoint, VFTable
from .power_model import LinkPowerModel, RegulatorModel


class ChannelPhase(enum.Enum):
    """Phase of the DVS channel state machine."""

    STEADY = "steady"
    #: Supply voltage ramping between adjacent levels; link functional.
    VOLTAGE_RAMP = "voltage_ramp"
    #: Frequency synthesizer retuning / receiver re-locking; link dead.
    FREQUENCY_LOCK = "frequency_lock"
    #: Shutdown state below level 0: clocks gated, rail at the retention
    #: voltage, only leakage drawn; link dead until woken.
    SLEEP = "sleep"
    #: Waking from SLEEP: rail recharging to level 0 then receiver
    #: re-locking; link dead for the combined duration.
    WAKE = "wake"


@dataclass(frozen=True, slots=True)
class TransitionTiming:
    """Transition latencies of a DVS link (paper Section 2 defaults).

    Attributes:
        voltage_transition_s: Wall-clock time of a voltage ramp between
            *adjacent* levels (paper: 10 us).
        frequency_transition_link_cycles: Receiver lock time of a frequency
            retune, in link clock cycles of the frequency in effect when the
            retune starts (paper: 100 cycles).
    """

    voltage_transition_s: float = 10.0e-6
    frequency_transition_link_cycles: int = 100

    def __post_init__(self) -> None:
        if self.voltage_transition_s < 0.0:
            raise ConfigError("voltage transition time must be non-negative")
        if self.frequency_transition_link_cycles < 0:
            raise ConfigError("frequency transition cycles must be non-negative")

    def voltage_cycles(self, router_clock_hz: float) -> int:
        """Voltage ramp duration in router cycles."""
        return seconds_to_cycles(self.voltage_transition_s, router_clock_hz)

    def frequency_cycles(self, link_frequency_hz: float, router_clock_hz: float) -> int:
        """Frequency lock duration in router cycles, for a retune starting
        while the link runs at *link_frequency_hz*."""
        if link_frequency_hz <= 0.0:
            raise ConfigError("link frequency must be positive")
        return int(
            math.ceil(
                self.frequency_transition_link_cycles
                * router_clock_hz
                / link_frequency_hz
            )
        )


class LevelConstants:
    """Per-level constants of one channel design, computed once.

    Everything a phase boundary needs that depends on the level alone:
    steady power, serialization and frequency-lock cycles per level, and
    per adjacent pair ``(l, l + 1)`` the voltage-ramp power
    ``lanes x P(f(l), V(l + 1))`` and regulator energy ``E(V(l), V(l + 1))``
    (``l`` is the lower level of both up- and down-steps), plus the ramp
    duration. Each is the float expression the channel used to evaluate
    per transition, so sharing them changes no bit. The engine builds one
    instance and hands it to every channel; a standalone channel builds
    its own.
    """

    __slots__ = (
        "source",
        "steady_power_w",
        "serialization_cycles",
        "lock_cycles",
        "ramp_power_w",
        "ramp_energy_fj",
        "ramp_cycles",
    )

    def __init__(
        self,
        table: VFTable,
        power_model: LinkPowerModel,
        regulator: RegulatorModel,
        *,
        lanes: int,
        router_clock_hz: float,
        timing: TransitionTiming,
    ) -> None:
        #: The parameters these constants were computed from.
        self.source = (table, power_model, regulator, lanes, router_clock_hz, timing)
        levels = range(len(table))
        self.steady_power_w = tuple(
            power_model.channel_power_w(table, level, lanes) for level in levels
        )
        self.serialization_cycles = tuple(
            table.serialization_ratio(level, router_clock_hz) for level in levels
        )
        self.lock_cycles = tuple(
            max(1, timing.frequency_cycles(table.frequency(level), router_clock_hz))
            for level in levels
        )
        lower_levels = range(table.max_level)
        self.ramp_power_w = tuple(
            lanes
            * power_model.power_w(
                VFOperatingPoint(
                    frequency_hz=table.frequency(level),
                    voltage_v=table.voltage(level + 1),
                )
            )
            for level in lower_levels
        )
        self.ramp_energy_fj = tuple(
            joules_to_femtojoules(
                regulator.transition_energy_j(
                    table.voltage(level), table.voltage(level + 1)
                )
            )
            for level in lower_levels
        )
        self.ramp_cycles = max(1, timing.voltage_cycles(router_clock_hz))


class DVSChannel:
    """One DVS-capable channel: shared-regulator serial links plus state.

    The simulator drives this object with three calls:

    * :meth:`request_level` — issued by the DVS controller at history-window
      boundaries; starts a transition if the channel is steady.
    * :meth:`on_phase_end` — advances the state machine when the scheduled
      phase boundary is reached; returns the next boundary cycle, if any.
    * :meth:`send_flit` — occupies the wire for one flit's serialization
      time and maintains busy-time accounting for link utilization.
    """

    __slots__ = (
        "table",
        "power_model",
        "regulator",
        "lanes",
        "router_clock_hz",
        "timing",
        "_level",
        "_voltage_level",
        "_target_level",
        "_phase",
        "_phase_end_cycle",
        "locked",
        "busy_until",
        "busy_cycles_total",
        "busy_window",
        "flits_sent",
        "transition_count",
        "transition_energy_fj",
        "link_energy_fj",
        "dead_cycles",
        "_power_w",
        "_last_energy_cycle",
        "_serialization_cycles",
        "level_step_counts",
        "retention_voltage_v",
        "wake_lockout_cycles",
        "sleeping",
        "sleep_demand",
        "sleep_count",
        "sleep_cycles",
        "replay_count",
        "replay_energy_fj",
        "_sleep_lockout_until",
        "_sleep_started_cycle",
        "_wake_duration",
        "_constants",
    )

    def __init__(
        self,
        table: VFTable,
        power_model: LinkPowerModel,
        regulator: RegulatorModel | None = None,
        *,
        lanes: int = 8,
        router_clock_hz: float = 1.0e9,
        timing: TransitionTiming | None = None,
        initial_level: int | None = None,
        retention_voltage_v: float = 0.3,
        wake_lockout_cycles: int = 0,
        constants: LevelConstants | None = None,
    ) -> None:
        if lanes <= 0:
            raise ConfigError("a channel needs at least one lane")
        if router_clock_hz <= 0.0:
            raise ConfigError("router clock must be positive")
        if not 0.0 < retention_voltage_v < table.voltage(0):
            raise ConfigError(
                f"retention voltage {retention_voltage_v!r} must lie in "
                f"(0, {table.voltage(0)!r}) below the level-0 rail"
            )
        if wake_lockout_cycles < 0:
            raise ConfigError("wake lockout must be non-negative")
        self.table = table
        self.power_model = power_model
        self.regulator = regulator if regulator is not None else RegulatorModel()
        self.lanes = lanes
        self.router_clock_hz = router_clock_hz
        self.timing = timing if timing is not None else TransitionTiming()
        if constants is None:
            constants = LevelConstants(
                table,
                power_model,
                self.regulator,
                lanes=lanes,
                router_clock_hz=router_clock_hz,
                timing=self.timing,
            )
        elif constants.source != (
            table, power_model, self.regulator, lanes, router_clock_hz, self.timing
        ):
            raise ConfigError("level constants were built for a different channel design")
        self._constants = constants

        level = table.max_level if initial_level is None else initial_level
        if not 0 <= level <= table.max_level:
            raise ConfigError(f"initial level {level} out of range")
        self._level = level
        self._voltage_level = level
        self._target_level = level
        self._phase = ChannelPhase.STEADY
        self._phase_end_cycle: int | None = None
        #: Fast-path mirror of ``phase is FREQUENCY_LOCK`` (the router's hot
        #: loop reads this plain attribute instead of the phase property).
        self.locked = False

        self.busy_until = 0.0
        self.busy_cycles_total = 0.0
        #: Busy time accrued since the owning controller's last window
        #: close (the controller reads and zeroes it). Reset-based rather
        #: than differenced so a window's utilization is computed from the
        #: same float increments whatever the channel's earlier history.
        self.busy_window = 0.0
        self.flits_sent = 0
        self.transition_count = 0
        self.transition_energy_fj = 0
        self.link_energy_fj = 0
        self.dead_cycles = 0
        self._power_w = constants.steady_power_w[level]
        self._last_energy_cycle = 0
        self._serialization_cycles = constants.serialization_cycles[level]
        #: Count of completed adjacent steps up/down, for diagnostics.
        self.level_step_counts = {"up": 0, "down": 0}

        #: Retention rail applied while asleep (leakage-only state).
        self.retention_voltage_v = retention_voltage_v
        #: Cycles after a wake completes during which re-sleep is refused.
        self.wake_lockout_cycles = wake_lockout_cycles
        #: Fast-path mirror of ``phase is SLEEP`` (router blocked paths
        #: read this plain attribute to record wake demand).
        self.sleeping = False
        #: Set by the routers when traffic wanted this channel while it
        #: slept; read and cleared by the port controller each window.
        self.sleep_demand = False
        self.sleep_count = 0
        self.sleep_cycles = 0
        #: Razor-style replay bookkeeping (see :meth:`charge_replay`).
        self.replay_count = 0
        self.replay_energy_fj = 0
        self._sleep_lockout_until = 0
        self._sleep_started_cycle = 0
        self._wake_duration = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def level(self) -> int:
        """Level whose *frequency* is currently in effect."""
        return self._level

    @property
    def voltage_level(self) -> int:
        """Level whose *voltage* is currently applied (differs mid-ramp)."""
        return self._voltage_level

    @property
    def target_level(self) -> int:
        """Level the channel is heading toward (== level when steady)."""
        return self._target_level

    @property
    def phase(self) -> ChannelPhase:
        return self._phase

    @property
    def is_steady(self) -> bool:
        return self._phase is ChannelPhase.STEADY and self._level == self._target_level

    @property
    def functional(self) -> bool:
        """Whether the link can carry flits right now."""
        return not self.locked

    @property
    def serialization_cycles(self) -> float:
        """Router cycles one flit occupies the wire at the current level."""
        return self._serialization_cycles

    @property
    def pending_event_cycle(self) -> int | None:
        """Router cycle at which :meth:`on_phase_end` must be called next."""
        return self._phase_end_cycle

    @property
    def power_w(self) -> float:
        """Instantaneous channel power (all lanes) in watts."""
        return self._power_w

    @property
    def link_energy_j(self) -> float:
        """Integrated level-based link energy in joules (float view)."""
        return femtojoules_to_joules(self.link_energy_fj)

    @property
    def transition_energy_j(self) -> float:
        """Regulator transition overhead energy in joules (float view)."""
        return femtojoules_to_joules(self.transition_energy_fj)

    @property
    def replay_energy_j(self) -> float:
        """Replay retransmission energy in joules (float view)."""
        return femtojoules_to_joules(self.replay_energy_fj)

    @property
    def total_energy_fj(self) -> int:
        """Link plus transition energy, exact integer femtojoules."""
        return self.link_energy_fj + self.transition_energy_fj

    @property
    def total_energy_j(self) -> float:
        """Link energy integrated so far plus regulator transition overheads."""
        return femtojoules_to_joules(self.total_energy_fj)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def request_level(self, target_level: int, now: int) -> bool:
        """Ask the channel to move to *target_level*.

        Returns ``True`` if the request was accepted (a transition started
        or the channel is already there), ``False`` if the channel is
        mid-transition and the request was dropped — the paper's policy
        simply retries at a later history window.
        """
        target_level = self.table.clamp(target_level)
        if not self.is_steady:
            return False
        if target_level == self._level:
            return True
        self._target_level = target_level
        self._begin_step(now)
        return True

    def sleep_permitted(self, now: int) -> bool:
        """Whether :meth:`request_sleep` at *now* would be accepted.

        True exactly when the channel sits steady at level 0 and the
        post-wake lockout has expired — the acceptance predicate of
        :meth:`request_sleep`, readable without mutating channel state.
        """
        return (
            self._phase is ChannelPhase.STEADY
            and self._level == self._target_level == 0
            and now >= self._sleep_lockout_until
        )

    def request_sleep(self, now: int) -> bool:
        """Enter the shutdown state below level 0 (Tsai-style link sleep).

        Legal only when the channel sits steady at level 0 and the
        post-wake lockout has expired; returns ``False`` (request dropped)
        otherwise. Entry is immediate — the link goes dead right away and
        the rail decay to the retention voltage is charged as one Eq. (1)
        transition — while the full latency cost is paid on the wake path.
        """
        if not self.sleep_permitted(now):
            return False
        self._accrue_energy(now)
        self.transition_energy_fj += joules_to_femtojoules(
            self.regulator.transition_energy_j(
                self.table.voltage(0), self.retention_voltage_v
            )
        )
        self.transition_count += 1
        self.sleep_count += 1
        self._phase = ChannelPhase.SLEEP
        self.locked = True
        self.sleeping = True
        self.sleep_demand = False
        self._power_w = self.power_model.sleep_power_w(
            self.retention_voltage_v, self.lanes
        )
        self._phase_end_cycle = None
        self._sleep_started_cycle = now
        return True

    def request_wake(self, now: int) -> bool:
        """Start waking a slept channel back to level 0.

        The rail recharges (one voltage-ramp time) and the receiver then
        re-locks; the link stays dead for the combined duration and the
        recharge is billed as one Eq. (1) transition plus level-0 power
        for the wake window.
        """
        if self._phase is not ChannelPhase.SLEEP:
            return False
        self._accrue_energy(now)
        self.sleep_cycles += now - self._sleep_started_cycle
        self.transition_energy_fj += joules_to_femtojoules(
            self.regulator.transition_energy_j(
                self.retention_voltage_v, self.table.voltage(0)
            )
        )
        self.transition_count += 1
        self._phase = ChannelPhase.WAKE
        self.locked = True
        self.sleeping = False
        constants = self._constants
        self._power_w = constants.steady_power_w[0]
        self._wake_duration = constants.ramp_cycles + constants.lock_cycles[self._level]
        self._phase_end_cycle = now + self._wake_duration
        return True

    def force_level(self, level: int, now: int = 0) -> None:
        """Jump instantaneously to *level* (initialization / tests only)."""
        if not self.is_steady:
            raise LinkStateError("cannot force a level during a transition")
        level = self.table.clamp(level)
        self._accrue_energy(now)
        self._level = level
        self._voltage_level = level
        self._target_level = level
        self._serialization_cycles = self._constants.serialization_cycles[level]
        self._power_w = self._constants.steady_power_w[level]

    def on_phase_end(self, now: int) -> int | None:
        """Advance the state machine at a phase boundary.

        Must be called exactly at :attr:`pending_event_cycle`. Returns the
        next boundary cycle if the transition continues, else ``None``.
        """
        if self._phase_end_cycle is None:
            raise LinkStateError("no phase end is pending")
        if now != self._phase_end_cycle:
            raise LinkStateError(
                f"phase end expected at cycle {self._phase_end_cycle}, got {now}"
            )
        self._accrue_energy(now)
        going_up = self._target_level > self._level

        if self._phase is ChannelPhase.VOLTAGE_RAMP:
            if going_up:
                # Voltage reached the next level; now retune the frequency
                # (link dead, timed in old link clocks).
                self._voltage_level = self._level + 1
                self._start_frequency_lock(now)
            else:
                # Downward step complete: voltage has settled at the new level.
                self._voltage_level = self._level
                self._finish_step(now, step="down")
        elif self._phase is ChannelPhase.FREQUENCY_LOCK:
            self.dead_cycles += self._constants.lock_cycles[self._level]
            if going_up:
                # Frequency now matches the already-raised voltage.
                self._level += 1
                self._finish_step(now, step="up")
            else:
                # Frequency dropped; ramp the voltage down (link functional).
                self._level -= 1
                self._serialization_cycles = self._constants.serialization_cycles[
                    self._level
                ]
                self._start_voltage_ramp(now)
        elif self._phase is ChannelPhase.WAKE:
            # Rail recharged and receiver re-locked: back to steady level 0.
            self.dead_cycles += self._wake_duration
            self._sleep_lockout_until = now + self.wake_lockout_cycles
            self._power_w = self._constants.steady_power_w[self._level]
            self._phase = ChannelPhase.STEADY
            self.locked = False
            self._phase_end_cycle = None
        else:
            raise LinkStateError("phase end fired while channel was steady")
        return self._phase_end_cycle

    # ------------------------------------------------------------------
    # Wire occupancy
    # ------------------------------------------------------------------

    def can_accept_flit(self, now: float) -> bool:
        """Whether a flit handed over at router cycle *now* can be taken.

        The channel interface includes a one-flit output staging register:
        a flit is accepted if its serialization can *start* within this
        router cycle (``busy_until < now + 1``), so a link whose per-flit
        occupancy is fractional (e.g. 1.33 router cycles) sustains its full
        rated bandwidth despite router-clock-aligned handovers.
        """
        return self.functional and self.busy_until < now + 1

    def send_flit(self, now: float) -> float:  # repro-hot
        """Accept one flit; return the cycle its serialization completes."""
        if self.locked:  # == not functional, without the property call
            raise LinkStateError("flit sent while link is locked out")
        if self.busy_until >= now + 1:
            raise LinkStateError(
                f"flit sent at {now} while wire busy until {self.busy_until}"
            )
        start = self.busy_until if self.busy_until > now else now
        occupancy = self._serialization_cycles
        self.busy_until = start + occupancy
        self.busy_cycles_total += occupancy
        self.busy_window += occupancy
        self.flits_sent += 1
        return self.busy_until

    def charge_replay(self, flits: int, now: float) -> None:
        """Charge a Razor-style replay penalty of *flits* retransmissions.

        Error-correction policies call this when their error model fires:
        the replayed flits re-occupy the wire (extending ``busy_until``, so
        downstream traffic sees real backpressure) and their switching
        energy is billed on top of the steady-state integration, which in
        this model is activity-independent.
        """
        if flits <= 0:
            return
        occupancy = flits * self._serialization_cycles
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + occupancy
        self.busy_cycles_total += occupancy
        self.busy_window += occupancy
        self.replay_count += flits
        energy_fj = joules_to_femtojoules(
            self._power_w * (occupancy / self.router_clock_hz)
        )
        self.replay_energy_fj += energy_fj
        self.link_energy_fj += energy_fj

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------

    def finalize(self, now: int) -> None:
        """Integrate energy up to *now* (safe to call at any cycle).

        Transition starts pre-bill energy up to the phase start, which can
        sit a few cycles in the future when a flit is mid-wire; a finalize
        landing inside that pre-billed span (e.g. a series-window close
        during a DVS transition) is a no-op rather than an error.
        """
        if now < self._last_energy_cycle:
            return
        self._accrue_energy(now)
        if self._phase is ChannelPhase.SLEEP:
            # Account sleep time for a run ending mid-sleep (idempotent:
            # the start marker advances with the accounted span).
            self.sleep_cycles += now - self._sleep_started_cycle
            self._sleep_started_cycle = now

    def average_power_w(self, now: int) -> float:
        """Mean channel power from cycle 0 to *now* (finalizes bookkeeping)."""
        if now <= 0:
            return self._power_w
        self.finalize(now)
        return self.total_energy_j / (now / self.router_clock_hz)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _accrue_energy(self, now: int) -> None:
        if now < self._last_energy_cycle:
            raise LinkStateError(
                f"time ran backwards: {now} < {self._last_energy_cycle}"
            )
        elapsed = now - self._last_energy_cycle
        if elapsed:
            self.link_energy_fj += joules_to_femtojoules(
                self._power_w * (elapsed / self.router_clock_hz)
            )
            self._last_energy_cycle = now

    def _begin_step(self, now: int) -> None:
        """Start one adjacent-level step toward the target."""
        self._accrue_energy(now)
        # Never start a phase while a flit is mid-wire.
        start = max(now, int(math.ceil(self.busy_until)))
        if self._target_level > self._level:
            self._start_voltage_ramp(start)
        else:
            self._start_frequency_lock(start)

    def _start_voltage_ramp(self, now: int) -> None:
        """Begin a voltage ramp between ``_level`` and the level above it;
        the link stays functional.

        An upward step ramps toward the next level's rail before the
        frequency retunes; a downward step ramps from the old level's rail
        after it. Either way the ramp runs at the frequency of ``_level``,
        the lower of the two, and is conservatively billed at the higher
        voltage (the regulator holds the rail at or between them; billing
        high keeps the savings estimate pessimistic, matching the paper's
        "very conservative assumptions").
        """
        self._accrue_energy(now)
        constants = self._constants
        level = self._level
        self.transition_energy_fj += constants.ramp_energy_fj[level]
        self.transition_count += 1
        self._power_w = constants.ramp_power_w[level]
        self._phase = ChannelPhase.VOLTAGE_RAMP
        self.locked = False
        self._phase_end_cycle = now + constants.ramp_cycles

    def _start_frequency_lock(self, now: int) -> None:
        self._accrue_energy(now)
        self._phase = ChannelPhase.FREQUENCY_LOCK
        self.locked = True
        self._phase_end_cycle = now + self._constants.lock_cycles[self._level]

    def _finish_step(self, now: int, step: str) -> None:
        self.level_step_counts[step] += 1
        self._voltage_level = self._level
        self._serialization_cycles = self._constants.serialization_cycles[self._level]
        self._power_w = self._constants.steady_power_w[self._level]
        self._phase = ChannelPhase.STEADY
        self.locked = False
        if self._level != self._target_level:
            self._begin_step(now)
        else:
            self._phase_end_cycle = None
