"""Per-channel energy integration and savings reporting.

"Power consumed by the network is derived based on the frequency and
voltage levels set for all the channels in the network" (paper
Section 4.2). Each :class:`~repro.core.dvs_link.DVSChannel` already
integrates its own energy (steady-state level power over time, transition
overheads per Eq. (1)); the accountant differences those totals across a
measurement window and normalizes against the all-channels-at-max
baseline.

The accountant's internal arithmetic is **integer femtojoules** end to
end: totals and phase-start snapshots are exact integers, so a phase
delta does not depend on the order channels are summed in, and only
:func:`derive_report` converts the integer deltas to floats, in one fixed
operation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dvs_link import DVSChannel
from ..errors import SimulationError
from ..units import femtojoules_to_joules


@dataclass(frozen=True, slots=True)
class PowerReport:
    """Power summary of one measurement phase.

    Attributes:
        mean_power_w: Mean network link power over the phase, regulator
            transition overheads included.
        mean_link_power_w: Mean level-based link power only (what the
            paper's "derived from frequency and voltage levels" metric
            measures).
        baseline_power_w: Power with every channel pinned at max level.
        normalized: ``mean / baseline`` (the paper's Figures 10b/11b axis).
        normalized_link_only: ``mean_link / baseline`` — excludes the
            regulator transition overhead, which can dominate on very
            short horizons where transitions have not amortized.
        savings_factor: ``baseline / mean`` (the paper's "X" savings).
        transition_count: Voltage transitions across all channels.
        transition_energy_j: Total regulator overhead energy (Eq. (1)).
        duration_s: Phase length in seconds.
    """

    mean_power_w: float
    mean_link_power_w: float
    baseline_power_w: float
    normalized: float
    normalized_link_only: float
    savings_factor: float
    transition_count: int
    transition_energy_j: float
    duration_s: float


def derive_report(
    link_delta_fj: int,
    transition_delta_fj: int,
    transition_count: int,
    start_cycle: int,
    end_cycle: int,
    router_clock_hz: float,
    baseline_power_w: float,
) -> PowerReport:
    """Build a :class:`PowerReport` from exact integer phase deltas.

    The single place integer femtojoules become floats, so equal integer
    deltas always yield bit-identical reports.
    """
    duration_s = (end_cycle - start_cycle) / router_clock_hz
    link_power = femtojoules_to_joules(link_delta_fj) / duration_s
    overhead_power = femtojoules_to_joules(transition_delta_fj) / duration_s
    mean_power = link_power + overhead_power
    return PowerReport(
        mean_power_w=mean_power,
        mean_link_power_w=link_power,
        baseline_power_w=baseline_power_w,
        normalized=mean_power / baseline_power_w,
        normalized_link_only=link_power / baseline_power_w,
        savings_factor=(
            baseline_power_w / mean_power if mean_power > 0.0 else float("inf")
        ),
        transition_count=transition_count,
        transition_energy_j=femtojoules_to_joules(transition_delta_fj),
        duration_s=duration_s,
    )


class PowerAccountant:
    """Tracks link energy of a set of channels across a measurement phase."""

    def __init__(self, channels: list[DVSChannel], router_clock_hz: float):
        if not channels:
            raise SimulationError("no channels to account for")
        if router_clock_hz <= 0.0:
            raise SimulationError("router clock must be positive")
        self.channels = channels
        self.router_clock_hz = router_clock_hz
        first = channels[0]
        self.baseline_power_w = len(channels) * first.power_model.channel_power_w(
            first.table, first.table.max_level, first.lanes
        )
        self._start_cycle: int | None = None
        self._start_link_energy_fj = 0
        self._start_transitions = 0
        self._start_transition_energy_fj = 0

    def _totals(self, now: int) -> tuple[int, int, int]:
        link_energy_fj = 0
        transitions = 0
        transition_energy_fj = 0
        for channel in self.channels:
            channel.finalize(now)
            link_energy_fj += channel.link_energy_fj
            transitions += channel.transition_count
            transition_energy_fj += channel.transition_energy_fj
        return link_energy_fj, transitions, transition_energy_fj

    def begin(self, now: int) -> None:
        """Mark the start of the measurement phase."""
        link_energy_fj, transitions, transition_energy_fj = self._totals(now)
        self._start_cycle = now
        self._start_link_energy_fj = link_energy_fj
        self._start_transitions = transitions
        self._start_transition_energy_fj = transition_energy_fj

    def report(self, now: int) -> PowerReport:
        """Summarize the phase from :meth:`begin` to *now*."""
        if self._start_cycle is None:
            raise SimulationError("begin() was never called")
        if now <= self._start_cycle:
            raise SimulationError("measurement phase has zero length")
        link_energy_fj, transitions, transition_energy_fj = self._totals(now)
        return derive_report(
            link_energy_fj - self._start_link_energy_fj,
            transition_energy_fj - self._start_transition_energy_fj,
            transitions - self._start_transitions,
            self._start_cycle,
            now,
            self.router_clock_hz,
            self.baseline_power_w,
        )

    def instantaneous_power_w(self) -> float:
        """Sum of current channel power states."""
        return sum(channel.power_w for channel in self.channels)

    def mean_level(self) -> float:
        """Mean operating level across channels right now."""
        return sum(channel.level for channel in self.channels) / len(self.channels)
