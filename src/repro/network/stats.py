"""Structured snapshots of network state.

:func:`snapshot` extracts a :class:`NetworkSnapshot` from a simulator —
per-channel and per-router activity, level distribution, buffering — as
plain data, for analysis code that should not reach into simulator
internals. Everything is computed on demand; taking a snapshot does not
perturb the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from .simulator import Simulator


@dataclass(frozen=True, slots=True)
class ChannelStats:
    """Activity summary of one directed channel."""

    src_node: int
    src_port: int
    dst_node: int
    level: int
    flits_sent: int
    utilization: float
    transition_count: int
    dead_cycles: int


@dataclass(frozen=True, slots=True)
class RouterStats:
    """Activity summary of one router."""

    node: int
    flits_launched: int
    flits_ejected: int
    packets_ejected: int
    buffered_flits: int
    source_queue_depth: int


@dataclass(frozen=True, slots=True)
class NetworkSnapshot:
    """Whole-network state at one instant."""

    cycle: int
    channels: tuple[ChannelStats, ...]
    routers: tuple[RouterStats, ...]
    level_histogram: tuple[int, ...] = field(default=())

    @property
    def total_flits_in_buffers(self) -> int:
        return sum(router.buffered_flits for router in self.routers)

    @property
    def mean_level(self) -> float:
        if not self.channels:
            raise SimulationError("snapshot has no channels")
        return sum(ch.level for ch in self.channels) / len(self.channels)

    def busiest_channels(self, count: int = 5) -> tuple[ChannelStats, ...]:
        """The *count* channels with the most flits sent."""
        ranked = sorted(self.channels, key=lambda ch: ch.flits_sent, reverse=True)
        return tuple(ranked[:count])

    def hottest_routers(self, count: int = 5) -> tuple[RouterStats, ...]:
        """The *count* routers with the deepest buffering + backlog."""
        ranked = sorted(
            self.routers,
            key=lambda r: r.buffered_flits + r.source_queue_depth,
            reverse=True,
        )
        return tuple(ranked[:count])


def snapshot(simulator: Simulator) -> NetworkSnapshot:
    """Take a :class:`NetworkSnapshot` of *simulator* right now."""
    now = simulator.now
    channels = []
    level_count = len(simulator.channels[0].dvs.table) if simulator.channels else 0
    histogram = [0] * level_count
    for channel in simulator.channels:
        dvs = channel.dvs
        histogram[dvs.level] += 1
        utilization = dvs.busy_cycles_total / now if now > 0 else 0.0
        channels.append(
            ChannelStats(
                src_node=channel.spec.src_node,
                src_port=channel.spec.src_port,
                dst_node=channel.spec.dst_node,
                level=dvs.level,
                flits_sent=dvs.flits_sent,
                utilization=min(1.0, utilization),
                transition_count=dvs.transition_count,
                dead_cycles=dvs.dead_cycles,
            )
        )
    routers = [
        RouterStats(
            node=router.node,
            flits_launched=router.flits_launched,
            flits_ejected=router.flits_ejected,
            packets_ejected=router.packets_ejected,
            buffered_flits=router.total_buffered,
            source_queue_depth=len(router.inj_queue),
        )
        for router in simulator.routers
    ]
    return NetworkSnapshot(
        cycle=now,
        channels=tuple(channels),
        routers=tuple(routers),
        level_histogram=tuple(histogram),
    )
