"""Packets and flits.

The paper uses fixed-length packets of five flits — one head flit leading
four body flits (the last body flit doubles as the tail for flow-control
purposes) — each flit 32 bits wide (Section 4.2). Flits of one packet are
the unit of buffering and link scheduling; the packet is the unit of
routing and VC allocation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import ConfigError

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One network packet.

    Attributes:
        src: Source node id.
        dst: Destination node id.
        size_flits: Number of flits (head included).
        created_cycle: Router cycle the packet entered the source queue —
            latency is measured from here (the paper includes source
            queueing time).
        packet_id: Monotonic id for tracing and ordering assertions.
        ejected_cycle: Cycle the last flit was ejected at the destination,
            or -1 while in flight.
        vc_class: Dateline class for torus routing (see
            :mod:`repro.network.routing`); 0 on a mesh.
        last_dim: Dimension the packet last moved in, used to reset the
            dateline class at dimension turns; -1 before the first hop.
    """

    src: int
    dst: int
    size_flits: int
    created_cycle: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    ejected_cycle: int = -1
    vc_class: int = 0
    last_dim: int = -1

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ConfigError("a packet needs at least one flit")
        if self.src == self.dst:
            raise ConfigError("source and destination must differ")

    @property
    def latency(self) -> int:
        """Creation-to-ejection latency in router cycles (paper metric)."""
        if self.ejected_cycle < 0:
            raise ConfigError("packet has not been ejected yet")
        return self.ejected_cycle - self.created_cycle


@dataclass(slots=True)
class Flit:
    """One flow-control unit of a packet.

    The router's injection stage materializes a packet's flits, head first
    and tail last, when the packet leaves the source queue.
    ``buffer_arrival_cycle`` is refreshed each time the flit is enqueued
    into an input buffer, supporting the paper's input-buffer-age measure
    (Eq. (4)) without a side table.
    """

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool
    buffer_arrival_cycle: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"<Flit {kind} {self.packet.packet_id}:{self.index}>"
