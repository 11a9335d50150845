"""Network channel: a DVS channel bound into the topology.

Glues one :class:`~repro.core.dvs_link.DVSChannel` (eight serial links plus
regulator and DVS state machine) to a directed topology edge, with the
hop's ``pipeline_latency``: the upstream router's remaining pipeline stages
plus wire flight. The router's launch stage lands each flit downstream at
``ceil(serialization end + pipeline_latency)`` (see ``docs/model.md``).
"""

from __future__ import annotations

from ..core.dvs_link import DVSChannel
from ..errors import ConfigError
from .topology import ChannelSpec


class NetworkChannel:
    """One directed inter-router channel with DVS state."""

    __slots__ = ("spec", "dvs", "pipeline_latency")

    def __init__(self, spec: ChannelSpec, dvs: DVSChannel, pipeline_latency: int):
        if pipeline_latency < 0:
            raise ConfigError("pipeline latency must be non-negative")
        self.spec = spec
        self.dvs = dvs
        self.pipeline_latency = pipeline_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkChannel {self.spec.src_node}:{self.spec.src_port} -> "
            f"{self.spec.dst_node}:{self.spec.dst_port} level={self.dvs.level}>"
        )
