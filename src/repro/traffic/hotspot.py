"""Hotspot traffic.

A classic adversarial reference workload (not in the paper's evaluation,
but standard in the literature it spawned): a fraction of all packets
target a small set of hotspot nodes, the rest are uniform random. Useful
for studying how the DVS policy behaves around a persistent congestion
tree — the hotspot's feeding links run hot (and stay fast) while the rest
of the network idles (and scales down).
"""

from __future__ import annotations

from ..config import WorkloadConfig
from ..errors import WorkloadError
from ..network.topology import Topology
from .base import PoissonTraffic


class HotspotTraffic(PoissonTraffic):
    """Uniform traffic with a configurable hotspot bias.

    Not constructible through :func:`repro.traffic.base.make_traffic`
    (``WorkloadConfig.kind`` stays paper-faithful); build it directly and
    pass it to the simulator via the ``traffic`` argument.
    """

    def __init__(
        self,
        topology: Topology,
        config: WorkloadConfig,
        *,
        hotspots: tuple[int, ...] | None = None,
        hotspot_fraction: float = 0.3,
    ):
        super().__init__(topology, config)
        if hotspots is None:
            center = topology.radix // 2
            hotspots = (topology.node_at((center,) * topology.dimensions),)
        for node in hotspots:
            if not 0 <= node < topology.node_count:
                raise WorkloadError(f"hotspot {node} out of range")
        if not hotspots:
            raise WorkloadError("need at least one hotspot")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise WorkloadError("hotspot fraction must be in [0, 1]")
        self.hotspots = tuple(hotspots)
        self.hotspot_fraction = hotspot_fraction

    def _pair(self) -> tuple[int, int]:
        rng = self.rng
        node_count = self.topology.node_count
        if rng.random() < self.hotspot_fraction:
            dst = rng.choice(self.hotspots)
            src = rng.randrange(node_count - 1)
            if src >= dst:
                src += 1
        else:
            src = rng.randrange(node_count)
            dst = rng.randrange(node_count - 1)
            if dst >= src:
                dst += 1
        return src, dst
