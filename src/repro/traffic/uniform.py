"""Uniform random traffic.

The classic reference workload the paper contrasts with (Section 4.3):
"random uniformly distributed traffic does not exhibit any spatial or
temporal variance, other than that brought about by the topology". Packet
creations form a network-wide Poisson process at the configured aggregate
rate; each packet picks an independent uniform source and a uniform
destination distinct from it. Useful as a smooth baseline for tests and
ablations.
"""

from __future__ import annotations

from .base import PoissonTraffic


class UniformRandomTraffic(PoissonTraffic):
    """Poisson arrivals, uniform random (src, dst) pairs."""

    def _pair(self) -> tuple[int, int]:
        node_count = self.topology.node_count
        src = self.rng.randrange(node_count)
        dst = self.rng.randrange(node_count - 1)
        if dst >= src:
            dst += 1
        return src, dst
