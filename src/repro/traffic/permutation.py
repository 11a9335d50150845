"""Permutation traffic patterns.

Permutation workloads stress routing with spatial variance: every source
sends to one fixed destination given by a permutation of the node id or
coordinates. The paper notes they "do not capture any temporal variance",
so arrivals here are Poisson at the aggregate rate with uniform choice of
source (keeping per-source rates equal in expectation).

Patterns (classic k-ary n-cube suite):

* ``transpose`` — coordinates reversed (matrix transpose on 2-D meshes);
* ``bit_complement`` — destination id is the bitwise complement;
* ``bit_reverse`` — destination id is the bit-reversed id;
* ``shuffle`` — destination id is the id rotated left by one bit.

Bit-indexed patterns require a power-of-two node count; sources whose
image equals themselves are skipped (they inject nothing), as is
conventional.
"""

from __future__ import annotations

import math

from ..config import WorkloadConfig
from ..errors import WorkloadError
from ..network.topology import Topology
from .base import PoissonTraffic


def _transpose(topology: Topology, node: int) -> int:
    coords = topology.coords(node)
    return topology.node_at(tuple(reversed(coords)))


def _node_bits(topology: Topology) -> int:
    bits = int(math.log2(topology.node_count))
    if 2**bits != topology.node_count:
        raise WorkloadError(
            "bit-indexed permutations need a power-of-two node count, "
            f"got {topology.node_count}"
        )
    return bits


def _bit_complement(topology: Topology, node: int) -> int:
    bits = _node_bits(topology)
    return node ^ ((1 << bits) - 1)


def _bit_reverse(topology: Topology, node: int) -> int:
    bits = _node_bits(topology)
    result = 0
    for i in range(bits):
        if node & (1 << i):
            result |= 1 << (bits - 1 - i)
    return result


def _shuffle(topology: Topology, node: int) -> int:
    bits = _node_bits(topology)
    mask = (1 << bits) - 1
    return ((node << 1) | (node >> (bits - 1))) & mask


#: Name -> permutation function registry.
PERMUTATIONS = {
    "transpose": _transpose,
    "bit_complement": _bit_complement,
    "bit_reverse": _bit_reverse,
    "shuffle": _shuffle,
}


class PermutationTraffic(PoissonTraffic):
    """Fixed-destination traffic under a named permutation."""

    def __init__(self, topology: Topology, config: WorkloadConfig):
        super().__init__(topology, config)
        try:
            mapping = PERMUTATIONS[config.permutation]
        except KeyError:
            raise WorkloadError(
                f"unknown permutation {config.permutation!r}; "
                f"choose from {sorted(PERMUTATIONS)}"
            ) from None
        self.destinations = [mapping(topology, n) for n in range(topology.node_count)]
        self.active_sources = [
            n for n in range(topology.node_count) if self.destinations[n] != n
        ]
        if not self.active_sources:
            raise WorkloadError(
                f"permutation {config.permutation!r} is the identity here"
            )

    def _pair(self) -> tuple[int, int]:
        src = self.rng.choice(self.active_sources)
        return src, self.destinations[src]
