"""k-ary n-cube topology builder.

The paper's simulator "supports k-ary n-cube network topologies"
(Section 4.1); the evaluation uses a two-dimensional 8x8 **mesh** (radix 8,
dimension 2, no wraparound). This module builds either the mesh or the
torus (wraparound) variant for any radix/dimension, assigns port indices,
and enumerates the directed inter-router channels.

Port numbering convention: dimension ``d`` owns ports ``2d`` (the *plus*
direction, toward higher coordinate) and ``2d+1`` (the *minus* direction);
the local injection/ejection port is ``2n``. A flit leaving node A's plus-d
port arrives on node B's minus-d input port and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import TopologyError

Coordinates = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """One directed inter-router channel."""

    channel_id: int
    src_node: int
    src_port: int
    dst_node: int
    dst_port: int


class Topology:
    """A k-ary n-cube (mesh or torus) with port-indexed channels."""

    def __init__(self, radix: int, dimensions: int, *, wraparound: bool = False):
        if radix < 2:
            raise TopologyError(f"radix must be >= 2, got {radix}")
        if dimensions < 1:
            raise TopologyError(f"dimensions must be >= 1, got {dimensions}")
        if wraparound and radix == 2:
            # A 2-ary torus would create duplicate channels between the
            # same node pair (wrap == direct); treat it as a mesh.
            wraparound = False
        self.radix = radix
        self.dimensions = dimensions
        self.wraparound = wraparound
        self.node_count = radix**dimensions
        self.ports_per_router = 2 * dimensions
        self.local_port = 2 * dimensions

        self._coords = [self._compute_coords(n) for n in range(self.node_count)]
        self._neighbors = [
            [self._compute_neighbor(n, p) for p in range(self.ports_per_router)]
            for n in range(self.node_count)
        ]
        self._channels = self._enumerate_channels()

    # -- coordinates ------------------------------------------------------

    def _compute_coords(self, node: int) -> Coordinates:
        coords = []
        for _ in range(self.dimensions):
            coords.append(node % self.radix)
            node //= self.radix
        return tuple(coords)

    def coords(self, node: int) -> Coordinates:
        """Coordinates of *node*, lowest dimension first."""
        self._check_node(node)
        return self._coords[node]

    def node_at(self, coords: Sequence[int]) -> int:
        """Node id at *coords*."""
        if len(coords) != self.dimensions:
            raise TopologyError(
                f"expected {self.dimensions} coordinates, got {len(coords)}"
            )
        node = 0
        for dim in reversed(range(self.dimensions)):
            coord = coords[dim]
            if not 0 <= coord < self.radix:
                raise TopologyError(f"coordinate {coord} out of range")
            node = node * self.radix + coord
        return node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise TopologyError(f"node {node} out of range [0, {self.node_count})")

    # -- adjacency ---------------------------------------------------------

    @staticmethod
    def plus_port(dim: int) -> int:
        """Output port toward higher coordinate in *dim*."""
        return 2 * dim

    @staticmethod
    def minus_port(dim: int) -> int:
        """Output port toward lower coordinate in *dim*."""
        return 2 * dim + 1

    @staticmethod
    def opposite_port(port: int) -> int:
        """The input port a flit from output *port* lands on."""
        return port ^ 1

    def _compute_neighbor(self, node: int, port: int) -> int | None:
        dim, is_minus = divmod(port, 2)
        coords = list(self._coords[node])
        delta = -1 if is_minus else 1
        coord = coords[dim] + delta
        if 0 <= coord < self.radix:
            coords[dim] = coord
            return self.node_at(coords)
        if self.wraparound:
            coords[dim] = coord % self.radix
            return self.node_at(coords)
        return None

    def neighbor(self, node: int, port: int) -> int | None:
        """Neighbor reached from *node* via output *port* (None at an edge)."""
        self._check_node(node)
        if not 0 <= port < self.ports_per_router:
            raise TopologyError(f"port {port} out of range")
        return self._neighbors[node][port]

    def router_ports(self, node: int) -> list[int]:
        """Output ports of *node* that have a neighbor attached."""
        self._check_node(node)
        return [
            p
            for p in range(self.ports_per_router)
            if self._neighbors[node][p] is not None
        ]

    # -- channels ----------------------------------------------------------

    def _enumerate_channels(self) -> tuple[ChannelSpec, ...]:
        specs = []
        channel_id = 0
        for node in range(self.node_count):
            for port in range(self.ports_per_router):
                neighbor = self._neighbors[node][port]
                if neighbor is None:
                    continue
                specs.append(
                    ChannelSpec(
                        channel_id=channel_id,
                        src_node=node,
                        src_port=port,
                        dst_node=neighbor,
                        dst_port=self.opposite_port(port),
                    )
                )
                channel_id += 1
        return tuple(specs)

    @property
    def channels(self) -> tuple[ChannelSpec, ...]:
        """All directed inter-router channels."""
        return self._channels

    @property
    def channel_count(self) -> int:
        return len(self._channels)

    # -- metrics ------------------------------------------------------------

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop distance between *src* and *dst*."""
        self._check_node(src)
        self._check_node(dst)
        total = 0
        for a, b in zip(self._coords[src], self._coords[dst], strict=False):
            delta = abs(a - b)
            if self.wraparound:
                delta = min(delta, self.radix - delta)
            total += delta
        return total

    def average_distance(self) -> float:
        """Mean minimal hop distance over all ordered node pairs."""
        total = 0
        pairs = 0
        for src in range(self.node_count):
            for dst in range(self.node_count):
                if src != dst:
                    total += self.distance(src, dst)
                    pairs += 1
        return total / pairs

    def nodes_within(self, center: int, radius: int) -> list[int]:
        """Nodes (excluding *center*) within hop distance *radius*."""
        self._check_node(center)
        if radius < 0:
            raise TopologyError("radius must be non-negative")
        # distance() inlined for every node at once: hops are a sum over
        # dimensions of one coordinate's offset from the center's. Adding
        # the highest dimension first lists the sums in node-id order.
        radix = self.radix
        hops = [0]
        for origin in reversed(self._coords[center]):
            line = [abs(coord - origin) for coord in range(radix)]
            if self.wraparound:
                line = [min(delta, radix - delta) for delta in line]
            hops = [total + delta for total in hops for delta in line]
        return [
            node
            for node, total in enumerate(hops)
            if total <= radius and node != center
        ]

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (edges carry channel ids)."""
        import networkx as nx

        graph = nx.DiGraph(radix=self.radix, dimensions=self.dimensions)
        graph.add_nodes_from(
            (node, {"coords": self._coords[node]}) for node in range(self.node_count)
        )
        for spec in self._channels:
            graph.add_edge(spec.src_node, spec.dst_node, channel_id=spec.channel_id)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "torus" if self.wraparound else "mesh"
        return (
            f"Topology({self.radix}-ary {self.dimensions}-cube {kind}, "
            f"{self.node_count} nodes, {self.channel_count} channels)"
        )
