"""Sphere-of-locality destination selection.

The paper's first-level task model places communication "based on the
model of sphere of locality [Reed & Grunwald]": a node communicates
preferentially with nodes in its neighborhood. With probability
``locality_probability`` the destination is drawn uniformly from the nodes
within ``locality_radius`` hops of the source; otherwise uniformly from
the remaining nodes. Neighborhoods are computed once per source node and
cached.
"""

from __future__ import annotations

import random

from ..errors import WorkloadError
from ..network.topology import Topology


class SphereOfLocality:
    """Destination chooser with a local/remote split."""

    def __init__(
        self, topology: Topology, radius: int, local_probability: float
    ):
        if radius < 1:
            raise WorkloadError("locality radius must be >= 1")
        if not 0.0 <= local_probability <= 1.0:
            raise WorkloadError("locality probability must be in [0, 1]")
        self.topology = topology
        self.radius = radius
        self.local_probability = local_probability
        self._near: dict[int, list[int]] = {}
        self._far: dict[int, list[int]] = {}

    def _split(self, src: int) -> tuple[list[int], list[int]]:
        near = self._near.get(src)
        if near is None:
            near = self.topology.nodes_within(src, self.radius)
            excluded = set(near)
            excluded.add(src)
            far = [
                node
                for node in range(self.topology.node_count)
                if node not in excluded
            ]
            self._near[src] = near
            self._far[src] = far
        return near, self._far[src]

    def choose(self, src: int, rng: random.Random) -> int:
        """Pick a destination for a task session rooted at *src*."""
        near, far = self._split(src)
        if near and (not far or rng.random() < self.local_probability):
            return rng.choice(near)
        if not far:
            raise WorkloadError(f"node {src} has no possible destination")
        return rng.choice(far)
