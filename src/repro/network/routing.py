"""Routing functions: deterministic and adaptive (paper Section 4.1).

Three routing functions are provided:

* :class:`DimensionOrderRouting` on a mesh — classic XY/dimension-order
  routing, deadlock-free by turn ordering, any VC usable.
* :class:`DimensionOrderRouting` on a torus — adds the dateline discipline:
  within each dimension's ring a packet starts on VC class 0 and moves to
  class 1 after crossing the wraparound edge, which breaks the ring's cyclic
  channel dependency (requires >= 2 virtual channels).
* :class:`MinimalAdaptiveRouting` on a mesh — Duato-style: VC 0 is an
  escape channel restricted to the dimension-order route, the remaining VCs
  are fully adaptive over all minimal (productive) directions.

A routing function answers three questions for the router:

* ``candidates(node, dst)`` — productive output ports, in preference order;
* ``allowed_vcs(node, out_port, dst, vc_class)`` — which downstream VCs a
  packet of the given dateline class may claim through that port;
* ``next_vc_class(node, out_port, vc_class)`` — the packet's dateline class
  after traversing that channel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import ConfigError, RoutingError
from .topology import Topology


class RoutingFunction(ABC):
    """Interface the router uses to steer head flits."""

    def __init__(self, topology: Topology, vcs_per_port: int):
        if vcs_per_port < 1:
            raise ConfigError("need at least one virtual channel")
        self.topology = topology
        self.vcs_per_port = vcs_per_port
        self._all_vcs = tuple(range(vcs_per_port))

    @abstractmethod
    def candidates(self, node: int, dst: int) -> tuple[int, ...]:
        """Productive output ports from *node* toward *dst*, best first."""

    def allowed_vcs(
        self, node: int, out_port: int, dst: int, vc_class: int
    ) -> tuple[int, ...]:
        """Downstream VCs claimable through *out_port* (default: all)."""
        return self._all_vcs

    def next_vc_class(self, node: int, out_port: int, vc_class: int) -> int:
        """Dateline class after traversing *out_port* (default: unchanged)."""
        return vc_class

    def _check(self, node: int, dst: int) -> None:
        if node == dst:
            raise RoutingError(f"asked to route at destination node {node}")


class DimensionOrderRouting(RoutingFunction):
    """Dimension-order (XY) routing on mesh or torus.

    On a torus the route goes the shorter way around each ring (ties break
    toward the plus direction) and VC selection follows the dateline rule.
    """

    name = "dor"

    #: Maximum (node, dst) entries in the route cache, which fills as
    #: pairs are first asked for; oldest-inserted entries are evicted first
    #: once full (dict preserves insert order).
    _CACHE_LIMIT = 8192

    def __init__(self, topology: Topology, vcs_per_port: int):
        super().__init__(topology, vcs_per_port)
        if topology.wraparound and vcs_per_port < 2:
            raise ConfigError("torus dimension-order routing needs >= 2 VCs")
        self._route_cache: dict[tuple[int, int], int] = {}

    def route_port(self, node: int, dst: int) -> int:
        """The unique dimension-order output port from *node* toward *dst*."""
        cache = self._route_cache
        key = (node, dst)
        port = cache.get(key)
        if port is None:
            port = self._compute_route_port(node, dst)
            if len(cache) >= self._CACHE_LIMIT:
                del cache[next(iter(cache))]
            cache[key] = port
        return port

    def _compute_route_port(self, node: int, dst: int) -> int:
        self._check(node, dst)
        topo = self.topology
        src_coords = topo.coords(node)
        dst_coords = topo.coords(dst)
        for dim in range(topo.dimensions):
            a, b = src_coords[dim], dst_coords[dim]
            if a == b:
                continue
            if not topo.wraparound:
                return topo.plus_port(dim) if b > a else topo.minus_port(dim)
            forward = (b - a) % topo.radix
            backward = (a - b) % topo.radix
            if forward <= backward:
                return topo.plus_port(dim)
            return topo.minus_port(dim)
        raise RoutingError(f"no productive dimension from {node} to {dst}")

    def candidates(self, node: int, dst: int) -> tuple[int, ...]:
        return (self.route_port(node, dst),)

    def allowed_vcs(
        self, node: int, out_port: int, dst: int, vc_class: int
    ) -> tuple[int, ...]:
        if not self.topology.wraparound:
            return self._all_vcs
        # Dateline discipline: class 0 packets may only claim VC 0, class 1
        # packets only VC 1; any extra VCs beyond the first two are open.
        extra = tuple(range(2, self.vcs_per_port))
        return (min(vc_class, 1),) + extra

    def next_vc_class(self, node: int, out_port: int, vc_class: int) -> int:
        if not self.topology.wraparound:
            return 0
        topo = self.topology
        dim, is_minus = divmod(out_port, 2)
        src_coord = topo.coords(node)[dim]
        # Crossing the wrap edge of this ring raises the class to 1; moving
        # within the ring keeps it; the class resets to 0 when the packet
        # later turns into a new dimension (detected by the router, which
        # calls with vc_class already reset).
        wraps = (src_coord == topo.radix - 1 and not is_minus) or (
            src_coord == 0 and is_minus
        )
        return 1 if wraps else vc_class


class MinimalAdaptiveRouting(RoutingFunction):
    """Minimal adaptive routing on a mesh with a dimension-order escape VC.

    All productive directions are candidates; VC 0 through any port is
    restricted to the dimension-order route so the escape subnetwork is the
    deadlock-free DOR network (Duato's protocol). Requires >= 2 VCs to give
    the adaptive class somewhere to live.
    """

    name = "adaptive"

    #: Maximum cached (node, dst) candidate tuples; oldest-inserted
    #: entries are evicted first once full.
    _CACHE_LIMIT = 8192

    def __init__(self, topology: Topology, vcs_per_port: int):
        super().__init__(topology, vcs_per_port)
        if topology.wraparound:
            raise ConfigError("minimal adaptive routing is mesh-only here")
        if vcs_per_port < 2:
            raise ConfigError("minimal adaptive routing needs >= 2 VCs")
        self._dor = DimensionOrderRouting(topology, vcs_per_port)
        self._candidate_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def candidates(self, node: int, dst: int) -> tuple[int, ...]:
        cache = self._candidate_cache
        cached = cache.get((node, dst))
        if cached is not None:
            return cached
        result = self._compute_candidates(node, dst)
        if len(cache) >= self._CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[(node, dst)] = result
        return result

    def _compute_candidates(self, node: int, dst: int) -> tuple[int, ...]:
        self._check(node, dst)
        topo = self.topology
        src_coords = topo.coords(node)
        dst_coords = topo.coords(dst)
        ports = []
        for dim in range(topo.dimensions):
            a, b = src_coords[dim], dst_coords[dim]
            if b > a:
                ports.append(topo.plus_port(dim))
            elif b < a:
                ports.append(topo.minus_port(dim))
        if not ports:
            raise RoutingError(f"no productive dimension from {node} to {dst}")
        # Prefer the dimension with the most remaining hops (keeps future
        # adaptivity high), falling back to dimension order on ties.
        ports.sort(
            key=lambda p: -abs(dst_coords[p // 2] - src_coords[p // 2]),
        )
        return tuple(ports)

    def allowed_vcs(
        self, node: int, out_port: int, dst: int, vc_class: int
    ) -> tuple[int, ...]:
        adaptive = tuple(range(1, self.vcs_per_port))
        if out_port == self._dor.route_port(node, dst):
            return (0,) + adaptive
        return adaptive

    def next_vc_class(self, node: int, out_port: int, vc_class: int) -> int:
        return 0


_ROUTING_NAMES = {
    "dor": DimensionOrderRouting,
    "adaptive": MinimalAdaptiveRouting,
}


def make_routing(name: str, topology: Topology, vcs_per_port: int) -> RoutingFunction:
    """Build a routing function by configuration name ('dor', 'adaptive')."""
    try:
        cls = _ROUTING_NAMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown routing {name!r}; choose from {sorted(_ROUTING_NAMES)}"
        ) from None
    return cls(topology, vcs_per_port)
