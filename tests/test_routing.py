"""Tests for routing functions."""

import pytest

from repro.errors import ConfigError, RoutingError
from repro.network.routing import (
    DimensionOrderRouting,
    MinimalAdaptiveRouting,
    make_routing,
)
from repro.network.topology import Topology


def walk_route(routing, topology, src, dst, max_hops=64):
    """Follow a deterministic route; return the hop count."""
    node = src
    hops = 0
    while node != dst:
        port = routing.candidates(node, dst)[0]
        node = topology.neighbor(node, port)
        assert node is not None
        hops += 1
        assert hops <= max_hops, "routing loop"
    return hops


class TestMeshDOR:
    @pytest.fixture(scope="class")
    def setup(self):
        topology = Topology(5, 2)
        return topology, DimensionOrderRouting(topology, 2)

    def test_routes_are_minimal(self, setup):
        topology, routing = setup
        for src in range(topology.node_count):
            for dst in range(topology.node_count):
                if src == dst:
                    continue
                hops = walk_route(routing, topology, src, dst)
                assert hops == topology.distance(src, dst)

    def test_x_before_y(self, setup):
        topology, routing = setup
        src = topology.node_at((0, 0))
        dst = topology.node_at((2, 2))
        assert routing.candidates(src, dst) == (Topology.plus_port(0),)

    def test_all_vcs_allowed_on_mesh(self, setup):
        topology, routing = setup
        src = topology.node_at((0, 0))
        dst = topology.node_at((2, 2))
        assert routing.allowed_vcs(src, 0, dst, 0) == (0, 1)

    def test_vc_class_stays_zero_on_mesh(self, setup):
        topology, routing = setup
        assert routing.next_vc_class(0, 0, 0) == 0

    def test_route_at_destination_raises(self, setup):
        _, routing = setup
        with pytest.raises(RoutingError):
            routing.route_port(3, 3)

    def test_large_topology_routes_lazily(self):
        topology = Topology(6, 4)  # 1296 nodes
        routing = DimensionOrderRouting(topology, 2)
        src, dst = 0, topology.node_count - 1
        assert walk_route(routing, topology, src, dst) == topology.distance(src, dst)


class TestTorusDOR:
    @pytest.fixture(scope="class")
    def setup(self):
        topology = Topology(4, 2, wraparound=True)
        return topology, DimensionOrderRouting(topology, 2)

    def test_routes_take_short_way_around(self, setup):
        topology, routing = setup
        src = topology.node_at((0, 0))
        dst = topology.node_at((3, 0))
        # Wrapping backward is 1 hop; forward is 3.
        assert routing.candidates(src, dst) == (Topology.minus_port(0),)

    def test_routes_are_minimal(self, setup):
        topology, routing = setup
        for src in range(topology.node_count):
            for dst in range(topology.node_count):
                if src != dst:
                    hops = walk_route(routing, topology, src, dst)
                    assert hops == topology.distance(src, dst)

    def test_dateline_raises_class(self, setup):
        topology, routing = setup
        edge = topology.node_at((3, 0))
        # Crossing the wrap edge in +x raises the class to 1.
        assert routing.next_vc_class(edge, Topology.plus_port(0), 0) == 1
        inner = topology.node_at((1, 0))
        assert routing.next_vc_class(inner, Topology.plus_port(0), 0) == 0

    def test_dateline_vc_restriction(self, setup):
        topology, routing = setup
        node = topology.node_at((1, 0))
        dst = topology.node_at((3, 0))
        assert routing.allowed_vcs(node, 0, dst, 0) == (0,)
        assert routing.allowed_vcs(node, 0, dst, 1) == (1,)

    def test_torus_needs_two_vcs(self):
        topology = Topology(4, 2, wraparound=True)
        with pytest.raises(ConfigError):
            DimensionOrderRouting(topology, 1)


class TestMinimalAdaptive:
    @pytest.fixture(scope="class")
    def setup(self):
        topology = Topology(5, 2)
        return topology, MinimalAdaptiveRouting(topology, 2)

    def test_candidates_are_productive(self, setup):
        topology, routing = setup
        for src in range(topology.node_count):
            for dst in range(topology.node_count):
                if src == dst:
                    continue
                distance = topology.distance(src, dst)
                for port in routing.candidates(src, dst):
                    neighbor = topology.neighbor(src, port)
                    assert topology.distance(neighbor, dst) == distance - 1

    def test_two_candidates_off_axis(self, setup):
        topology, routing = setup
        src = topology.node_at((0, 0))
        dst = topology.node_at((2, 3))
        assert len(routing.candidates(src, dst)) == 2

    def test_escape_vc_only_on_dor_port(self, setup):
        topology, routing = setup
        src = topology.node_at((0, 0))
        dst = topology.node_at((2, 3))
        dor_port = DimensionOrderRouting(topology, 2).route_port(src, dst)
        for port in routing.candidates(src, dst):
            allowed = routing.allowed_vcs(src, port, dst, 0)
            if port == dor_port:
                assert 0 in allowed
            else:
                assert 0 not in allowed
                assert allowed == (1,)

    def test_needs_two_vcs(self):
        with pytest.raises(ConfigError):
            MinimalAdaptiveRouting(Topology(4, 2), 1)

    def test_mesh_only(self):
        with pytest.raises(ConfigError):
            MinimalAdaptiveRouting(Topology(4, 2, wraparound=True), 2)


class TestFactory:
    def test_names(self):
        topology = Topology(4, 2)
        assert isinstance(make_routing("dor", topology, 2), DimensionOrderRouting)
        assert isinstance(
            make_routing("adaptive", topology, 2), MinimalAdaptiveRouting
        )

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_routing("magic", Topology(4, 2), 2)
