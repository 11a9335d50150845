"""Tests for k-ary n-cube topology construction."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.network.topology import Topology


class TestMesh8x8:
    @pytest.fixture(scope="class")
    def topo(self):
        return Topology(8, 2)

    def test_node_count(self, topo):
        assert topo.node_count == 64

    def test_channel_count(self, topo):
        # 2 * 2 * 8 * 7 directed channels in an 8x8 mesh.
        assert topo.channel_count == 224

    def test_coords_round_trip(self, topo):
        for node in range(topo.node_count):
            assert topo.node_at(topo.coords(node)) == node

    def test_corner_has_two_neighbors(self, topo):
        corner = topo.node_at((0, 0))
        assert len(topo.router_ports(corner)) == 2

    def test_center_has_four_neighbors(self, topo):
        center = topo.node_at((3, 3))
        assert len(topo.router_ports(center)) == 4

    def test_neighbor_symmetry(self, topo):
        # dst_port is an input port; the reverse channel leaves through the
        # same-numbered output port back to the source.
        for spec in topo.channels:
            assert topo.neighbor(spec.dst_node, spec.dst_port) == spec.src_node

    def test_distance_matches_manhattan(self, topo):
        a = topo.node_at((1, 2))
        b = topo.node_at((5, 7))
        assert topo.distance(a, b) == 4 + 5

    def test_average_distance(self, topo):
        # 2 * (k^2 - 1) / (3k) per dimension for a k-mesh under uniform pairs
        # ... computed exactly: for k=8 per-dim mean over distinct pairs is
        # different; just check a sane range and symmetry.
        avg = topo.average_distance()
        assert 5.0 < avg < 5.7

    def test_nodes_within(self, topo):
        center = topo.node_at((3, 3))
        within1 = topo.nodes_within(center, 1)
        assert len(within1) == 4
        within2 = topo.nodes_within(center, 2)
        assert len(within2) == 12

    def test_local_port_index(self, topo):
        assert topo.local_port == 4
        assert topo.ports_per_router == 4


class TestNodesWithin:
    """nodes_within inlines the hop distance; it must select exactly the
    nodes the checked distance() puts within the radius, in id order."""

    @pytest.mark.parametrize(
        "topo",
        [Topology(8, 2), Topology(5, 2, wraparound=True), Topology(4, 3)],
        ids=["mesh8x8", "torus5x5", "mesh4x4x4"],
    )
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_matches_distance_definition(self, topo, radius):
        for center in range(topo.node_count):
            expected = [
                node
                for node in range(topo.node_count)
                if node != center and topo.distance(center, node) <= radius
            ]
            assert topo.nodes_within(center, radius) == expected


class TestTorus:
    def test_wraparound_neighbors(self):
        topo = Topology(4, 2, wraparound=True)
        edge = topo.node_at((3, 1))
        wrapped = topo.neighbor(edge, Topology.plus_port(0))
        assert wrapped == topo.node_at((0, 1))

    def test_all_routers_full_degree(self):
        topo = Topology(4, 2, wraparound=True)
        for node in range(topo.node_count):
            assert len(topo.router_ports(node)) == 4

    def test_channel_count(self):
        topo = Topology(4, 2, wraparound=True)
        assert topo.channel_count == 4 * 16  # every port attached

    def test_torus_distance_wraps(self):
        topo = Topology(8, 2, wraparound=True)
        a = topo.node_at((0, 0))
        b = topo.node_at((7, 0))
        assert topo.distance(a, b) == 1

    def test_radix2_torus_degrades_to_mesh(self):
        topo = Topology(2, 2, wraparound=True)
        assert not topo.wraparound


class TestOtherShapes:
    def test_ring(self):
        topo = Topology(5, 1, wraparound=True)
        assert topo.node_count == 5
        assert topo.channel_count == 10

    def test_3d_mesh(self):
        topo = Topology(3, 3)
        assert topo.node_count == 27
        assert topo.ports_per_router == 6
        center = topo.node_at((1, 1, 1))
        assert len(topo.router_ports(center)) == 6

    def test_opposite_port(self):
        assert Topology.opposite_port(0) == 1
        assert Topology.opposite_port(1) == 0
        assert Topology.opposite_port(4) == 5


class TestValidation:
    def test_bad_radix(self):
        with pytest.raises(TopologyError):
            Topology(1, 2)

    def test_bad_dimensions(self):
        with pytest.raises(TopologyError):
            Topology(4, 0)

    def test_bad_node(self):
        topo = Topology(3, 2)
        with pytest.raises(TopologyError):
            topo.coords(9)
        with pytest.raises(TopologyError):
            topo.neighbor(-1, 0)

    def test_bad_coords(self):
        topo = Topology(3, 2)
        with pytest.raises(TopologyError):
            topo.node_at((0, 3))
        with pytest.raises(TopologyError):
            topo.node_at((1,))

    def test_bad_port(self):
        topo = Topology(3, 2)
        with pytest.raises(TopologyError):
            topo.neighbor(0, 7)

    def test_negative_radius(self):
        topo = Topology(3, 2)
        with pytest.raises(TopologyError):
            topo.nodes_within(0, -1)


class TestNetworkx:
    def test_export(self):
        topo = Topology(3, 2)
        graph = topo.to_networkx()
        assert graph.number_of_nodes() == 9
        assert graph.number_of_edges() == topo.channel_count
        import networkx as nx

        assert nx.is_strongly_connected(graph)


@given(
    radix=st.integers(min_value=2, max_value=6),
    dimensions=st.integers(min_value=1, max_value=3),
    wrap=st.booleans(),
)
def test_channel_enumeration_consistent(radix, dimensions, wrap):
    topo = Topology(radix, dimensions, wraparound=wrap)
    ids = [spec.channel_id for spec in topo.channels]
    assert ids == list(range(len(ids)))
    for spec in topo.channels:
        assert topo.neighbor(spec.src_node, spec.src_port) == spec.dst_node
        assert spec.dst_port == Topology.opposite_port(spec.src_port)
