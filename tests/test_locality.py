"""Tests for sphere-of-locality destination selection."""

import random

import pytest

from repro.errors import WorkloadError
from repro.network.topology import Topology
from repro.traffic.locality import SphereOfLocality


class TestChoice:
    def test_never_self(self):
        topology = Topology(4, 2)
        locality = SphereOfLocality(topology, radius=2, local_probability=0.5)
        rng = random.Random(1)
        for src in range(topology.node_count):
            for _ in range(20):
                assert locality.choose(src, rng) != src

    def test_always_local_with_probability_one(self):
        topology = Topology(5, 2)
        locality = SphereOfLocality(topology, radius=2, local_probability=1.0)
        rng = random.Random(2)
        src = topology.node_at((2, 2))
        for _ in range(100):
            dst = locality.choose(src, rng)
            assert topology.distance(src, dst) <= 2

    def test_never_local_with_probability_zero(self):
        topology = Topology(5, 2)
        locality = SphereOfLocality(topology, radius=2, local_probability=0.0)
        rng = random.Random(3)
        src = topology.node_at((2, 2))
        for _ in range(100):
            dst = locality.choose(src, rng)
            assert topology.distance(src, dst) > 2

    def test_local_fraction_matches_probability(self):
        topology = Topology(8, 2)
        locality = SphereOfLocality(topology, radius=2, local_probability=0.7)
        rng = random.Random(4)
        src = topology.node_at((4, 4))
        local = sum(
            1
            for _ in range(3_000)
            if topology.distance(src, locality.choose(src, rng)) <= 2
        )
        assert local / 3_000 == pytest.approx(0.7, abs=0.05)

    def test_radius_covers_whole_network(self):
        """When every node is within the radius, all picks are 'local'."""
        topology = Topology(3, 2)
        locality = SphereOfLocality(topology, radius=10, local_probability=0.0)
        rng = random.Random(5)
        dst = locality.choose(0, rng)  # no far nodes exist; falls back local
        assert dst != 0

    def test_validation(self):
        topology = Topology(3, 2)
        with pytest.raises(WorkloadError):
            SphereOfLocality(topology, radius=0, local_probability=0.5)
        with pytest.raises(WorkloadError):
            SphereOfLocality(topology, radius=2, local_probability=1.5)


class TestNeighbourhoods:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize(
        "topology",
        [Topology(8, 2), Topology(5, 2, wraparound=True)],
        ids=["mesh8x8", "torus5x5"],
    )
    def test_near_and_far_partition_the_other_nodes(self, topology, radius):
        locality = SphereOfLocality(topology, radius=radius, local_probability=0.5)
        for src in range(topology.node_count):
            near, far = locality._split(src)
            assert near == sorted(near) and far == sorted(far)
            assert not set(near) & set(far)
            assert sorted(near + far) == [
                node for node in range(topology.node_count) if node != src
            ]
            assert all(topology.distance(src, node) <= radius for node in near)
            assert all(topology.distance(src, node) > radius for node in far)
            assert locality._split(src) == (near, far)  # cached, unchanged
