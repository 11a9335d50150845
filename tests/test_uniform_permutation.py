"""Tests for uniform random and permutation traffic."""

import random

import pytest

from repro.config import WorkloadConfig
from repro.errors import WorkloadError
from repro.network.topology import Topology
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.permutation import PERMUTATIONS, PermutationTraffic
from repro.traffic.uniform import UniformRandomTraffic


def run_source(source, horizon):
    pairs = []
    for now in range(horizon):
        pairs.extend(source.injections(now))
    return pairs


class TestUniform:
    def test_rate(self):
        topology = Topology(4, 2)
        source = UniformRandomTraffic(
            topology, WorkloadConfig(kind="uniform", injection_rate=0.5, seed=3)
        )
        pairs = run_source(source, 20_000)
        assert len(pairs) / 20_000 == pytest.approx(0.5, rel=0.1)

    def test_no_self_traffic(self):
        topology = Topology(3, 2)
        source = UniformRandomTraffic(
            topology, WorkloadConfig(kind="uniform", injection_rate=1.0, seed=4)
        )
        for src, dst in run_source(source, 2_000):
            assert src != dst

    def test_sources_roughly_uniform(self):
        topology = Topology(4, 2)
        source = UniformRandomTraffic(
            topology, WorkloadConfig(kind="uniform", injection_rate=2.0, seed=5)
        )
        counts = [0] * 16
        for src, _ in run_source(source, 20_000):
            counts[src] += 1
        total = sum(counts)
        for count in counts:
            assert count / total == pytest.approx(1 / 16, abs=0.02)

    def test_zero_rate_silent(self):
        topology = Topology(3, 2)
        source = UniformRandomTraffic(
            topology, WorkloadConfig(kind="uniform", injection_rate=0.0)
        )
        assert run_source(source, 100) == []


class TestPermutationFunctions:
    def test_transpose_2d(self):
        topology = Topology(4, 2)
        dst = PERMUTATIONS["transpose"](topology, topology.node_at((1, 3)))
        assert topology.coords(dst) == (3, 1)

    def test_bit_complement(self):
        topology = Topology(4, 2)  # 16 nodes, 4 bits
        assert PERMUTATIONS["bit_complement"](topology, 0b0000) == 0b1111
        assert PERMUTATIONS["bit_complement"](topology, 0b1010) == 0b0101

    def test_bit_reverse(self):
        topology = Topology(4, 2)
        assert PERMUTATIONS["bit_reverse"](topology, 0b0001) == 0b1000
        assert PERMUTATIONS["bit_reverse"](topology, 0b0110) == 0b0110

    def test_shuffle(self):
        topology = Topology(4, 2)
        assert PERMUTATIONS["shuffle"](topology, 0b1000) == 0b0001
        assert PERMUTATIONS["shuffle"](topology, 0b0011) == 0b0110

    def test_bit_patterns_need_power_of_two(self):
        topology = Topology(3, 2)  # 9 nodes
        with pytest.raises(WorkloadError):
            PERMUTATIONS["bit_complement"](topology, 1)


class TestPermutationTraffic:
    def test_fixed_destinations(self):
        topology = Topology(4, 2)
        source = PermutationTraffic(
            topology,
            WorkloadConfig(
                kind="permutation", permutation="transpose", injection_rate=1.0, seed=6
            ),
        )
        for src, dst in run_source(source, 3_000):
            assert dst == PERMUTATIONS["transpose"](topology, src)

    def test_identity_sources_skipped(self):
        topology = Topology(4, 2)
        source = PermutationTraffic(
            topology,
            WorkloadConfig(
                kind="permutation", permutation="transpose", injection_rate=1.0, seed=7
            ),
        )
        diagonal = {topology.node_at((i, i)) for i in range(4)}
        for src, _ in run_source(source, 3_000):
            assert src not in diagonal

    def test_unknown_permutation(self):
        topology = Topology(4, 2)
        with pytest.raises(Exception):
            PermutationTraffic(
                topology,
                WorkloadConfig(kind="permutation", permutation="nope"),
            )


# -- the shared Poisson arrival process against the loops it replaced --------


def separate_loop(kind, topology, config, horizon, hotspots=(5,), fraction=0.3):
    """Reference: the arrival loop each source ran on its own before the
    three shared one base class. Returns every cycle's pairs and the final
    RNG state."""
    rng = random.Random(config.seed)
    rate = config.injection_rate
    node_count = topology.node_count
    if kind in PERMUTATIONS:
        destinations = [PERMUTATIONS[kind](topology, n) for n in range(node_count)]
        active = [n for n in range(node_count) if destinations[n] != n]
    next_time = rng.expovariate(rate) if rate > 0.0 else 0.0
    cycles = []
    for now in range(horizon):
        pairs = []
        while rate > 0.0 and next_time <= now:
            if kind == "uniform":
                src = rng.randrange(node_count)
                dst = rng.randrange(node_count - 1)
                if dst >= src:
                    dst += 1
            elif kind == "hotspot":
                if rng.random() < fraction:
                    dst = rng.choice(hotspots)
                    src = rng.randrange(node_count - 1)
                    if src >= dst:
                        src += 1
                else:
                    src = rng.randrange(node_count)
                    dst = rng.randrange(node_count - 1)
                    if dst >= src:
                        dst += 1
            else:
                src = rng.choice(active)
                dst = destinations[src]
            pairs.append((src, dst))
            next_time += rng.expovariate(rate)
        cycles.append(pairs)
    return cycles, rng.getstate()


def make_source(kind, topology, config):
    if kind == "uniform":
        return UniformRandomTraffic(topology, config)
    if kind == "hotspot":
        return HotspotTraffic(topology, config, hotspots=(5,), hotspot_fraction=0.3)
    return PermutationTraffic(topology, config)


class TestSharedArrivalProcess:
    @pytest.mark.parametrize("rate", [0.0, 0.3, 2.5])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize(
        "kind", ["uniform", "transpose", "bit_complement", "hotspot"]
    )
    def test_pairs_and_draws_match_the_separate_loop(self, kind, seed, rate):
        topology = Topology(4, 2)
        pattern = {"kind": "permutation", "permutation": kind}
        config = WorkloadConfig(
            injection_rate=rate,
            seed=seed,
            **(pattern if kind in PERMUTATIONS else {"kind": "uniform"}),
        )
        horizon = 5_000
        expected, final_state = separate_loop(kind, topology, config, horizon)
        source = make_source(kind, topology, config)
        assert [source.injections(now) for now in range(horizon)] == expected
        assert source.rng.getstate() == final_state
        assert source.packets_offered == sum(map(len, expected))
