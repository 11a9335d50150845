"""Tests for packets and flits."""

import pytest

from repro.errors import ConfigError
from repro.network.packet import Flit, Packet
from repro.network.router import Router
from repro.network.routing import DimensionOrderRouting
from repro.network.topology import Topology


def injected_flits(packet):
    """The flits a source router materializes for *packet*: offer it and
    run one cycle, whose injection stage stages the packet's flits and
    moves the head into a local input VC. The router gets the kernel
    state it writes (ring, counters, pools, ejection hooks)."""
    topology = Topology(2, 1)
    router = Router(
        packet.src,
        topology,
        DimensionOrderRouting(topology, 2),
        vcs_per_port=2,
        buffers_per_vc=8,
        credit_delay=1,
        ring=[[] for _ in range(32)],
        counters=[0, 1],
        event_pool=[],
        flit_pool=[],
        ejected_hooks=[],
    )
    router.offer_packet(packet)
    router.step(0)
    if router.inj_flits:
        return list(router.inj_flits)
    # A one-flit packet is fully injected in that cycle.
    return [flit for vcstate in router.in_vcs[router.local_port] for flit in vcstate.flits]


class TestPacket:
    def test_construction(self):
        packet = Packet(src=0, dst=5, size_flits=5, created_cycle=100)
        assert packet.src == 0
        assert packet.dst == 5
        assert packet.ejected_cycle == -1
        assert packet.vc_class == 0
        assert packet.last_dim == -1

    def test_ids_monotonic(self):
        a = Packet(0, 1, 5, 0)
        b = Packet(0, 1, 5, 0)
        assert b.packet_id > a.packet_id

    def test_latency(self):
        packet = Packet(0, 1, 5, created_cycle=100)
        packet.ejected_cycle = 175
        assert packet.latency == 75

    def test_latency_before_ejection_raises(self):
        packet = Packet(0, 1, 5, 0)
        with pytest.raises(ConfigError):
            _ = packet.latency

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            Packet(3, 3, 5, 0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Packet(0, 1, 0, 0)


class TestFlits:
    def test_paper_packet_shape(self):
        """Five flits: one head leading four body flits, last one the tail."""
        packet = Packet(0, 1, 5, 0)
        flits = injected_flits(packet)
        assert len(flits) == 5
        assert flits[0].is_head and not flits[0].is_tail
        assert all(not f.is_head for f in flits[1:])
        assert flits[-1].is_tail
        assert all(not f.is_tail for f in flits[:-1])
        assert [f.index for f in flits] == [0, 1, 2, 3, 4]

    def test_single_flit_packet_is_head_and_tail(self):
        packet = Packet(0, 1, 1, 0)
        (flit,) = injected_flits(packet)
        assert flit.is_head and flit.is_tail

    def test_flits_reference_packet(self):
        packet = Packet(0, 1, 3, 0)
        for flit in injected_flits(packet):
            assert flit.packet is packet

    def test_repr(self):
        packet = Packet(0, 1, 2, 0)
        head, tail = Flit(packet, 0, True, False), Flit(packet, 1, False, True)
        assert "H" in repr(head)
        assert "T" in repr(tail)

