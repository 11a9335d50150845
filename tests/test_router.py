"""Unit tests for the Router, driven directly without the full simulator."""

import pytest

from repro.core.dvs_link import DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import SimulationError
from repro.network.channel import NetworkChannel
from repro.network.packet import Packet
from repro.network.router import EVENT_ARRIVAL, EVENT_CREDIT, Router
from repro.network.routing import DimensionOrderRouting
from repro.network.topology import Topology


class Harness:
    """One router in a 2-node line, with captured events."""

    def __init__(self, node=0, vcs=2, buffers_per_vc=8, pipeline_latency=3):
        self.topology = Topology(2, 1)
        self.routing = DimensionOrderRouting(self.topology, vcs)
        self.events = []
        self.ejected = []
        self.router = Router(
            node,
            self.topology,
            self.routing,
            vcs_per_port=vcs,
            buffers_per_vc=buffers_per_vc,
            credit_delay=2,
            schedule=lambda cycle, event: self.events.append((cycle, event)),
            packet_sink=lambda packet, now: self.ejected.append((packet, now)),
        )
        for port in self.topology.router_ports(node):
            spec = next(
                s
                for s in self.topology.channels
                if s.src_node == node and s.src_port == port
            )
            dvs = DVSChannel(
                PAPER_TABLE,
                PAPER_LINK_POWER,
                timing=TransitionTiming(0.2e-6, 4),
            )
            self.router.attach_channel(
                port, NetworkChannel(spec, dvs, pipeline_latency), buffers_per_vc
            )

    def place(self, flit, port=None, vc=0):
        """Seed *flit* into an input VC at cycle 0 through on_arrival, which
        keeps the occupied-VC list the router's step scans in sync."""
        if port is None:
            port = self.topology.local_port
        self.router.on_arrival(port, vc, flit, 0)


class TestIdleAndInjection:
    def test_idle_initially(self):
        assert Harness().router.is_idle

    def test_offer_packet_wakes_router(self):
        harness = Harness()
        harness.router.offer_packet(Packet(0, 1, 5, 0))
        assert not harness.router.is_idle

    def test_injects_one_flit_per_cycle(self):
        harness = Harness()
        harness.router.offer_packet(Packet(0, 1, 5, 0))
        harness.router.step(0)
        assert harness.router.total_buffered == 1
        harness.router.step(1)
        assert harness.router.total_buffered >= 1  # flit 0 may already launch


class TestLaunch:
    def test_head_flit_launches_with_events(self):
        harness = Harness()
        packet = Packet(0, 1, 2, 0)
        flits = packet.make_flits()
        # Place the head directly in a network-facing... node 0 has only the
        # local port toward injection; use local input.
        harness.place(flits[0])
        harness.router.step(1)
        arrivals = [e for e in harness.events if e[1][0] == EVENT_ARRIVAL]
        assert len(arrivals) == 1
        cycle, event = arrivals[0]
        assert event[1] == 1  # destination node
        assert cycle > 1  # pipeline + serialization in the future

    def test_credit_consumed_on_launch(self):
        harness = Harness()
        packet = Packet(0, 1, 1, 0)
        (flit,) = packet.make_flits()
        harness.place(flit)
        out_port = harness.topology.plus_port(0)
        before = harness.router.credit_states[out_port].credits.copy()
        harness.router.step(1)
        after = harness.router.credit_states[out_port].credits
        assert sum(after) == sum(before) - 1

    def test_vc_released_on_tail_launch(self):
        harness = Harness()
        packet = Packet(0, 1, 1, 0)  # single flit: head and tail
        (flit,) = packet.make_flits()
        harness.place(flit)
        out_port = harness.topology.plus_port(0)
        harness.router.step(1)
        assert all(harness.router.credit_states[out_port].vc_free)

    def test_no_launch_without_credits(self):
        harness = Harness(buffers_per_vc=1)
        out_port = harness.topology.plus_port(0)
        state = harness.router.credit_states[out_port]
        for vc in range(2):
            state.consume(vc)
        packet = Packet(0, 1, 1, 0)
        (flit,) = packet.make_flits()
        harness.place(flit)
        harness.router.step(1)
        arrivals = [e for e in harness.events if e[1][0] == EVENT_ARRIVAL]
        assert not arrivals


class TestEjection:
    def test_arrived_packet_ejects(self):
        harness = Harness(node=1)
        packet = Packet(0, 1, 2, 0)
        flits = packet.make_flits()
        in_port = harness.topology.minus_port(0)  # from node 0
        harness.router.on_arrival(in_port, 0, flits[0], 10)
        harness.router.on_arrival(in_port, 0, flits[1], 11)
        harness.router.step(12)
        harness.router.step(13)
        assert harness.ejected
        ejected_packet, when = harness.ejected[0]
        assert ejected_packet is packet
        assert ejected_packet.ejected_cycle == when

    def test_ejection_returns_credits(self):
        harness = Harness(node=1)
        packet = Packet(0, 1, 1, 0)
        (flit,) = packet.make_flits()
        in_port = harness.topology.minus_port(0)
        harness.router.on_arrival(in_port, 0, flit, 10)
        harness.router.step(11)
        credits = [e for e in harness.events if e[1][0] == EVENT_CREDIT]
        assert len(credits) == 1
        cycle, event = credits[0]
        assert cycle == 11 + 2  # credit delay
        assert event[1] == 0  # upstream node
        assert event[4] is True  # tail flag


class TestCreditHandling:
    def test_on_credit_restores(self):
        harness = Harness()
        out_port = harness.topology.plus_port(0)
        state = harness.router.credit_states[out_port]
        state.consume(0)
        harness.router.on_credit(out_port, 0, is_tail=False)
        assert state.credits[0] == state.capacity_per_vc

    def test_credit_for_unattached_port(self):
        harness = Harness(node=0)
        with pytest.raises(SimulationError):
            harness.router.on_credit(harness.topology.minus_port(0), 0, False)

    def test_double_attach_rejected(self):
        harness = Harness()
        port = harness.topology.plus_port(0)
        with pytest.raises(SimulationError):
            harness.router.attach_channel(
                port, harness.router.channels[port], 8
            )
