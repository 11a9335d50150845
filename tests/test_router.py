"""Unit tests for the Router, driven directly without the full simulator.

A router writes kernel state rather than calling back into an engine, so
each test hands it that state: a calendar ring nothing dispatches (it keeps
every scheduled event), the outstanding counters, the pools, and an
instrument bus whose ejection hooks log the ejected packets.
"""

import math

import pytest

from repro.core.dvs_link import DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import ConfigError, FlowControlError, SimulationError
from repro.instrument.bus import InstrumentBus, Observer
from repro.network.channel import NetworkChannel
from repro.network.packet import Flit, Packet
from repro.network.router import EVENT_ARRIVAL, EVENT_CREDIT, Router
from repro.network.routing import DimensionOrderRouting
from repro.network.topology import Topology


def make_dvs(level=None):
    """The DVS channel every harness port gets (level None = the top)."""
    return DVSChannel(
        PAPER_TABLE,
        PAPER_LINK_POWER,
        timing=TransitionTiming(0.2e-6, 4),
        initial_level=level,
    )


def flits_of(packet):
    """*packet*'s flits, head first and tail last, as the router's injection
    stage materializes them."""
    last = packet.size_flits - 1
    return [Flit(packet, i, i == 0, i == last) for i in range(packet.size_flits)]


class EjectionLog(Observer):
    """Logs every ``(packet, now)`` tail ejection the bus reports."""

    def __init__(self):
        self.ejected = []

    def on_packet_ejected(self, packet, now):
        self.ejected.append((packet, now))


class Harness:
    """One router in a line of *radix* nodes, with captured events.

    By default the ring has more slots than any test here runs cycles, so
    a slot's index is the cycle of the events in it.
    """

    def __init__(
        self,
        node=0,
        vcs=2,
        buffers_per_vc=8,
        pipeline_latency=3,
        radix=2,
        level=None,
        ring_size=256,
        routing_class=DimensionOrderRouting,
    ):
        self.topology = Topology(radix, 1)
        self.routing = routing_class(self.topology, vcs)
        self.ring = [[] for _ in range(ring_size)]
        self.counters = [0, 0, 0, 0]
        self.bus = InstrumentBus()
        self.ejected = self.bus.attach(EjectionLog()).ejected
        self.router = Router(
            node,
            self.topology,
            self.routing,
            vcs_per_port=vcs,
            buffers_per_vc=buffers_per_vc,
            credit_delay=2,
            ring=self.ring,
            counters=self.counters,
            event_pool=[],
            flit_pool=[],
            ejected_hooks=self.bus.ejected_hooks,
        )
        for port in self.topology.router_ports(node):
            spec = next(
                s
                for s in self.topology.channels
                if s.src_node == node and s.src_port == port
            )
            self.router.attach_channel(
                port,
                NetworkChannel(spec, make_dvs(level), pipeline_latency),
                buffers_per_vc,
            )

    @property
    def events(self):
        """Every event the router scheduled, as ``(cycle, record)`` pairs in
        cycle order (scheduling order within a cycle)."""
        return [
            (cycle, record)
            for cycle, bucket in enumerate(self.ring)
            for record in bucket
        ]

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
        flits = flits_of(packet)
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
        (flit,) = flits_of(packet)
        harness.place(flit)
        out_port = harness.topology.plus_port(0)
        before = harness.router.credit_states[out_port].credits.copy()
        harness.router.step(1)
        after = harness.router.credit_states[out_port].credits
        assert sum(after) == sum(before) - 1

    def test_vc_released_on_tail_launch(self):
        harness = Harness()
        packet = Packet(0, 1, 1, 0)  # single flit: head and tail
        (flit,) = flits_of(packet)
        harness.place(flit)
        out_port = harness.topology.plus_port(0)
        harness.router.step(1)
        assert all(harness.router.credit_states[out_port].vc_free)

    def test_no_launch_without_credits(self):
        harness = Harness(buffers_per_vc=1)
        out_port = harness.topology.plus_port(0)
        state = harness.router.credit_states[out_port]
        for vc in range(2):
            state.credits[vc] = 0
        packet = Packet(0, 1, 1, 0)
        (flit,) = flits_of(packet)
        harness.place(flit)
        harness.router.step(1)
        arrivals = [e for e in harness.events if e[1][0] == EVENT_ARRIVAL]
        assert not arrivals


class TestEjection:
    def test_arrived_packet_ejects(self):
        harness = Harness(node=1)
        packet = Packet(0, 1, 2, 0)
        flits = flits_of(packet)
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
        (flit,) = flits_of(packet)
        in_port = harness.topology.minus_port(0)
        harness.router.on_arrival(in_port, 0, flit, 10)
        harness.router.step(11)
        credits = [e for e in harness.events if e[1][0] == EVENT_CREDIT]
        assert len(credits) == 1
        cycle, event = credits[0]
        assert cycle == 11 + 2  # credit delay
        assert event[1] == 0  # upstream node
        assert event[4] is True  # tail flag


class TestArrival:
    def test_arrival_into_full_vc_raises(self):
        """Overflow means a sender launched without a credit: on_arrival,
        which the kernel calls for every ARRIVAL, refuses it."""
        harness = Harness(node=1, buffers_per_vc=1)
        in_port = harness.topology.minus_port(0)
        first = flits_of(Packet(0, 1, 1, 0))[0]
        second = flits_of(Packet(0, 1, 1, 0))[0]
        harness.router.on_arrival(in_port, 0, first, 10)
        with pytest.raises(FlowControlError, match="buffer overflow"):
            harness.router.on_arrival(in_port, 0, second, 11)
        assert harness.router.total_buffered == 1


class TestKernelState:
    def test_counters_track_scheduled_events_and_source_packets(self):
        """A launch from the local port schedules one arrival (no upstream
        to credit); the packet leaves the source queue side as its tail
        enters the local buffers."""
        harness = Harness()
        harness.counters[3] = 1  # the kernel counts the offer
        harness.router.offer_packet(Packet(0, 1, 1, 0))
        harness.router.step(0)
        assert harness.counters == [0, 0, 0, 0]
        harness.router.step(1)
        assert harness.counters == [1, 1, 1, 0]
        assert len(harness.events) == 1

    def test_arrival_beyond_the_ring_raises(self):
        """A launch lands pipeline latency + serialization ahead (here more
        than 3 cycles); a ring too short to hold that cycle is refused
        rather than wrapped onto an earlier one."""
        harness = Harness(ring_size=4)
        harness.place(flits_of(Packet(0, 1, 1, 0))[0])
        with pytest.raises(SimulationError, match="beyond the 4-slot calendar ring"):
            harness.router.step(1)

    @pytest.mark.parametrize("ring_size", [0, 2, 6])
    def test_ring_is_a_power_of_two_beyond_the_credit_delay(self, ring_size):
        with pytest.raises(SimulationError, match="power-of-two size"):
            Harness(ring_size=ring_size)

    def test_escaping_dateline_classes_are_rejected_at_attach(self):
        class EscapingRouting(DimensionOrderRouting):
            def next_vc_class(self, node, out_port, vc_class):
                return vc_class + 1

        with pytest.raises(ConfigError, match="dateline classes"):
            Harness(routing_class=EscapingRouting)


class TestCreditHandling:
    def test_double_attach_rejected(self):
        harness = Harness()
        port = harness.topology.plus_port(0)
        with pytest.raises(SimulationError):
            harness.router.attach_channel(
                port, harness.router.channels[port], 8
            )


def launched_sources(harness):
    """Source node of each launched flit's packet, in launch order."""
    return [
        event[4].packet.src for _, event in harness.events if event[0] == EVENT_ARRIVAL
    ]


class TestSwitchAllocation:
    def test_contending_vcs_alternate_grants(self):
        """Rotating priority: two input VCs of the middle router of a 3-node
        line, both holding single-flit packets for node 2, win the plus
        port in turn (the winner becomes lowest priority next round)."""
        harness = Harness(node=1, radix=3, buffers_per_vc=16)
        router = harness.router
        from_west = harness.topology.minus_port(0)
        for _ in range(4):
            router.on_arrival(from_west, 0, flits_of(Packet(0, 2, 1, 0))[0], 0)
            harness.place(flits_of(Packet(1, 2, 1, 0))[0])
        now = 1
        while router.total_buffered and now < 20:
            router.step(now)
            now += 1
        assert launched_sources(harness) == [0, 1] * 4

    def test_lone_winner_becomes_lowest_priority(self):
        """A grant on the lone-occupied-VC fast path rotates priority too:
        the west VC wins alone, then loses the next contended round."""
        harness = Harness(node=1, radix=3)
        router = harness.router
        from_west = harness.topology.minus_port(0)
        for _ in range(2):
            router.on_arrival(from_west, 0, flits_of(Packet(0, 2, 1, 0))[0], 0)
        router.step(1)
        harness.place(flits_of(Packet(1, 2, 1, 0))[0])
        router.step(2)
        assert launched_sources(harness) == [0, 1]


class TestWireOracle:
    @pytest.mark.parametrize("level", range(PAPER_TABLE.max_level + 1))
    def test_launch_matches_send_flit_on_a_twin_channel(self, level):
        """The launch stage inlines DVSChannel.send_flit's wire update.
        Drive back-to-back launches of one packet at *level* and replay
        each on an identical twin channel through send_flit: the router
        launches exactly in the cycles the twin accepts a flit, the wire
        state matches bit for bit, and each flit lands downstream at
        ceil(serialization end + pipeline latency)."""
        pipeline_latency = 3
        harness = Harness(level=level, buffers_per_vc=16, pipeline_latency=pipeline_latency)
        router = harness.router
        wire = router.channels[harness.topology.plus_port(0)].dvs
        twin = make_dvs(level)
        flits = flits_of(Packet(0, 1, 8, 0))
        for flit in flits:
            harness.place(flit)
        launches = 0
        now = 1
        while launches < len(flits):
            assert now < 100, "router stopped launching"
            accepts = twin.can_accept_flit(now)
            router.step(now)
            if router.flits_launched == launches:
                assert not accepts, f"no launch at {now} though the wire was free"
            else:
                assert accepts, f"launched at {now} onto a busy wire"
                launches += 1
                done = twin.send_flit(now)
                cycle, event = harness.events[-1]
                assert event[0] == EVENT_ARRIVAL
                assert event[4] is flits[launches - 1]
                assert cycle == math.ceil(done + pipeline_latency)
                assert wire.busy_until == twin.busy_until
                assert wire.busy_cycles_total == twin.busy_cycles_total
                assert wire.busy_window == twin.busy_window
                assert wire.flits_sent == twin.flits_sent == launches
            now += 1
