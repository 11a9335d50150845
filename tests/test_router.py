"""Unit tests for the Router, driven directly without the full simulator.

A router writes kernel state rather than calling back into an engine, so
each test hands it that state: a calendar ring nothing dispatches (it keeps
every scheduled event), the kernel's counters, the pools, and an
instrument bus whose ejection hooks log the ejected packets. Arriving
flits reach the router through the kernel's own dispatch loop
(``SimulationEngine._dispatch``), run over just the kernel state it reads,
so the one arrival enqueue and the ejection at dispatch are the ones under
test.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core.dvs_link import ChannelDesign, DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import ConfigError, FlowControlError, SimulationError
from repro.instrument.bus import InstrumentBus, Observer
from repro.network.channel import NetworkChannel
from repro.network.engine import SimulationEngine
from repro.network.packet import Flit, Packet
from repro.network.router import EVENT_ARRIVAL, EVENT_CREDIT, Router
from repro.network.routing import DimensionOrderRouting
from repro.network.topology import Topology
from repro.network.vc import UNROUTED, InputVC


#: The design of every harness port's DVS channel.
DESIGN = ChannelDesign(PAPER_TABLE, PAPER_LINK_POWER, timing=TransitionTiming(0.2e-6, 4))


def make_dvs(level=None):
    """The DVS channel every harness port gets (level None = the top)."""
    return DVSChannel(DESIGN, initial_level=level)


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
    a slot's index is the cycle of the events in it. The neighbours are
    stand-ins: the input VCs each output port launches into
    (``downstream``) and the credit lists each input port returns credits
    to (``upstream_credits``), wired as the neighbours' own routers would
    wire them.
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
        self.counters = [0, 0]
        self.pool = []
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
            event_pool=self.pool,
            flit_pool=[],
            ejected_hooks=self.bus.ejected_hooks,
        )
        self.downstream = {}
        self.upstream_credits = {}
        for port in self.topology.router_ports(node):
            spec = next(
                s
                for s in self.topology.channels
                if s.src_node == node and s.src_port == port
            )
            downstream = [InputVC(buffers_per_vc) for _ in range(vcs)]
            for vc, vcstate in enumerate(downstream):
                vcstate.node = spec.dst_node
                vcstate.in_port = spec.dst_port
                vcstate.in_vc = vc
            self.downstream[port] = downstream
            self.router.attach_channel(
                port, NetworkChannel(spec, make_dvs(level), pipeline_latency), downstream
            )
            credits = self.upstream_credits[port] = [buffers_per_vc] * vcs
            for vcstate in self.router.in_vcs[port]:
                vcstate.upstream_credits = credits
        # Exactly the kernel state the dispatch loop reads.
        self.kernel = SimpleNamespace(
            routers={node: self.router},
            _active_flags=bytearray(self.topology.node_count),
            _active_list=[],
            _event_pool=self.pool,
            _local_port=self.topology.local_port,
            _eject_at_dispatch=True,
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

    def deliver(self, flit, port=None, vc=0, now=0):
        """Dispatch an ARRIVAL record of *flit* into input VC (*port*, *vc*)
        at cycle *now* through the kernel's dispatch loop, which enqueues
        it (keeping the occupied-VC list the router's step scans in sync)
        or ejects it at once."""
        if port is None:
            port = self.topology.local_port
        record = [EVENT_ARRIVAL, self.router.in_vcs[port][vc], flit]
        SimulationEngine._dispatch(self.kernel, [record], now)


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
        harness.deliver(flits[0])
        harness.router.step(1)
        arrivals = [e for e in harness.events if e[1][0] == EVENT_ARRIVAL]
        assert len(arrivals) == 1
        cycle, event = arrivals[0]
        # Addressed to the downstream input VC the head was allocated.
        out_vc = harness.router.in_vcs[harness.topology.local_port][0].out_vc
        assert event[1] is harness.downstream[harness.topology.plus_port(0)][out_vc]
        assert event[1].node == 1  # destination node
        assert event[2] is flits[0]
        assert cycle > 1  # pipeline + serialization in the future

    def test_credit_consumed_on_launch(self):
        harness = Harness()
        packet = Packet(0, 1, 1, 0)
        (flit,) = flits_of(packet)
        harness.deliver(flit)
        out_port = harness.topology.plus_port(0)
        before = harness.router.credit_states[out_port].credits.copy()
        harness.router.step(1)
        after = harness.router.credit_states[out_port].credits
        assert sum(after) == sum(before) - 1

    def test_vc_released_on_tail_launch(self):
        harness = Harness()
        packet = Packet(0, 1, 1, 0)  # single flit: head and tail
        (flit,) = flits_of(packet)
        harness.deliver(flit)
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
        harness.deliver(flit)
        harness.router.step(1)
        arrivals = [e for e in harness.events if e[1][0] == EVENT_ARRIVAL]
        assert not arrivals


class TestEjection:
    def test_arrived_packet_ejects(self):
        """A packet whose flits each reach an empty VC at their destination
        ejects at dispatch, each flit in its arrival cycle: the router is
        never stepped, never activated, and buffers nothing."""
        harness = Harness(node=1)
        packet = Packet(0, 1, 2, 0)
        flits = flits_of(packet)
        in_port = harness.topology.minus_port(0)  # from node 0
        harness.deliver(flits[0], in_port, 0, now=10)
        assert harness.router.flits_ejected == 1 and not harness.ejected
        harness.deliver(flits[1], in_port, 0, now=11)
        assert harness.ejected == [(packet, 11)]
        assert packet.ejected_cycle == 11
        assert harness.router.is_idle
        assert harness.kernel._active_list == []
        # The tail reset the route the head set for the local port.
        assert harness.router.in_vcs[in_port][0].out_port == UNROUTED

    def test_ejection_returns_credits(self):
        harness = Harness(node=1)
        packet = Packet(0, 1, 1, 0)
        (flit,) = flits_of(packet)
        in_port = harness.topology.minus_port(0)
        harness.deliver(flit, in_port, 0, now=10)
        credits = [e for e in harness.events if e[1][0] == EVENT_CREDIT]
        assert len(credits) == 1
        cycle, event = credits[0]
        assert cycle == 10 + 2  # credit delay
        assert event[1] is harness.upstream_credits[in_port]  # node 0's list
        assert event[2] == 0  # the VC the flit left

    def test_packet_behind_a_blocked_transit_packet_ejects_through_the_step(self):
        """A packet for this node queued behind a transit packet that holds
        its VC is buffered, not ejected at dispatch. Once the transit
        packet's tail launches, the router's step ejects it one flit per
        cycle from the next cycle on."""
        harness = Harness(node=1, radix=3, buffers_per_vc=16)
        router = harness.router
        west = harness.topology.minus_port(0)
        east = harness.topology.plus_port(0)
        transit = flits_of(Packet(0, 2, 3, 0))
        local = flits_of(Packet(0, 1, 2, 0))
        credits = router.credit_states[east].credits
        saved = list(credits)
        credits[:] = [0] * len(credits)  # node 2 has no room: blocked
        for now, flit in enumerate(transit + local, start=1):
            harness.deliver(flit, west, 0, now=now)
            router.step(now)
        assert router.flits_ejected == 0
        assert router.total_buffered == len(transit) + len(local)
        credits[:] = saved
        start = len(transit) + len(local) + 1
        now = start
        while router.total_buffered:
            router.step(now)
            now += 1
        # The transit flits launch in cycles start .. start + 2; the local
        # head reaches the front of the VC the cycle after the tail's
        # launch, and its tail ejects one cycle later.
        assert launched_sources(harness) == [0, 0, 0]
        assert harness.ejected == [(local[0].packet, start + len(transit) + 1)]
        assert router.flits_ejected == len(local)


class TestArrival:
    def test_arrival_into_full_vc_raises(self):
        """Overflow means a sender launched without a credit: the kernel's
        arrival enqueue refuses it."""
        harness = Harness(node=1, radix=3, buffers_per_vc=1)
        in_port = harness.topology.minus_port(0)
        first = flits_of(Packet(0, 2, 1, 0))[0]
        second = flits_of(Packet(0, 2, 1, 0))[0]
        harness.deliver(first, in_port, 0, now=10)
        with pytest.raises(FlowControlError, match="buffer overflow"):
            harness.deliver(second, in_port, 0, now=11)
        assert harness.router.total_buffered == 1


class TestKernelState:
    def test_counters_track_flits_in_network_and_source_packets(self):
        """A flit counts as in the network from the cycle it enters the
        local buffers until it ejects, at whichever router; the packet
        leaves the source queue side as its tail enters. A launch, which
        schedules one arrival (no upstream to credit), counts nothing."""
        harness = Harness()
        harness.counters[1] = 1  # the kernel counts the offer
        harness.router.offer_packet(Packet(0, 1, 1, 0))
        harness.router.step(0)
        assert harness.counters == [1, 0]
        harness.router.step(1)
        assert harness.counters == [1, 0]
        assert len(harness.events) == 1
        # A flit from node 1 ejects here: the network-wide count drops.
        harness.deliver(
            flits_of(Packet(1, 0, 1, 0))[0], harness.topology.plus_port(0), 0, now=2
        )
        assert harness.counters == [0, 0]

    def test_arrival_beyond_the_ring_raises(self):
        """A launch lands pipeline latency + serialization ahead (here more
        than 3 cycles); a ring too short to hold that cycle is refused
        rather than wrapped onto an earlier one."""
        harness = Harness(ring_size=4)
        harness.deliver(flits_of(Packet(0, 1, 1, 0))[0])
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
                port, harness.router.channels[port], harness.downstream[port]
            )


def launched_sources(harness):
    """Source node of each launched flit's packet, in launch order."""
    return [
        event[2].packet.src for _, event in harness.events if event[0] == EVENT_ARRIVAL
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
            harness.deliver(flits_of(Packet(0, 2, 1, 0))[0], from_west)
            harness.deliver(flits_of(Packet(1, 2, 1, 0))[0])
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
            harness.deliver(flits_of(Packet(0, 2, 1, 0))[0], from_west)
        router.step(1)
        harness.deliver(flits_of(Packet(1, 2, 1, 0))[0])
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
            harness.deliver(flit)
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
                assert event[2] is flits[launches - 1]
                assert cycle == math.ceil(done + pipeline_latency)
                assert wire.busy_until == twin.busy_until
                assert wire.busy_cycles_total == twin.busy_cycles_total
                assert wire.busy_window == twin.busy_window
                assert wire.flits_sent == twin.flits_sent == launches
            now += 1
