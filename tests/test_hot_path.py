"""White-box tests for the saturated hot path's scheduling structures.

Covers the calendar-queue ring/spill split, event-record and flit pool
recycling, the routers' direct (fast-queue) binding to the kernel's
calendar ring, and ejection at dispatch. The bit-identity companion tests
live in ``test_fast_forward.py``; here the assertions are structural — the
right events in the right container and the same objects reused rather
than reallocated — or closed-form latencies.
"""

from __future__ import annotations

import dataclasses
import math

from repro.instrument.bus import Observer
from repro.network.router import EVENT_ARRIVAL, EVENT_CREDIT, EVENT_PHASE
from repro.network.simulator import Simulator

from .conftest import small_config, trace_simulator


def _credits(engine):
    """An upstream credit list that hand-built CREDIT records may target."""
    spec = engine.channels[0].spec
    return engine.routers[spec.src_node].credit_states[spec.src_port].credits


def _ring_events(engine):
    return sum(len(bucket) for bucket in engine._ring)


class TestCalendarQueue:
    def test_near_events_ride_the_ring_far_events_spill(self):
        simulator = Simulator(small_config(rate=0.0))
        mask = simulator._ring_mask
        credits = _credits(simulator)
        near = simulator.now + 3
        far = simulator.now + mask + 10
        simulator.schedule(near, [EVENT_CREDIT, credits, 0])
        simulator.schedule(far, [EVENT_CREDIT, credits, 0])
        assert len(simulator._ring[near & mask]) == 1
        assert _ring_events(simulator) == 1
        assert list(simulator._spill) == [far]
        assert simulator._spill_min == far
        assert simulator._pending_transport == 2

        before = credits[0]
        simulator.run_until(near)
        assert credits[0] == before  # dispatches *during* step(near)
        simulator.run_until(near + 1)
        assert credits[0] == before + 1
        assert _ring_events(simulator) == 0
        simulator.run_until(far + 1)
        assert credits[0] == before + 2
        assert simulator._spill == {}
        assert simulator._spill_min == math.inf
        assert simulator._pending_transport == 0
        # Both events sat inside otherwise dead air; the horizon saw them.
        assert simulator.idle_cycles_skipped > 0

    def test_spill_min_retracks_to_the_next_bucket(self):
        simulator = Simulator(small_config(rate=0.0))
        mask = simulator._ring_mask
        credits = _credits(simulator)
        far1 = simulator.now + mask + 5
        far2 = simulator.now + 4 * (mask + 1)
        simulator.schedule(far2, [EVENT_CREDIT, credits, 0])
        simulator.schedule(far1, [EVENT_CREDIT, credits, 1])
        assert simulator._spill_min == far1
        simulator.run_until(far1 + 1)
        assert simulator._spill_min == far2
        simulator.run_until(far2 + 1)
        assert simulator._spill_min == math.inf

    def test_transport_never_touches_the_spill(self):
        """The ring's near horizon covers pipeline latency + worst-case
        serialization + credit delay, so under live traffic only far-future
        DVS phase boundaries may spill — ARRIVAL/CREDIT events never do."""
        config = small_config(policy="history", rate=0.9, measure=1_200)
        simulator = Simulator(config)
        saw_spill = 0
        saw_transport = 0
        for target in (100, 300, 700, 1_100):
            simulator.run_until(target)
            for cycle in sorted(simulator._spill):
                for event in simulator._spill[cycle]:
                    saw_spill += 1
                    assert event[0] == EVENT_PHASE
            saw_transport += sum(
                event[0] != EVENT_PHASE
                for bucket in simulator._ring
                for event in bucket
            )
        assert saw_spill > 0  # DVS transitions actually spilled
        assert saw_transport > 0  # while flits and credits rode the ring


class TestPoolRecycling:
    def test_event_records_are_recycled_into_new_schedules(self):
        simulator = Simulator(small_config(rate=0.8), fast_forward=False)
        simulator.run_until(400)
        while not simulator._event_pool:
            simulator.step()
        pool_ids = {id(record) for record in simulator._event_pool}
        simulator.run_until(simulator.now + 100)
        live_ids = {id(event) for _, event in simulator.iter_scheduled_events()}
        # Records freed by dispatch came back as newly scheduled events.
        assert pool_ids & live_ids

    def test_flits_are_recycled_through_the_pool(self):
        simulator = Simulator(small_config(rate=0.8), fast_forward=False)
        simulator.run_until(400)
        while not simulator._flit_pool:
            simulator.step()
        released = {id(flit) for flit in simulator._flit_pool}
        simulator.run_until(simulator.now + 100)
        buffered = {
            id(flit)
            for router in simulator.routers
            for _, _, vcstate in router.iter_vc_states()
            for flit in vcstate.flits
        }
        in_flight = {
            id(event[2])
            for _, event in simulator.iter_scheduled_events()
            if event[0] == EVENT_ARRIVAL
        }
        # Flits released at ejection re-entered the network at injection.
        assert released & (buffered | in_flight)


class TestFastQueueBinding:
    def test_routers_share_the_kernels_ring_and_counters(self):
        simulator = Simulator(small_config(rate=0.3))
        for router in simulator.routers:
            assert router._fast_ring is simulator._ring
            assert router._fast_mask == simulator._ring_mask
            assert router._fast_counters is simulator._counters


class TestTransportRecords:
    def test_records_carry_their_targets(self):
        """An ARRIVAL record holds the downstream input VC and the flit, a
        CREDIT record the upstream port's credit list and the VC index."""
        simulator = Simulator(small_config(rate=0.8), fast_forward=False)
        simulator.run_until(300)
        credit_lists = {
            id(state.credits): state.credits
            for router in simulator.routers
            for state in router.credit_states
            if state is not None
        }
        kinds = set()
        for _, (kind, target, payload) in simulator.iter_scheduled_events():
            kinds.add(kind)
            if kind == EVENT_ARRIVAL:
                router = simulator.routers[target.node]
                assert router.in_vcs[target.in_port][target.in_vc] is target
                assert payload.packet is not None
            elif kind == EVENT_CREDIT:
                assert credit_lists[id(target)] is target
                assert 0 <= payload < len(target)
        assert {EVENT_ARRIVAL, EVENT_CREDIT} <= kinds

    def test_flits_launched_counts_the_arrivals_each_router_scheduled(self):
        """``Router.flits_launched`` (its output channels' sends) equals the
        ARRIVAL records the router scheduled in a saturated run: those
        dispatched plus those still pending."""
        simulator = Simulator(small_config(rate=1.5), fast_forward=False)
        topology = simulator.topology
        scheduled = [0] * topology.node_count

        def count(record):
            vcstate = record[1]
            scheduled[topology.neighbor(vcstate.node, vcstate.in_port)] += 1

        dispatch = simulator._dispatch

        def counting_dispatch(events, now):
            for record in events:
                if record[0] == EVENT_ARRIVAL:
                    count(record)
            dispatch(events, now)

        simulator._dispatch = counting_dispatch
        simulator.run_until(1_500)
        for _, record in simulator.iter_scheduled_events():
            if record[0] == EVENT_ARRIVAL:
                count(record)
        launched = [router.flits_launched for router in simulator.routers]
        assert launched == scheduled
        assert min(launched) > 100  # every router forwarded traffic


class TestEjectionAtDispatch:
    """A flit reaching an empty VC bound for its node ejects at dispatch."""

    @staticmethod
    def _closed_form(hops):
        """Zero-load latency at one router cycle per flit: the head leaves
        the source one cycle after injection, each hop costs serialization
        plus the pipeline latency, and the tail trails the head by one
        cycle per flit."""
        network = small_config().network
        return network.flits_per_packet + hops * (1 + network.pipeline_latency)

    @staticmethod
    def _run(destination):
        """One packet from node 0 to *destination*: its latency, and
        whether the destination router was ever active after a dispatch."""
        simulator = trace_simulator([(10, 0, destination)])
        latencies = []
        active = []

        class Log(Observer):
            def on_packet_ejected(self, packet, now):
                latencies.append(now - packet.created_cycle)

            def on_cycle(self, now):
                active.append(simulator._active_flags[destination])

            def on_idle_span(self, start, end):
                pass

        simulator.bus.attach(Log())
        simulator.drain(max_cycles=5_000)
        assert simulator.channels[0].dvs.serialization_cycles == 1.0
        assert simulator.routers[destination].flits_ejected == (
            simulator.config.network.flits_per_packet
        )
        return latencies, any(active)

    def test_one_hop_latency_is_closed_form(self):
        latencies, destination_active = self._run(1)
        assert latencies == [self._closed_form(1)]
        assert not destination_active

    def test_two_hop_latency_is_closed_form(self):
        latencies, destination_active = self._run(2)
        assert latencies == [self._closed_form(2)]
        assert not destination_active

    def test_a_link_faster_than_the_router_keeps_arrivals_on_the_step(self):
        """With a link clock shorter than a router cycle two flits may land
        in one VC in one cycle, where the step ejects only one: the kernel
        then enqueues every arrival."""
        config = small_config(rate=0.0001)
        assert Simulator(config)._eject_at_dispatch
        fast_link = dataclasses.replace(
            config, network=dataclasses.replace(config.network, router_clock_hz=0.5e9)
        )
        assert not Simulator(fast_link)._eject_at_dispatch
