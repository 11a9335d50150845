"""White-box tests for the saturated hot path's scheduling structures.

Covers the calendar-queue ring/spill split, event-record and flit pool
recycling, and the routers' direct (fast-queue) binding to the kernel's
calendar ring. The bit-identity companion tests live in
``test_fast_forward.py``; here the assertions are structural — the right
events in the right container and the same objects reused rather than
reallocated.
"""

from __future__ import annotations

import math

from repro.network.router import EVENT_ARRIVAL, EVENT_CREDIT, EVENT_PHASE
from repro.network.simulator import Simulator

from .conftest import small_config


def _credit_target(engine):
    """A valid (node, out_port, credits) triple for hand-built events."""
    spec = engine.channels[0].spec
    credits = engine.routers[spec.src_node].credit_states[spec.src_port].credits
    return spec.src_node, spec.src_port, credits


class TestCalendarQueue:
    def test_near_events_ride_the_ring_far_events_spill(self):
        simulator = Simulator(small_config(rate=0.0))
        mask = simulator._ring_mask
        node, port, credits = _credit_target(simulator)
        near = simulator.now + 3
        far = simulator.now + mask + 10
        simulator.schedule(near, [EVENT_CREDIT, node, port, 0, None])
        simulator.schedule(far, [EVENT_CREDIT, node, port, 0, None])
        assert len(simulator._ring[near & mask]) == 1
        assert simulator._ring_count == 1
        assert list(simulator._spill) == [far]
        assert simulator._spill_min == far
        assert simulator._pending_transport == 2

        before = credits[0]
        simulator.run_until(near)
        assert credits[0] == before  # dispatches *during* step(near)
        simulator.run_until(near + 1)
        assert credits[0] == before + 1
        assert simulator._ring_count == 0
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
        node, port, _ = _credit_target(simulator)
        far1 = simulator.now + mask + 5
        far2 = simulator.now + 4 * (mask + 1)
        simulator.schedule(far2, [EVENT_CREDIT, node, port, 0, None])
        simulator.schedule(far1, [EVENT_CREDIT, node, port, 1, None])
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
        for target in (100, 300, 700, 1_100):
            simulator.run_until(target)
            for cycle in sorted(simulator._spill):
                for event in simulator._spill[cycle]:
                    saw_spill += 1
                    assert event[0] == EVENT_PHASE
            assert simulator._ring_count == sum(
                len(bucket) for bucket in simulator._ring
            )
        assert saw_spill > 0  # DVS transitions actually spilled


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
            id(event[4])
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
