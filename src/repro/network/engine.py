"""The pure cycle kernel.

:class:`SimulationEngine` owns exactly three things: topology construction
(routers, DVS channels, per-port controllers, traffic), the event queue,
and the per-cycle step. It holds **no measurement state** — every
observable (latency, power, series, profiles, traces) attaches through the
:class:`~repro.instrument.bus.InstrumentBus` passed at construction, and
the measurement-phase facade lives in
:class:`~repro.network.simulator.Simulator`.

Time base: the router clock (1 cycle = 1 ns at the paper's 1 GHz). Each
cycle the kernel

1. dispatches scheduled events — flit arrivals into input buffers, credit
   returns, DVS channel phase boundaries (emitting ``on_transition`` bus
   events at the boundaries, when anything listens);
2. polls the traffic source and enqueues new packets in source queues
   (emitting ``on_packet_offered``);
3. closes DVS history windows when due (every H cycles) and runs the
   per-port controllers; schedules any transition phase boundaries they
   start. A *dormant* controller (see :mod:`repro.core.controller`)
   costs an attribute test and an energy finalize here: its close is
   only counted, unless the channel sent a flit during the window, which
   wakes it for a real close. Its channel's phase event wakes it too,
   before the phase ends, and :meth:`SimulationEngine.run_until` replays
   every dormant controller's skipped windows before it returns;
4. dispatches ``on_window_close`` to windowed observers and ``on_cycle``
   to per-cycle observers;
5. steps every *active* router (ejection, routing/VC allocation, switch
   allocation, injection); tail-flit ejections reach observers through
   ``on_packet_ejected``.

Three scheduling structures make the kernel event-driven and allocation-
free where the workload allows, without changing a single simulated bit
(see ``docs/performance.md`` for the bit-identity argument of each):

* **Calendar-queue event dispatch.** Every ARRIVAL/CREDIT event a router
  schedules lands within a small bounded horizon (pipeline latency +
  worst-case serialization + credit delay), so events live in a
  power-of-two ring of reusable lists indexed by ``cycle & ring_mask``,
  which the routers append to directly — no per-cycle dict
  hash/pop/allocation. Far-future events (DVS phase boundaries at slow
  levels) go to a spill dict whose minimum key is tracked in
  ``_spill_min``, making the per-cycle spill probe one integer compare.
  For any target cycle, every spill-scheduled event was scheduled at an
  earlier ``now`` than every ring-scheduled event (``now`` is monotonic),
  so dispatching the spill bucket first reproduces the old single-bucket
  insertion order exactly.
* **Incremental active-router list.** Routers join the active list when
  they gain work (a flit arrival or a source-queue offer — the only
  engine-visible ways a router becomes non-idle) and leave it when their
  own step empties them. Membership is a flags ``bytearray``; order is an
  insertion-maintained ascending node list, compacted in place during the
  stepping loop — exactly the order of the old full scan over all N
  routers, with no per-cycle ``sorted()``.
* **Quiescence fast-forward.** When the active list is empty, nothing can
  happen before the next *event horizon*: the earliest of the next
  scheduled event (ring or spill), the next traffic injection
  (:meth:`~repro.traffic.base.TrafficSource.next_injection_cycle`), the
  next DVS history-window boundary, and the next observer window
  boundary. The kernel jumps ``now`` straight there, notifying
  ``on_idle_span`` observers of the skipped range. Observers that need
  every cycle (``on_cycle`` without ``on_idle_span``) disable skipping.

Steady-state stepping allocates ~zero objects: event records are 5-slot
lists drawn from a free list and recycled after dispatch, and
:class:`~repro.network.packet.Flit` objects are pooled (released on
ejection, reacquired at injection).

The kernel additionally maintains outstanding-event counters (transport
events, arrivals, and source-queue packets), updated at
schedule/dispatch/offer/inject, so drain-progress checks are O(1) instead
of walking every pending bucket and router. Inter-router flit traversal is
"emulated with message passing" exactly as in the paper: a launched flit
becomes an arrival event ``pipeline latency + serialization`` cycles
later, so slow links lengthen hops and throttle bandwidth.
"""

from __future__ import annotations

import math
from bisect import insort

from ..config import SimulationConfig
from ..core.controller import PortDVSController
from ..core.dvs_link import DVSChannel, LevelConstants
from ..core.registry import PolicyBuildContext, build_policy
from ..errors import SimulationError
from ..instrument.bus import InstrumentBus, TransitionEvent
from .channel import NetworkChannel
from .packet import Packet
from .router import EVENT_ARRIVAL, EVENT_CREDIT, EVENT_PHASE, Router
from .routing import make_routing
from .topology import Topology

#: Sentinel "no spill events": compares greater than any real cycle.
_NEVER = math.inf


class SimulationEngine:
    """One fully wired network: the simulated hardware, nothing else."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        traffic=None,
        bus: InstrumentBus | None = None,
        fast_forward: bool = True,
        sanitize: bool = False,
    ):
        self.config = config
        self.bus = bus if bus is not None else InstrumentBus()
        #: Allow quiescence skipping (bit-identical either way; set False
        #: to force cycle-by-cycle stepping, e.g. for A/B benchmarks).
        self.fast_forward = fast_forward
        # Per-cycle constants, prebound so step() skips the config
        # attribute chains.
        self._flits_per_packet = config.network.flits_per_packet
        self._history_window = config.dvs.history_window
        #: Diagnostics: cycles and spans elided by quiescence skipping.
        self.idle_cycles_skipped = 0
        self.idle_spans = 0
        net = config.network
        link = config.link

        self.topology = Topology(net.radix, net.dimensions, wraparound=net.wraparound)
        self.routing = make_routing(net.routing, self.topology, net.vcs_per_port)

        table = link.build_table()
        power_model = link.build_power_model()
        regulator = link.build_regulator()
        timing = link.build_timing()
        constants = LevelConstants(
            table,
            power_model,
            regulator,
            lanes=link.lanes,
            router_clock_hz=net.router_clock_hz,
            timing=timing,
        )

        # Calendar queue: a ring slot per near-future cycle, spill dict
        # beyond. The ring covers the worst-case transport horizon —
        # pipeline latency plus level-0 serialization plus the credit
        # delay — so every event a router schedules lands in the ring
        # (routers write it directly; only DVS phase boundaries spill).
        slowest_serialization = math.ceil(
            table.serialization_ratio(0, net.router_clock_hz)
        )
        near_horizon = net.pipeline_latency + slowest_serialization + net.credit_delay
        ring_size = 32
        while ring_size <= near_horizon:
            ring_size *= 2
        self._ring: list[list] = [[] for _ in range(ring_size)]
        self._ring_mask = ring_size - 1
        #: cycle -> events, for targets at least ring_size cycles out.
        self._spill: dict[int, list] = {}
        self._spill_min: int | float = _NEVER
        #: Free lists for 5-slot event records and Flit objects; shared
        #: with every router. Recycled records may keep a stale payload
        #: reference alive until reuse — bounded by the pool size, and the
        #: flits they point at are themselves pooled.
        self._event_pool: list[list] = []
        self._flit_pool: list = []

        self.now = 0
        # Outstanding counters ``[transport, arrivals, ring_count,
        # source packets]``: events maintained at schedule/dispatch, and
        # source-queue packets not yet fully in the network at
        # offer/inject, so drain checks never walk the event queue or the
        # routers. A shared mutable list rather than attributes so the
        # routers can maintain them without calling back into the engine;
        # read them through the properties below.
        self._counters = [0, 0, 0, 0]
        #: Active-router scheduler state: ``_active_flags[node]`` is 1
        #: exactly when *node* is in ``_active_list``, which is kept in
        #: ascending node order == exactly the non-idle routers (they gain
        #: work only through engine-visible arrivals and offers, and lose
        #: it only in their own step).
        self._active_flags = bytearray(self.topology.node_count)
        self._active_list: list[int] = []

        self.routers = [
            Router(
                node,
                self.topology,
                self.routing,
                vcs_per_port=net.vcs_per_port,
                buffers_per_vc=net.buffers_per_vc,
                credit_delay=net.credit_delay,
                ring=self._ring,
                counters=self._counters,
                event_pool=self._event_pool,
                flit_pool=self._flit_pool,
                ejected_hooks=self.bus.ejected_hooks,
            )
            for node in range(self.topology.node_count)
        ]

        if config.dvs.enabled and config.dvs.initial_level is not None:
            initial_level = config.dvs.initial_level
        else:
            initial_level = table.max_level

        self.channels: list[NetworkChannel] = []
        for spec in self.topology.channels:
            dvs_channel = DVSChannel(
                table,
                power_model,
                regulator,
                lanes=link.lanes,
                router_clock_hz=net.router_clock_hz,
                timing=timing,
                initial_level=initial_level,
                retention_voltage_v=link.sleep_retention_voltage_v,
                wake_lockout_cycles=link.sleep_wake_lockout_cycles,
                constants=constants,
            )
            channel = NetworkChannel(spec, dvs_channel, net.pipeline_latency)
            self.routers[spec.src_node].attach_channel(
                spec.src_port, channel, net.buffers_per_vc
            )
            self.channels.append(channel)
        #: DVS channel -> topology channel id, for transition events.
        self._channel_ids = {
            id(channel.dvs): channel.spec.channel_id for channel in self.channels
        }

        self.controllers: list[PortDVSController] = []
        if config.dvs.enabled:
            for channel in self.channels:
                spec = channel.spec
                tracker = self.routers[spec.dst_node].occupancy[spec.dst_port]
                if tracker is None:
                    raise SimulationError("network input port lacks a tracker")
                context = PolicyBuildContext(
                    table=table, channel_index=spec.channel_id
                )
                controller = PortDVSController(
                    channel.dvs,
                    build_policy(config.dvs, context),
                    tracker,
                    window_cycles=config.dvs.history_window,
                    buffer_capacity=net.buffers_per_port,
                )
                # This engine delivers the wake triggers, so the controller
                # may go dormant.
                controller.flight_cycles = channel.pipeline_latency
                self.controllers.append(controller)

        if traffic is None:
            from ..traffic.base import make_traffic

            traffic = make_traffic(self.topology, config.workload)
        self.traffic = traffic

        #: The attached :class:`~repro.analysis.sanitizer.NetworkSanitizer`
        #: when ``sanitize=True``, else None. Lazily imported so the kernel
        #: has no analysis dependency unless asked for one.
        self.sanitizer = None
        if sanitize:
            from ..analysis.sanitizer import NetworkSanitizer

            self.sanitizer = NetworkSanitizer(self).attach()

    # Outstanding counters (see _counters above). Read-only: schedule,
    # dispatch, offers and the routers mutate the list.

    @property
    def _pending_transport(self) -> int:
        return self._counters[0]

    @property
    def _pending_arrivals(self) -> int:
        return self._counters[1]

    @property
    def _ring_count(self) -> int:
        """Events currently buffered across all ring slots."""
        return self._counters[2]

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def schedule(self, cycle: int, event) -> None:
        """Queue *event* for dispatch at *cycle* (strictly in the future)."""
        now = self.now
        if cycle <= now:
            raise SimulationError(
                f"event scheduled for cycle {cycle} at cycle {now}; "
                "the kernel only dispatches future cycles"
            )
        kind = event[0]
        counters = self._counters
        if kind != EVENT_PHASE:
            counters[0] += 1
            if kind == EVENT_ARRIVAL:
                counters[1] += 1
        if cycle - now <= self._ring_mask:
            self._ring[cycle & self._ring_mask].append(event)
            counters[2] += 1
        else:
            bucket = self._spill.get(cycle)
            if bucket is None:
                self._spill[cycle] = [event]
                if cycle < self._spill_min:
                    self._spill_min = cycle
            else:
                bucket.append(event)

    def _phase_event(self, channel: DVSChannel, controller: PortDVSController):
        """A fresh or recycled event record for a DVS phase boundary of
        *channel*, carrying the *controller* the boundary must wake."""
        pool = self._event_pool
        if pool:
            record = pool.pop()
            record[0] = EVENT_PHASE
            record[1] = channel
            record[2] = controller
            record[3] = None
            record[4] = None
            return record
        return [EVENT_PHASE, channel, controller, None, None]

    def iter_scheduled_events(self):
        """Yield every pending ``(cycle, event)`` pair, unordered.

        A read-only view over the union of the calendar ring and the spill
        dict, for diagnostics and the network sanitizer's conservation
        checks; callers must not mutate the event records or
        schedule/dispatch while iterating. A ring slot's cycle is
        recovered from its offset relative to ``now`` (each slot holds
        events for exactly one cycle in ``[now, now + ring_size)``).
        """
        for cycle, bucket in self._spill.items():
            for event in bucket:
                yield cycle, event
        if self._ring_count:
            now = self.now
            mask = self._ring_mask
            for slot, bucket in enumerate(self._ring):
                if bucket:
                    cycle = now + ((slot - now) & mask)
                    for event in bucket:
                        yield cycle, event

    def iter_active_routers(self):
        """Yield the active routers in ascending node order (zero-copy).

        A read-only view over the incremental active list for diagnostics
        and the network sanitizer: a router outside the list performed no
        work last cycle, so checker state derived from it is unchanged.
        """
        routers = self.routers
        for node in self._active_list:
            yield routers[node]

    def catch_up_controllers(self) -> None:
        """Replay every dormant controller's skipped windows into its
        counters and policy; the controllers stay dormant.

        :meth:`run_until`, :meth:`drain` and ``Simulator.finish`` call
        this, so controller and policy state read after any of them is
        exact. A caller driving the kernel with bare :meth:`step` calls
        it before reading that state. It moves no simulated bit.
        """
        for controller in self.controllers:
            if controller.windows_skipped:
                controller.catch_up()

    def _emit_transition(self, channel: DVSChannel, now: int, kind: str) -> None:
        event = TransitionEvent(
            cycle=now,
            channel=self._channel_ids[id(channel)],
            kind=kind,
            phase=channel.phase.value,
            level=channel.level,
            voltage_level=channel.voltage_level,
            target_level=channel.target_level,
        )
        for observer in self.bus.transition_hooks:
            observer.on_transition(event)

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------

    def _dispatch(self, events: list, now: int) -> None:  # repro-hot
        """Dispatch one cycle bucket's events, in scheduling order.

        An ARRIVAL is :meth:`Router.on_arrival` at the destination router
        plus its insertion into the active list. A CREDIT only replenishes
        one upstream buffer slot (output-VC ownership is released at tail
        launch, so packets may queue back-to-back in a downstream VC). It
        needs no overflow check: credits mirror downstream slots exactly,
        every credit return matches one departed flit, and the opt-in
        network sanitizer re-verifies that end to end. A PHASE wakes the
        channel's controller if it is dormant (so the windows it skipped
        are classified under the state they saw), ends a DVS channel phase
        and schedules the next boundary. Every record here
        is a pooled 5-slot list, recycled in the same pass; the
        outstanding-event counters are settled once per bucket rather than
        per event.
        """
        routers = self.routers
        active_flags = self._active_flags
        active_list = self._active_list
        pool = self._event_pool
        arrivals = 0
        phases = 0
        for event in events:
            kind = event[0]
            if kind == EVENT_ARRIVAL:
                arrivals += 1
                node = event[1]
                routers[node].on_arrival(event[2], event[3], event[4], now)
                if not active_flags[node]:
                    active_flags[node] = 1
                    insort(active_list, node)
            elif kind == EVENT_CREDIT:
                routers[event[1]].credit_states[event[2]].credits[event[3]] += 1
            else:  # EVENT_PHASE
                phases += 1
                channel = event[1]
                controller = event[2]
                if controller.dormant_action is not None:
                    controller.wake()
                ramps_before = channel.transition_count
                next_cycle = channel.on_phase_end(now)
                if next_cycle is not None:
                    self.schedule(next_cycle, self._phase_event(channel, controller))
                transition_hooks = self.bus.transition_hooks
                if transition_hooks:
                    self._emit_transition(channel, now, "phase_end")
                    if channel.transition_count > ramps_before:
                        self._emit_transition(channel, now, "ramp_start")
            pool.append(event)
        counters = self._counters
        counters[0] -= len(events) - phases
        counters[1] -= arrivals

    def step(self) -> None:  # repro-hot
        """Advance the simulation by one router cycle.

        Dormant controllers' skipped windows are replayed only when a run
        loop returns (:meth:`catch_up_controllers`).
        """
        now = self.now
        routers = self.routers
        bus = self.bus

        # Event dispatch: for a given cycle, spill-resident events were
        # necessarily scheduled earlier (from a smaller ``now``) than
        # ring-resident ones, so spill-first equals the old single-bucket
        # insertion order.
        if now == self._spill_min:
            spill = self._spill
            events = spill.pop(now)
            self._spill_min = min(spill) if spill else _NEVER
            self._dispatch(events, now)
        ring_bucket = self._ring[now & self._ring_mask]
        if ring_bucket:
            # Recycled records re-enter the ring only at future slots
            # (schedule targets are strictly after now), so clearing the
            # bucket after dispatch cannot drop a reused record.
            self._counters[2] -= len(ring_bucket)
            self._dispatch(ring_bucket, now)
            del ring_bucket[:]

        pairs = self.traffic.injections(now)
        if pairs:
            flits_per_packet = self._flits_per_packet
            offered_hooks = bus.offered_hooks
            active_flags = self._active_flags
            active_list = self._active_list
            counters = self._counters
            for src, dst in pairs:
                packet = Packet(src, dst, flits_per_packet, now)
                routers[src].offer_packet(packet)
                if not active_flags[src]:
                    active_flags[src] = 1
                    insort(active_list, src)
                counters[3] += 1
                if offered_hooks:
                    for observer in offered_hooks:
                        observer.on_packet_offered(packet, now)

        if now:
            if self.controllers and now % self._history_window == 0:
                transition_hooks = bus.transition_hooks
                for controller in self.controllers:
                    channel = controller.channel
                    if controller.dormant_action is not None:
                        if channel.busy_window == 0.0:
                            # All the skipped close would do to the channel.
                            channel.finalize(now)
                            controller.windows_skipped += 1
                            continue
                        # A flit went out: this window closes for real.
                        controller.wake()
                    pending_before = channel._phase_end_cycle
                    ramps_before = channel.transition_count
                    controller.close_window(now)
                    pending_after = channel._phase_end_cycle
                    if pending_after is not None and pending_after != pending_before:
                        self.schedule(
                            pending_after, self._phase_event(channel, controller)
                        )
                    if transition_hooks and channel.transition_count > ramps_before:
                        self._emit_transition(channel, now, "ramp_start")
            window_hooks = bus.window_hooks
            if window_hooks:
                for observer in window_hooks:
                    if now % observer.window_cycles == 0:
                        observer.on_window_close(now)

        cycle_hooks = bus.cycle_hooks
        if cycle_hooks:
            for observer in cycle_hooks:
                observer.on_cycle(now)

        active_list = self._active_list
        if active_list:
            # No router is *added* during this loop (arrivals and offers
            # happened in the phases above) and only the router being
            # stepped can become idle, so compacting in place preserves
            # the ascending order with no allocation.
            active_flags = self._active_flags
            count = len(active_list)
            write = 0
            read = 0
            while read < count:
                node = active_list[read]
                read += 1
                # step() returns its own not-idle indicator (the inverse
                # of Router.is_idle) — the innermost loop of the simulator
                # re-probing three attributes per stepped router is real.
                if routers[node].step(now):
                    active_list[write] = node
                    write += 1
                else:
                    active_flags[node] = 0
            if write != count:
                del active_list[write:]

        self.now = now + 1

    def run_cycles(self, cycles: int) -> None:
        """Run *cycles* more cycles (fast-forwarding quiescent spans)."""
        self.run_until(self.now + cycles)

    def run_until(self, target: int) -> None:
        """Advance until ``now == target`` (fast-forwarding where possible),
        then replay dormant controllers' skipped windows."""
        if not self.fast_forward:
            while self.now < target:
                self.step()
        else:
            while self.now < target:
                self._advance_chunk(target)
        self.catch_up_controllers()

    def _advance_chunk(self, target: int) -> None:
        """Advance at least one cycle toward *target*: skip or step.

        With an empty active list, every cycle strictly before the event
        horizon is provably a no-op — no events dispatch, the traffic
        source neither emits nor mutates, no window closes, no router
        steps — and all time-dependent accounting (link energy, occupancy
        integrals, idle-power accrual) is lazily integrated and therefore
        jump-safe. Skipping those cycles is bit-identical to stepping
        them.

        A ring slot holds only events due at the one cycle it maps to
        inside the ring's span, so a filled slot at ``now`` makes the
        horizon ``now`` itself: the cycle is due and steps without
        computing it.
        """
        now = self.now
        if (
            self.fast_forward
            and not self._active_list
            and not self._ring[now & self._ring_mask]
        ):
            horizon = self._quiescent_horizon()
            end = horizon if horizon < target else target
            if end > now:
                span_hooks = self.bus.idle_span_hooks
                if span_hooks:
                    for observer in span_hooks:
                        observer.on_idle_span(now, end)
                self.idle_cycles_skipped += end - now
                self.idle_spans += 1
                self.now = end
                return
        self.step()

    def _quiescent_horizon(self) -> int | float:
        """Earliest cycle >= now at which anything could happen.

        Only meaningful while the active list is empty. Returns ``now``
        itself when fast-forward is not permitted (an attached observer
        needs every cycle, or the traffic source cannot predict its next
        injection), which makes the caller fall back to a plain step.
        """
        now = self.now
        bus = self.bus
        if bus.unskippable_cycle_hooks:
            return now
        next_injection = self.traffic.next_injection_cycle(now)
        if next_injection is None:
            return now
        horizon: int | float = next_injection
        first_event: int | float = self._spill_min
        if self._ring_count:
            ring = self._ring
            mask = self._ring_mask
            for offset in range(mask + 1):
                if ring[(now + offset) & mask]:
                    cycle = now + offset
                    if cycle < first_event:
                        first_event = cycle
                    break
        if first_event < horizon:
            horizon = first_event
        if self.controllers:
            window = self.config.dvs.history_window
            # Next cycle with now % window == 0. A boundary at `now` itself
            # is still pending (it closes inside step(now)) and correctly
            # forces a plain step — except cycle 0, where nothing closes.
            boundary = now + (-now % window)
            if boundary == 0:
                boundary = window
            if boundary < horizon:
                horizon = boundary
        for observer in bus.window_hooks:
            window = observer.window_cycles
            boundary = now + (-now % window)
            if boundary == 0:
                boundary = window
            if boundary < horizon:
                horizon = boundary
        return horizon

    # ------------------------------------------------------------------
    # Drain diagnostics
    # ------------------------------------------------------------------

    def flits_in_network(self) -> int:
        """Flits buffered in routers plus flits in flight on the wires."""
        buffered = sum(router.total_buffered for router in self.routers)
        return buffered + self._pending_arrivals

    def pending_source_packets(self) -> int:
        """Packets waiting in source queues (plus partially injected ones).

        O(1): the counter is incremented when a packet is offered and
        decremented by the router when its tail flit enters the local
        input buffers.
        """
        return self._counters[3]

    def drain(self, max_cycles: int = 100_000) -> int:
        """Run with traffic as-is until the network empties; returns cycles.

        Intended for conservation tests: callers typically swap in an
        exhausted traffic source first. Raises if the network fails to
        drain within *max_cycles* (a deadlock or livelock).

        The emptiness probe is O(1) end-to-end: outstanding transport
        events, source-queue packets, and buffered flits are all tracked
        by counters (an empty active list implies every router buffer and
        injection queue is empty). The probe only needs evaluating at
        fast-forward chunk boundaries because nothing it reads can change
        across a skipped quiescent span.
        """
        start = self.now
        deadline = start + max_cycles
        while self.now < deadline:
            if (
                self._pending_transport == 0
                and not self._active_list
                and self._counters[3] == 0
                and self.traffic.pending_injections() == 0
            ):
                self.catch_up_controllers()
                return self.now - start
            if self.fast_forward:
                self._advance_chunk(deadline)
            else:
                self.step()
        raise SimulationError(f"network failed to drain within {max_cycles} cycles")
