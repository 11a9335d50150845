"""O(live-state) engine snapshots: fast cloning and state digests.

The batched sweep kernel (:mod:`repro.network.batched`) clones a class
engine whenever member policies diverge at a history-window boundary, and
re-merges classes whose states reconverge. Both operations used to lean on
``copy.deepcopy``, which walks the *entire* object graph — immutable
config, topology tables, route memos, pooled free lists — even though only
the mutable simulation state differs between two engines. This module
implements the explicit protocol instead:

* :func:`fast_clone` builds a new :class:`~repro.network.simulator.Simulator`
  that **shares** everything immutable or pure (config, topology, routing,
  VF tables, power/regulator models, route-computation memos, per-port
  destination tables) and **copies** only live mutable state: channel DVS
  registers and energy counters, VC buffer contents, credit counters,
  arbiter pointers, injection queues, the calendar ring/spill event queue,
  controller registers, observers, and the traffic source. Packets and
  flits are cloned through identity maps so shared-structure (one packet's
  flits across buffers and in-flight events) is preserved exactly,
  ``packet_id`` included. The clone receives *empty* event/flit free lists
  — pool occupancy is behaviorally invisible (a pool miss allocates a
  fresh object with identical state).

* :func:`state_digest` hashes the *behaviorally relevant* state along the
  same walk, canonicalized so that two engines receive equal digests
  exactly when their future evolution (results aside) is bit-identical:

  - stale ``busy_until`` values (``<= now``) canonicalize to ``now`` —
    every such value behaves identically in ``can_accept_flit`` and
    ``send_flit``;
  - the occupied-VC scan list drops entries whose buffer has emptied —
    the scan lazily discards them with no behavioral effect;
  - ``packet_id`` is excluded — ids come from a process-global counter,
    so independently evolving classes interleave differently even in
    identical states, and no simulated decision reads the id;
  - cumulative diagnostics and result accumulators are excluded:
    energy/transition/meter/latency state is carried per member by the
    batched coordinator as exact integer (or multiset) corrections, and
    cumulative bases (``busy_cycles_total``, occupancy integrals and the
    controller's last-integral register, ``_last_cycle`` stamps) cancel
    exactly in the windowed deltas the controllers compute (integer-valued
    float increments below 2**53 subtract exactly).

Both functions refuse structures they cannot prove they handle:
:func:`fast_clone` falls back to ``copy.deepcopy`` for instrumented
engines (sanitizer, probes, series observer, extra bus observers), and
raises :class:`~repro.errors.SimulationError` if the engine carries an
attribute this walk does not know — so a future engine field fails loudly
here instead of silently desynchronizing clones.
"""

from __future__ import annotations

import copy
import hashlib
import struct

from ..core.controller import PortDVSController
from ..core.dvs_link import DVSChannel
from ..errors import SimulationError
from ..instrument.bus import InstrumentBus
from ..instrument.observers import MeasurementMeter, PowerObserver
from ..metrics.latency import LatencyCollector
from ..network.arbiters import RoundRobinArbiter
from ..network.buffers import VCBuffer
from ..network.channel import NetworkChannel
from ..network.flowcontrol import CreditState, OccupancyTracker
from ..network.packet import Flit, Packet
from ..network.router import EVENT_ARRIVAL, EVENT_CREDIT, Router
from ..network.vc import InputVC
from ..power.accounting import PowerAccountant
from .simulator import Simulator

#: Every attribute a Simulator (engine included) owns. fast_clone and
#: state_digest both verify the live instance against this inventory so a
#: newly added engine field cannot be silently dropped from a clone.
_EXPECTED_ATTRS = frozenset(
    {
        # SimulationEngine.__init__
        "config",
        "bus",
        "fast_forward",
        "_flits_per_packet",
        "_history_window",
        "idle_cycles_skipped",
        "idle_spans",
        "topology",
        "routing",
        "_ring",
        "_ring_mask",
        "_spill",
        "_spill_min",
        "_event_pool",
        "_flit_pool",
        "now",
        "_counters",
        "_pending_source",
        "_active_flags",
        "_active_list",
        "routers",
        "channels",
        "_channel_ids",
        "controllers",
        "traffic",
        "sanitizer",
        # Simulator.__init__
        "series_window",
        "accountant",
        "probes",
        "_meter",
        "_power_observer",
        "_series_observer",
    }
)


def _check_inventory(sim: Simulator) -> None:
    unknown = set(sim.__dict__) - _EXPECTED_ATTRS
    if unknown:
        raise SimulationError(
            "fast_clone/state_digest do not know engine attribute(s) "
            f"{sorted(unknown)!r}; teach repro.network.snapshot about them "
            "(share, copy, or digest) before cloning this engine"
        )


def _needs_deepcopy(sim: Simulator) -> bool:
    """Whether *sim* carries instrumentation outside the fast-clone walk."""
    if sim.sanitizer is not None:
        return True
    if sim.probes or sim._series_observer is not None:
        return True
    if sim.bus.observers != [sim._meter, sim._power_observer]:
        return True
    return any(router.age_hooks for router in sim.routers)


# ---------------------------------------------------------------------------
# Leaf clones
# ---------------------------------------------------------------------------


def _clone_dvs(dvs: DVSChannel) -> DVSChannel:
    clone = DVSChannel.__new__(DVSChannel)
    # Every slot is a scalar, an immutable model shared by design (table,
    # power_model, regulator, timing), or the one mutable dict below.
    for name in DVSChannel.__slots__:
        setattr(clone, name, getattr(dvs, name))
    clone.level_step_counts = dict(dvs.level_step_counts)
    return clone


def _clone_tracker(tracker: OccupancyTracker) -> OccupancyTracker:
    clone = OccupancyTracker.__new__(OccupancyTracker)
    clone.occupied = tracker.occupied
    clone._integral = tracker._integral
    clone._last_cycle = tracker._last_cycle
    return clone


def _clone_credit_state(state: CreditState) -> CreditState:
    clone = CreditState.__new__(CreditState)
    clone.capacity_per_vc = state.capacity_per_vc
    clone.credits = list(state.credits)
    clone.vc_free = list(state.vc_free)
    return clone


def _clone_arbiter(arbiter: RoundRobinArbiter) -> RoundRobinArbiter:
    clone = RoundRobinArbiter.__new__(RoundRobinArbiter)
    clone.size = arbiter.size
    clone._next = arbiter._next
    return clone


class _Walk:
    """Identity maps shared by one fast_clone invocation."""

    __slots__ = ("packets", "flits", "dvs", "trackers")

    def __init__(self) -> None:
        self.packets: dict[int, Packet] = {}
        self.flits: dict[int, Flit] = {}
        self.dvs: dict[int, DVSChannel] = {}
        self.trackers: dict[int, OccupancyTracker] = {}

    def packet(self, packet: Packet) -> Packet:
        clone = self.packets.get(id(packet))
        if clone is None:
            clone = Packet.__new__(Packet)
            clone.src = packet.src
            clone.dst = packet.dst
            clone.size_flits = packet.size_flits
            clone.created_cycle = packet.created_cycle
            clone.packet_id = packet.packet_id
            clone.ejected_cycle = packet.ejected_cycle
            clone.vc_class = packet.vc_class
            clone.last_dim = packet.last_dim
            self.packets[id(packet)] = clone
        return clone

    def flit(self, flit: Flit) -> Flit:
        clone = self.flits.get(id(flit))
        if clone is None:
            clone = Flit.__new__(Flit)
            clone.packet = self.packet(flit.packet)
            clone.index = flit.index
            clone.is_head = flit.is_head
            clone.is_tail = flit.is_tail
            clone.buffer_arrival_cycle = flit.buffer_arrival_cycle
            self.flits[id(flit)] = clone
        return clone


def _clone_router(src: Router, target: Simulator, walk: _Walk) -> Router:
    router = Router.__new__(Router)
    router.node = src.node
    router.local_port = src.local_port
    router.vcs_per_port = src.vcs_per_port
    router.routing = src.routing
    router.schedule = target.schedule
    router.packet_sink = target._on_packet_ejected
    router.injected_sink = target._on_packet_injected
    router.credit_delay = src.credit_delay
    router.event_pool = target._event_pool
    router.flit_pool = target._flit_pool
    router._fast_ring = None
    router._fast_mask = 0
    router._fast_counters = None

    router.occupancy = []
    for tracker in src.occupancy:
        if tracker is None:
            router.occupancy.append(None)
        else:
            clone = _clone_tracker(tracker)
            walk.trackers[id(tracker)] = clone
            router.occupancy.append(clone)
    # Read-only wiring tables, shared: upstream coordinates, downstream
    # coordinates, pipeline latencies, dateline-class rows, route memo
    # (pure function of its key; cached lists are never mutated).
    router.credit_targets = src.credit_targets
    router._port_dst = src._port_dst
    router._port_pipeline = src._port_pipeline
    router._next_class = src._next_class
    router._route_memo = src._route_memo

    vc_map: dict[int, InputVC] = {}
    router.in_vcs = []
    for row in src.in_vcs:
        new_row = []
        for vcstate in row:
            clone = InputVC.__new__(InputVC)
            buffer = VCBuffer.__new__(VCBuffer)
            buffer.capacity = vcstate.buffer.capacity
            buffer.flits = type(vcstate.buffer.flits)(
                walk.flit(flit) for flit in vcstate.buffer.flits
            )
            clone.buffer = buffer
            clone.out_port = vcstate.out_port
            clone.out_vc = vcstate.out_vc
            clone.route_options = vcstate.route_options
            clone.flits = buffer.flits
            clone.capacity = vcstate.capacity
            clone.in_port = vcstate.in_port
            clone.in_vc = vcstate.in_vc
            clone.rid = vcstate.rid
            tracker = vcstate.tracker
            clone.tracker = None if tracker is None else walk.trackers[id(tracker)]
            clone.credit_target = vcstate.credit_target
            clone.in_occ = vcstate.in_occ
            vc_map[id(vcstate)] = clone
            new_row.append(clone)
        router.in_vcs.append(new_row)

    # Filled by fast_clone once the clone's channel list exists.
    router.channels = [None] * len(src.channels)
    router.credit_states = [
        None if state is None else _clone_credit_state(state)
        for state in src.credit_states
    ]
    router.connected_out = src.connected_out
    router.sa_arbiters = [
        None if arbiter is None else _clone_arbiter(arbiter)
        for arbiter in src.sa_arbiters
    ]
    router._port_dvs = [
        None if dvs is None else walk.dvs[id(dvs)] for dvs in src._port_dvs
    ]

    router.inj_queue = type(src.inj_queue)(
        walk.packet(packet) for packet in src.inj_queue
    )
    router.inj_flits = [walk.flit(flit) for flit in src.inj_flits]
    router.inj_pos = src.inj_pos
    router.inj_vc = src.inj_vc
    router.total_buffered = src.total_buffered
    router.age_hooks = {}
    router.flits_ejected = src.flits_ejected
    router.packets_ejected = src.packets_ejected
    router.flits_launched = src.flits_launched

    router._vc_scan = [vc_map[id(vcstate)] for vcstate in src._vc_scan]
    router._local_vcs = router.in_vcs[router.local_port]
    router._occ_list = list(src._occ_list)
    router._req_ports = list(src._req_ports)
    router._req_lists = [
        [vc_map[id(vcstate)] for vcstate in requests]
        for requests in src._req_lists
    ]
    router._grants = [vc_map[id(vcstate)] for vcstate in src._grants]
    router._hot = (
        router.local_port,
        router.credit_states,
        router._port_dvs,
        router._req_ports,
        router._req_lists,
        router._vc_scan,
        router._occ_list,
        router.sa_arbiters,
        router.schedule,
        router.credit_delay,
        router._port_dst,
        router._port_pipeline,
        router.age_hooks,
        router._grants,
    )
    return router


def _map_event(event: list, walk: _Walk) -> list:
    kind = event[0]
    if kind == EVENT_ARRIVAL:
        return [kind, event[1], event[2], event[3], walk.flit(event[4])]
    if kind == EVENT_CREDIT:
        return [kind, event[1], event[2], event[3], event[4]]
    return [kind, walk.dvs[id(event[1])], None, None, None]


# ---------------------------------------------------------------------------
# fast_clone
# ---------------------------------------------------------------------------


def fast_clone(sim: Simulator) -> Simulator:
    """An independent Simulator bit-identical in behavior to *sim*.

    Continuing the clone and a ``copy.deepcopy`` of *sim* produces equal
    :class:`~repro.network.simulator.SimulationResult`\\ s (the property
    tests in ``tests/test_snapshot.py`` assert exactly that for every
    registered policy). Cost is proportional to the *live* mutable state —
    buffered flits, pending events, per-channel registers — not to the
    full object graph.
    """
    _check_inventory(sim)
    if _needs_deepcopy(sim):
        clone = copy.deepcopy(sim)
        # deepcopy preserves values, not ids — rebuild the id-keyed index.
        clone._channel_ids = {
            id(channel.dvs): channel.spec.channel_id
            for channel in clone.channels
        }
        return clone

    walk = _Walk()
    clone = object.__new__(type(sim))

    # Shared immutables / pure structures.
    clone.config = sim.config
    clone.topology = sim.topology
    clone.routing = sim.routing
    clone.fast_forward = sim.fast_forward
    clone._flits_per_packet = sim._flits_per_packet
    clone._history_window = sim._history_window
    clone.series_window = sim.series_window
    clone.sanitizer = None
    clone.probes = []
    clone._series_observer = None

    # Scalar engine state.
    clone.now = sim.now
    clone.idle_cycles_skipped = sim.idle_cycles_skipped
    clone.idle_spans = sim.idle_spans
    clone._ring_mask = sim._ring_mask
    clone._spill_min = sim._spill_min
    clone._counters = list(sim._counters)
    clone._pending_source = sim._pending_source
    clone._active_flags = bytearray(sim._active_flags)
    clone._active_list = list(sim._active_list)
    clone._event_pool = []
    clone._flit_pool = []

    # Channels first: events and routers reference the DVS clones.
    clone.channels = []
    for channel in sim.channels:
        dvs = _clone_dvs(channel.dvs)
        walk.dvs[id(channel.dvs)] = dvs
        clone.channels.append(
            NetworkChannel(channel.spec, dvs, channel.pipeline_latency)
        )
    clone._channel_ids = {
        id(channel.dvs): channel.spec.channel_id for channel in clone.channels
    }

    # Event queue: map every record onto the clone's object graph,
    # preserving bucket membership and in-bucket order exactly.
    clone._ring = [
        [_map_event(event, walk) for event in bucket] for bucket in sim._ring
    ]
    clone._spill = {
        cycle: [_map_event(event, walk) for event in bucket]
        for cycle, bucket in sim._spill.items()
    }

    # Routers, wired to the clone's channels by positional lookup.
    channel_clone_by_id = {
        id(original): clone.channels[index]
        for index, original in enumerate(sim.channels)
    }
    clone.routers = []
    for src in sim.routers:
        router = _clone_router(src, clone, walk)
        router.channels = [
            None if channel is None else channel_clone_by_id[id(channel)]
            for channel in src.channels
        ]
        router.bind_fast_queue(clone._ring, clone._ring_mask, clone._counters)
        clone.routers.append(router)

    # Controllers: cloned channel + cloned tracker + deep-copied policy
    # (policy objects are small and self-contained: puppet replays in the
    # batched kernel, EWMA registers in scalar use).
    clone.controllers = []
    for controller in sim.controllers:
        new = PortDVSController.__new__(PortDVSController)
        new.channel = walk.dvs[id(controller.channel)]
        new.policy = copy.deepcopy(controller.policy)
        source = controller.occupancy_source
        tracker = walk.trackers.get(id(source))
        if tracker is None:
            raise SimulationError(
                "fast_clone requires controller occupancy sources to be "
                "router occupancy trackers; found "
                f"{type(source).__name__!r}"
            )
        new.occupancy_source = tracker
        new.window_cycles = controller.window_cycles
        new.buffer_capacity = controller.buffer_capacity
        new.windows_evaluated = controller.windows_evaluated
        new.actions_taken = dict(controller.actions_taken)
        new.requests_dropped = controller.requests_dropped
        new.last_link_utilization = controller.last_link_utilization
        new.last_buffer_utilization = controller.last_buffer_utilization
        new._last_occupancy_integral = controller._last_occupancy_integral
        clone.controllers.append(new)

    # Traffic: a small self-contained object graph (heaps, RNG state);
    # deepcopy is both exact and cheap relative to the network state.
    clone.traffic = copy.deepcopy(sim.traffic)

    # Measurement stack: fresh accountant/meter/observer over the clone's
    # channels, state copied field by field, attached in __init__ order.
    accountant = PowerAccountant.__new__(PowerAccountant)
    accountant.channels = [channel.dvs for channel in clone.channels]
    accountant.router_clock_hz = sim.accountant.router_clock_hz
    accountant.baseline_power_w = sim.accountant.baseline_power_w
    accountant._start_cycle = sim.accountant._start_cycle
    accountant._start_link_energy_fj = sim.accountant._start_link_energy_fj
    accountant._start_transitions = sim.accountant._start_transitions
    accountant._start_transition_energy_fj = (
        sim.accountant._start_transition_energy_fj
    )
    clone.accountant = accountant

    meter = MeasurementMeter.__new__(MeasurementMeter)
    latency = LatencyCollector.__new__(LatencyCollector)
    latency._latencies = list(sim._meter.latency._latencies)
    meter.latency = latency
    meter.measuring = sim._meter.measuring
    meter.measure_start = sim._meter.measure_start
    meter.offered = sim._meter.offered
    meter.ejected = sim._meter.ejected
    meter.total_ejected = sim._meter.total_ejected
    clone._meter = meter

    observer = PowerObserver.__new__(PowerObserver)
    observer.accountant = accountant
    observer.ramp_starts_seen = sim._power_observer.ramp_starts_seen
    clone._power_observer = observer

    bus = InstrumentBus()
    bus.attach(meter)
    bus.attach(observer)
    clone.bus = bus
    return clone


# ---------------------------------------------------------------------------
# state_digest
# ---------------------------------------------------------------------------


def _encode(obj, out: list) -> None:
    """Type-tagged, structure-unambiguous canonical byte encoding."""
    if obj is True:
        out.append(b"T")
    elif obj is False:
        out.append(b"F")
    elif obj is None:
        out.append(b"N")
    else:
        kind = type(obj)
        if kind is int:
            out.append(b"i%d;" % obj)
        elif kind is float:
            out.append(b"f")
            out.append(struct.pack("<d", obj))
        elif kind is str:
            raw = obj.encode("utf-8")
            out.append(b"s%d:" % len(raw))
            out.append(raw)
        elif kind is tuple or kind is list:
            out.append(b"(%d:" % len(obj))
            for item in obj:
                _encode(item, out)
            out.append(b")")
        else:
            raise SimulationError(
                f"state_digest cannot canonicalize a {kind.__name__!r}"
            )


def state_digest(sim: Simulator) -> bytes:
    """Canonical digest of *sim*'s behaviorally relevant state.

    Two engines with equal digests at the same cycle evolve bit-identically
    forever (given identical future policy commands); the batched kernel
    coalesces equivalence classes on digest equality at history-window
    boundaries. See the module docstring for the canonicalization and
    exclusion rules.
    """
    _check_inventory(sim)
    now = sim.now
    items: list = [now, sim._pending_source, sim.traffic.packets_offered]

    for channel in sim.channels:
        dvs = channel.dvs
        busy_until = dvs.busy_until
        items.append(
            (
                dvs._level,
                dvs._voltage_level,
                dvs._target_level,
                dvs._phase.name,
                dvs._phase_end_cycle,
                dvs.locked,
                dvs.sleeping,
                dvs.sleep_demand,
                dvs._sleep_lockout_until,
                dvs._last_energy_cycle,
                busy_until if busy_until > now else float(now),
                dvs.busy_window,
            )
        )

    # Packet identity table: first-visit order; packet_id excluded (the
    # process-global counter interleaves across classes).
    packet_index: dict[int, int] = {}

    def pk(packet: Packet) -> int:
        index = packet_index.get(id(packet))
        if index is None:
            index = len(packet_index)
            packet_index[id(packet)] = index
            items.append(
                (
                    packet.src,
                    packet.dst,
                    packet.size_flits,
                    packet.created_cycle,
                    packet.vc_class,
                    packet.last_dim,
                )
            )
        return index

    for router in sim.routers:
        items.append((router.total_buffered, router.inj_pos, router.inj_vc))
        items.append(tuple(pk(packet) for packet in router.inj_queue))
        items.append(tuple((pk(flit.packet), flit.index) for flit in router.inj_flits))
        for state in router.credit_states:
            if state is not None:
                items.append((tuple(state.credits), tuple(state.vc_free)))
        for arbiter in router.sa_arbiters:
            if arbiter is not None:
                items.append(arbiter._next)
        for tracker in router.occupancy:
            if tracker is not None:
                items.append(tracker.occupied)
        scan = router._vc_scan
        for vcstate in scan:
            items.append(
                (
                    vcstate.out_port,
                    vcstate.out_vc,
                    tuple(
                        (pk(flit.packet), flit.index, flit.buffer_arrival_cycle)
                        for flit in vcstate.flits
                    ),
                )
            )
        # Emptied-buffer entries are dropped lazily by the scan with no
        # behavioral effect; canonicalize them away.
        items.append(tuple(rid for rid in router._occ_list if scan[rid].flits))

    items.append(tuple(sim._active_list))

    # Pending events, in exact dispatch order: ascending cycle, spill
    # bucket before ring bucket, insertion order within each.
    ring_buckets: dict[int, list] = {}
    if sim._counters[2]:
        mask = sim._ring_mask
        for slot, bucket in enumerate(sim._ring):
            if bucket:
                ring_buckets[now + ((slot - now) & mask)] = bucket
    spill = sim._spill
    # Not sim._channel_ids: that map keys object ids and goes stale across
    # deepcopy (the batched kernel rebuilds it after cloning).
    channel_ids = {
        id(channel.dvs): channel.spec.channel_id for channel in sim.channels
    }
    for cycle in sorted(set(spill) | set(ring_buckets)):
        encoded = []
        for bucket in (spill.get(cycle), ring_buckets.get(cycle)):
            if not bucket:
                continue
            for event in bucket:
                kind = event[0]
                if kind == EVENT_ARRIVAL:
                    flit = event[4]
                    # buffer_arrival_cycle is overwritten at dispatch.
                    encoded.append(
                        (kind, event[1], event[2], event[3], pk(flit.packet), flit.index)
                    )
                elif kind == EVENT_CREDIT:
                    encoded.append((kind, event[1], event[2], event[3], bool(event[4])))
                else:
                    encoded.append((kind, channel_ids[id(event[1])]))
        items.append((cycle, tuple(encoded)))

    out: list = []
    _encode(items, out)
    return hashlib.blake2b(b"".join(out), digest_size=16).digest()
