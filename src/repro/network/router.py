"""Pipelined virtual-channel router.

Models one router of the paper's network (Section 4.2): an input-queued VC
router in the style of the Alpha 21364's integrated router, with

* per-input-port VC buffers (128 flit slots split across 2 VCs by default),
* route computation and VC allocation for head flits,
* separable switch allocation with rotating priority per output port and at
  most one grant per input port per cycle (crossbar speedup 1),
* credit-based flow control with a configurable credit return delay,
* a fixed pipeline latency applied to flits in flight, standing in for the
  13-stage pipeline's stages between switch allocation and link traversal,
* immediate ejection at the destination (one flit per VC per cycle, no
  ejection-bandwidth artifacts, per the paper's latency definition).

The router communicates with the rest of the network only through the
kernel's event queue: a launched flit becomes an ARRIVAL record addressed
to the downstream :class:`~repro.network.vc.InputVC`, a dequeued flit a
CREDIT record addressed to the upstream port's credit list. The per-cycle
:meth:`step` is the kernel's hot path and is written to allocate nothing
in steady state:

* every per-VC fact the scan needs (the buffer's deque, the request id,
  the occupancy tracker, the upstream credit list) is prebound onto the
  :class:`~repro.network.vc.InputVC` at construction and wiring time;
* per-output-port channel facts (DVS state machine, the downstream
  port's input VCs, pipeline latency) are prebound into flat lists at
  :meth:`attach_channel` time;
* switch-allocation requests accumulate in persistent per-port lists that
  are cleared after arbitration instead of a per-cycle dict;
* event records are reusable 3-slot lists drawn from the kernel's shared
  free list (``event_pool``), and ejected flits return to a shared
  ``flit_pool`` for reuse at injection.

Each flit-path rule has one body. Launch and injection live in
:meth:`step`; ejection lives in :meth:`_eject`, which the step calls for a
buffered flit and the kernel's dispatch loop for a flit that reaches an
empty VC bound for this node (it ejects in the cycle the step would have
ejected it, without entering the buffer or waking the router). The
enqueue of an arriving flit lives in that dispatch loop. Credit underflow
and double VC allocation are guarded structurally (a switch-allocation
request is only filed with a positive credit in the same cycle that
consumes it; a downstream VC is claimed once at allocation and released
once at tail launch), and the opt-in network sanitizer re-verifies both
invariants end to end. The launch stage inlines the wire update of
:meth:`DVSChannel.send_flit <repro.core.dvs_link.DVSChannel.send_flit>`,
which stays as the oracle ``tests/test_router.py`` compares it against.

A router exists only inside a
:class:`~repro.network.engine.SimulationEngine`, and it calls back into
nothing above it: the engine hands it, as constructor arguments, the kernel
state it writes (see ``docs/architecture.md``):

* ``ring`` — the kernel's calendar ring, a power-of-two list of per-cycle
  event lists. A launch appends the ARRIVAL at ``ring[cycle & mask]`` (and
  a CREDIT for the upstream router unless the flit came from the local
  port), an ejection appends a CREDIT. The kernel sizes the ring past the
  furthest cycle a launch can reach; an arrival beyond it raises
  :class:`~repro.errors.SimulationError`.
* ``counters`` — the kernel's counters ``[flits in network, source
  packets]``. A flit entering the local input buffers bumps the first and
  an ejected flit drops it; a packet whose tail flit enters the local
  input buffers leaves the source queue side and decrements the second.
  Nothing is counted per hop.
* ``event_pool`` / ``flit_pool`` — the kernel's shared free lists.
* ``ejected_hooks`` — the instrument bus's ``on_packet_ejected`` dispatch
  list (attach and detach edit it in place), fanned out on every tail
  ejection.

Holding only plain containers and other routers' input VCs, a router
closes no reference cycle with its engine, so a finished simulation is
freed by reference counting alone. Per-input-port ``age_hooks`` lists of
``hook(age_cycles)`` callables fire on every dequeue (an ejection at
dispatch reports age 0); utilization probes tap buffer-age distributions
(paper Figure 5) through these.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from math import ceil
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigError, SimulationError
from .channel import NetworkChannel
from .flowcontrol import CreditState, OccupancyTracker
from .packet import Flit, Packet
from .routing import RoutingFunction
from .topology import Topology
from .vc import UNROUTED, InputVC

if TYPE_CHECKING:
    from ..instrument.bus import Observer

#: Event kinds understood by the kernel's dispatch loop.
EVENT_ARRIVAL = 0
EVENT_CREDIT = 1
EVENT_PHASE = 2

class Router:
    """One virtual-channel router plus its attached output channels."""

    __slots__ = (
        "node",
        "local_port",
        "vcs_per_port",
        "routing",
        "in_vcs",
        "occupancy",
        "channels",
        "credit_states",
        "connected_out",
        "_sa_next",
        "_sa_size",
        "inj_queue",
        "inj_flits",
        "inj_pos",
        "inj_vc",
        "total_buffered",
        "ejected_hooks",
        "age_hooks",
        "credit_delay",
        "flits_ejected",
        "packets_ejected",
        "event_pool",
        "flit_pool",
        "_fast_ring",
        "_fast_mask",
        "_fast_counters",
        "_vc_scan",
        "_occ_list",
        "_local_vcs",
        "_req_ports",
        "_req_lists",
        "_port_dvs",
        "_port_vcs",
        "_port_pipeline",
        "_grants",
        "_route_memo",
        "_next_class",
        "_hot",
    )

    def __init__(
        self,
        node: int,
        topology: Topology,
        routing: RoutingFunction,
        *,
        vcs_per_port: int,
        buffers_per_vc: int,
        credit_delay: int,
        ring: list[list],
        counters: list[int],
        event_pool: list[list],
        flit_pool: list[Flit],
        ejected_hooks: list[Observer],
    ):
        size = len(ring)
        if size & (size - 1) or not 0 < credit_delay < size:
            raise SimulationError(
                f"the calendar ring needs a power-of-two size above the "
                f"credit delay of {credit_delay} cycles, got {size} slots"
            )
        self.node = node
        self.local_port = topology.local_port
        self.vcs_per_port = vcs_per_port
        self.routing = routing
        self.credit_delay = credit_delay
        # The kernel state this router writes (see the module docstring).
        self._fast_ring = ring
        self._fast_mask = size - 1
        self._fast_counters = counters
        self.event_pool = event_pool
        self.flit_pool = flit_pool
        self.ejected_hooks = ejected_hooks

        num_in_ports = topology.ports_per_router + 1  # network ports + local
        self.in_vcs = [
            [InputVC(buffers_per_vc) for _ in range(vcs_per_port)]
            for _ in range(num_in_ports)
        ]
        # Occupancy trackers only where an upstream DVS controller (or a
        # profiling probe) watches the port, i.e. network input ports.
        self.occupancy: list[OccupancyTracker | None] = [
            OccupancyTracker() if p < topology.ports_per_router else None
            for p in range(num_in_ports)
        ]
        # Output side: filled in by the simulator via attach_channel().
        ports = topology.ports_per_router
        self.channels: list[NetworkChannel | None] = [None] * ports
        self.credit_states: list[CreditState | None] = [None] * ports
        self.connected_out: tuple[int, ...] = ()
        #: Rotating switch-allocation priority per output port: the request
        #: id that wins ties next, i.e. one past the last winner. Every port
        #: arbitrates over the same ``_sa_size`` request ids.
        self._sa_next: list[int] = [0] * ports
        self._sa_size = num_in_ports * vcs_per_port
        self._port_dvs: list = [None] * ports
        #: The downstream port's input VCs per output port: a launch
        #: addresses its ARRIVAL record to ``_port_vcs[out_port][out_vc]``.
        self._port_vcs: list[list[InputVC] | None] = [None] * ports
        self._port_pipeline: list[int] = [0] * ports

        self.inj_queue: deque[Packet] = deque()
        self.inj_flits: list[Flit] = []
        self.inj_pos = 0
        self.inj_vc = 0
        self.total_buffered = 0
        self.age_hooks: dict[int, list[Callable[[int], None]]] = {}
        self.flits_ejected = 0
        self.packets_ejected = 0

        # Prebind every per-VC fact the hot scan needs (see vc.py); the
        # upstream router binds ``upstream_credits`` in its attach_channel.
        self._vc_scan: list[InputVC] = []
        for p in range(num_in_ports):
            tracker = self.occupancy[p]
            for v in range(vcs_per_port):
                vcstate = self.in_vcs[p][v]
                vcstate.node = node
                vcstate.in_port = p
                vcstate.in_vc = v
                vcstate.rid = p * vcs_per_port + v
                vcstate.tracker = tracker
                self._vc_scan.append(vcstate)
        self._local_vcs = self.in_vcs[self.local_port]
        #: Request ids of VCs whose deque is (or was recently) non-empty,
        #: ascending — the per-cycle scan walks only these instead of all
        #: ports x VCs. Enqueue sites insert eagerly (guarded by
        #: ``InputVC.in_occ``); the scan drops emptied entries lazily, so
        #: the order always equals the full scan's visit order.
        self._occ_list: list[int] = []
        # Persistent switch-allocation request structures: request lists
        # per output port plus the ports requested this cycle, cleared
        # after arbitration (no per-cycle dict).
        self._req_ports: list[int] = []
        self._req_lists: list[list[InputVC]] = [[] for _ in range(ports)]
        # Switch-allocation winners this cycle, traversed after all grant
        # decisions (cleared in step; the winner's out_port/out_vc live on
        # the InputVC itself).
        self._grants: list[InputVC] = []
        # Route-computation memo: (dst, vc_class, last_dim) -> the options
        # list _route_and_allocate would build. Valid because the routing
        # interface is a pure function of those inputs (plus this fixed
        # node), and the cached list is never mutated — VCs share it via
        # route_options and only ever drop their reference.
        self._route_memo: dict[tuple[int, int, int], list] = {}
        # Per-port next_vc_class table, filled by attach_channel.
        self._next_class: list[tuple[int, ...]] = [()] * ports
        # Everything step() needs on every call that is fixed for the
        # router's lifetime, as one tuple: a single attribute load + unpack
        # replaces ~13 per step. Safe to capture here because every element
        # is either a constant or a container only ever mutated in place
        # (attach_channel fills the port lists; probes append into
        # age_hooks). What only a launch needs (ring, pools) stays in
        # attributes, loaded once per cycle with grants.
        self._hot = (
            self.local_port,
            self.credit_states,
            self._port_dvs,
            self._req_ports,
            self._req_lists,
            self._vc_scan,
            self._occ_list,
            self._sa_next,
            self._sa_size,
            self.credit_delay,
            self._port_vcs,
            self._port_pipeline,
            self.age_hooks,
            self._grants,
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_channel(
        self, out_port: int, channel: NetworkChannel, downstream: list[InputVC]
    ) -> None:
        """Connect *channel* at *out_port* (called during network build).

        *downstream* is the input VC list of the port the channel feeds.
        Launches address their ARRIVAL records to its VCs, and each of
        them returns its credits to this port's credit list, one credit
        per buffer slot.
        """
        if self.channels[out_port] is not None:
            raise SimulationError(f"output port {out_port} already attached")
        self.channels[out_port] = channel
        credit_state = CreditState(self.vcs_per_port, downstream[0].capacity)
        self.credit_states[out_port] = credit_state
        for vcstate in downstream:
            vcstate.upstream_credits = credit_state.credits
        self._port_dvs[out_port] = channel.dvs
        self._port_vcs[out_port] = downstream
        self._port_pipeline[out_port] = channel.pipeline_latency
        # Tabulate the (pure) dateline-class transition for this port. The
        # traversal loop indexes the table with the classes it produces, so
        # it must be closed: every output indexes back into it.
        classes = max(2, self.vcs_per_port)
        row = tuple(
            self.routing.next_vc_class(self.node, out_port, c)
            for c in range(classes)
        )
        if min(row) < 0 or max(row) >= classes:
            raise ConfigError(
                f"routing {type(self.routing).__name__} maps dateline classes "
                f"{list(range(classes))} to {list(row)} at node {self.node} "
                f"port {out_port}, outside the {classes} classes the router tabulates"
            )
        self._next_class[out_port] = row
        self.connected_out = tuple(
            p for p, ch in enumerate(self.channels) if ch is not None
        )

    @property
    def is_idle(self) -> bool:
        """True when :meth:`step` would be a no-op this cycle."""
        return not (self.total_buffered or self.inj_flits or self.inj_queue)

    @property
    def flits_launched(self) -> int:
        """Flits this router has launched: its output channels' sends."""
        port_dvs = self._port_dvs
        return sum(port_dvs[port].flits_sent for port in self.connected_out)

    @staticmethod
    def _event_record() -> list:
        """Pool-miss fallback: a fresh 3-slot event record."""
        return [0, None, None]

    # ------------------------------------------------------------------
    # Read-only views (diagnostics / network sanitizer)
    # ------------------------------------------------------------------

    def iter_vc_states(self):
        """Yield ``(in_port, vc, InputVC)`` for every input VC."""
        for vcstate in self._vc_scan:
            yield vcstate.in_port, vcstate.in_vc, vcstate

    def unsent_source_flits(self) -> int:
        """Flits offered at this node but not yet in the input buffers:
        whole packets queued at the source plus the unsent remainder of a
        partially injected packet."""
        queued = sum(packet.size_flits for packet in self.inj_queue)
        return queued + len(self.inj_flits) - self.inj_pos

    # ------------------------------------------------------------------
    # Source queue
    # ------------------------------------------------------------------

    def offer_packet(self, packet: Packet) -> None:
        """Enqueue *packet* in this node's source queue."""
        self.inj_queue.append(packet)

    # ------------------------------------------------------------------
    # Per-cycle pipeline
    # ------------------------------------------------------------------

    def step(self, now: int):  # repro-hot
        """One router cycle: eject, route/allocate, switch-allocate, inject.

        Returns a truthy value when the router still has work after the
        cycle (buffered flits or pending injections), falsy when idle.
        """
        (
            local_port,
            credit_states,
            port_dvs,
            req_ports,
            req_lists,
            vc_scan,
            occ,
            sa_next,
            sa_size,
            credit_delay,
            port_vcs,
            port_pipeline,
            age_hooks,
            grants,
        ) = self._hot
        horizon = now + 1

        count = len(occ)
        if count == 1:
            # Lone-occupied-VC fast path — the overwhelmingly common case
            # at saturation (one packet flowing through the router). One
            # occupied VC can file at most one switch-allocation request,
            # which trivially wins its port's arbitration (the rotated-
            # priority minimum of a single requester is that requester),
            # so the request/grant machinery below collapses to a direct
            # eligibility check. Same decisions, same order.
            rid = occ[0]
            vcstate = vc_scan[rid]
            flits = vcstate.flits
            if not flits:
                vcstate.in_occ = False
                del occ[:]
            else:
                out_port = vcstate.out_port
                if out_port == UNROUTED:
                    head = flits[0]
                    if not head.is_head:
                        raise SimulationError(
                            f"body flit at head of unrouted VC at node {self.node}"
                        )
                    packet = head.packet
                    if packet.dst == self.node:
                        vcstate.out_port = local_port
                        vcstate.out_vc = 0
                        out_port = local_port
                    else:
                        out_port = self._route_and_allocate(vcstate, packet)
                if out_port == local_port:
                    self._eject(vcstate, now)
                    if not flits:
                        vcstate.in_occ = False
                        del occ[:]
                elif out_port != UNROUTED:
                    # Needs a credit and a willing wire (as the scan below).
                    if credit_states[out_port].credits[vcstate.out_vc] > 0:
                        dvs = port_dvs[out_port]
                        if not dvs.locked and dvs.busy_until < horizon:
                            # The winner becomes the lowest-priority
                            # requester next round.
                            sa_next[out_port] = (rid + 1) % sa_size
                            grants.append(vcstate)
                        elif dvs.sleeping:
                            dvs.sleep_demand = True
        elif count:
            # Scan only the occupied VCs, in ascending request-id order —
            # the exact order the old full scan visited non-empty VCs.
            # Entries whose deque emptied since (a launch last cycle) are
            # dropped in place; nothing is added during the loop (arrivals
            # dispatched before stepping, injection runs after).
            write = 0
            read = 0
            while read < count:
                rid = occ[read]
                read += 1
                vcstate = vc_scan[rid]
                flits = vcstate.flits
                if not flits:
                    vcstate.in_occ = False
                    continue
                out_port = vcstate.out_port
                if out_port == UNROUTED:
                    head = flits[0]
                    if not head.is_head:
                        raise SimulationError(
                            f"body flit at head of unrouted VC at node {self.node}"
                        )
                    packet = head.packet
                    if packet.dst == self.node:
                        vcstate.out_port = local_port
                        vcstate.out_vc = 0
                        out_port = local_port
                    else:
                        out_port = self._route_and_allocate(vcstate, packet)
                        if out_port == UNROUTED:
                            occ[write] = rid
                            write += 1
                            continue  # retry next cycle
                if out_port == local_port:
                    self._eject(vcstate, now)
                    if flits:
                        occ[write] = rid
                        write += 1
                    else:
                        vcstate.in_occ = False
                    continue
                occ[write] = rid
                write += 1
                # Switch-allocation request: needs a credit and a willing
                # wire.
                if credit_states[out_port].credits[vcstate.out_vc] <= 0:
                    continue
                dvs = port_dvs[out_port]
                if dvs.locked or dvs.busy_until >= horizon:
                    if dvs.sleeping:
                        dvs.sleep_demand = True
                    continue
                bucket = req_lists[out_port]
                if not bucket:
                    req_ports.append(out_port)
                bucket.append(vcstate)
            if write != count:
                del occ[write:]

            if req_ports:
                # Separable switch allocation, one rotating-priority grant
                # per requested output port, at most one grant per input
                # port. Ports arbitrate in first-request order; within a
                # port the smallest request id rotated by the port's
                # priority head wins.
                # Winners traverse the switch after all grant decisions —
                # deferral is invisible because a traversal touches only
                # its own VC and its own output port, each granted at most
                # once per cycle.
                granted_inputs = 0
                for out_port in req_ports:
                    bucket = req_lists[out_port]
                    if len(bucket) == 1:
                        # Lone requester: the rotated-priority minimum is
                        # the requester itself whatever the head priority.
                        best = bucket[0]
                        if granted_inputs and (granted_inputs >> best.in_port) & 1:
                            best = None
                        del bucket[:]
                        if best is None:
                            continue
                    else:
                        head_priority = sa_next[out_port]
                        best = None
                        best_key = sa_size
                        for vcstate in bucket:
                            if granted_inputs and (granted_inputs >> vcstate.in_port) & 1:
                                continue
                            key = (vcstate.rid - head_priority) % sa_size
                            if key < best_key:
                                best_key = key
                                best = vcstate
                        del bucket[:]
                        if best is None:
                            continue
                    # The winner becomes the lowest-priority requester next
                    # round.
                    sa_next[out_port] = (best.rid + 1) % sa_size
                    granted_inputs |= 1 << best.in_port
                    grants.append(best)
                del req_ports[:]

        if grants:
            pool = self.event_pool
            ring = self._fast_ring
            mask = self._fast_mask
            for best in grants:
                out_port = best.out_port
                # -- switch traversal --
                flit = best.flits.popleft()
                self.total_buffered -= 1
                tracker = best.tracker
                if tracker is not None:
                    # Occupancy-integral departure, also inline in _eject.
                    # Time cannot run backwards here (now advances
                    # monotonically) and the dequeue follows an enqueue, so
                    # neither needs a check.
                    last = tracker._last_cycle
                    if now != last:
                        tracker._integral += tracker.occupied * (now - last)
                        tracker._last_cycle = now
                    tracker.occupied -= 1
                if age_hooks:
                    hooks = age_hooks.get(best.in_port)
                    if hooks:
                        age = now - flit.buffer_arrival_cycle
                        for hook in hooks:
                            hook(age)
                credits = best.upstream_credits
                if credits is not None:
                    record = pool.pop() if pool else self._event_record()
                    record[0] = EVENT_CREDIT
                    record[1] = credits
                    record[2] = best.in_vc
                    # credit_delay < ring size (checked at construction),
                    # so the slot is exact.
                    ring[(now + credit_delay) & mask].append(record)
                out_vc = best.out_vc
                credit_state = credit_states[out_port]
                # Credit underflow is structurally impossible: the request
                # was filed with credits[out_vc] > 0 this same cycle, and
                # only this grant consumes that VC's credit.
                credit_state.credits[out_vc] -= 1
                # DVSChannel.send_flit's wire update, inlined (its oracle
                # test pins the two equal). Its locked/busy raises are
                # unreachable here: the request was only filed after the
                # scan's ``locked or busy_until >= horizon`` check, the lock
                # cannot change mid-step, and this is the port's only grant
                # this cycle. The flit lands downstream at
                # ceil(wire done + pipeline latency).
                dvs = port_dvs[out_port]
                busy = dvs.busy_until
                start = busy if busy > now else now
                occupancy = dvs._serialization_cycles
                busy = start + occupancy
                dvs.busy_until = busy
                dvs.busy_cycles_total += occupancy
                dvs.busy_window += occupancy
                dvs.flits_sent += 1
                arrival = ceil(busy + port_pipeline[out_port])
                record = pool.pop() if pool else self._event_record()
                record[0] = EVENT_ARRIVAL
                record[1] = port_vcs[out_port][out_vc]
                record[2] = flit
                if arrival - now > mask:
                    # Unreachable with the kernel's ring, which covers the
                    # pipeline latency, level-0 serialization and credit
                    # delay (>= 1): a launch lands at most 1 + serialization
                    # + pipeline latency ahead.
                    raise SimulationError(
                        f"arrival at cycle {arrival} launched at cycle {now} "
                        f"lies beyond the {mask + 1}-slot calendar ring"
                    )
                ring[arrival & mask].append(record)
                if flit.is_head:
                    packet = flit.packet
                    dim = out_port >> 1
                    vc_class = packet.vc_class if packet.last_dim == dim else 0
                    # Dateline-class transition from the attach-time table
                    # (see attach_channel).
                    packet.vc_class = self._next_class[out_port][vc_class]
                    packet.last_dim = dim
                if flit.is_tail:
                    # Claimed once at VC allocation, released exactly once
                    # here; InputVC.reset_route, inlined.
                    credit_state.vc_free[out_vc] = True
                    best.out_port = UNROUTED
                    best.out_vc = UNROUTED
                    best.route_options = None
            del grants[:]

        # Injection stage — Router._inject's former body, inlined at its
        # only call site: move up to one flit from the source queue into
        # the local port.
        inj_flits = self.inj_flits
        if inj_flits or self.inj_queue:
            if not inj_flits:
                packet = self.inj_queue[0]
                best_vc = -1
                best_free = 0
                for v, vcstate in enumerate(self._local_vcs):
                    free = vcstate.capacity - len(vcstate.flits)
                    if free > best_free:
                        best_vc = v
                        best_free = free
                if best_vc < 0:
                    # No room anywhere: still not idle (inj_queue waits).
                    return self.total_buffered or self.inj_queue
                self.inj_queue.popleft()
                # Materialize the packet's flits (head first, tail last)
                # into the persistent staging list, reusing pooled flits
                # when available (a pooled flit gets every field reset, so
                # reuse is bit-identical to a fresh Flit).
                pool = self.flit_pool
                last = packet.size_flits - 1
                for index in range(last + 1):
                    if pool:
                        flit = pool.pop()
                        flit.packet = packet
                        flit.index = index
                        flit.is_head = index == 0
                        flit.is_tail = index == last
                        flit.buffer_arrival_cycle = 0
                    else:
                        flit = Flit(packet, index, index == 0, index == last)
                    inj_flits.append(flit)
                self.inj_pos = 0
                self.inj_vc = best_vc
            vcstate = self._local_vcs[self.inj_vc]
            flits = vcstate.flits
            if len(flits) < vcstate.capacity:
                flit = inj_flits[self.inj_pos]
                flit.buffer_arrival_cycle = now
                flits.append(flit)
                if not vcstate.in_occ:
                    vcstate.in_occ = True
                    insort(occ, vcstate.rid)
                self.total_buffered += 1
                counters = self._fast_counters
                counters[0] += 1  # one more flit in the network
                self.inj_pos += 1
                if self.inj_pos >= len(inj_flits):
                    del inj_flits[:]
                    self.inj_pos = 0
                    # The packet left the source queue side.
                    counters[1] -= 1
        # Not-idle indicator (the inverse of is_idle), so the kernel's
        # stepping loop needs no attribute probes of its own.
        return self.total_buffered or self.inj_flits or self.inj_queue

    # ------------------------------------------------------------------
    # Stage helpers
    # ------------------------------------------------------------------

    def _route_and_allocate(self, vcstate: InputVC, packet: Packet) -> int:
        """Route computation + VC allocation for the packet at *vcstate*'s head.

        Route computation runs once per packet per hop, memoized across
        packets by (dst, vc_class, last_dim) — the routing interface is a
        pure function of those inputs — and cached on the VC; VC allocation
        retries each cycle against the cached options. Returns the chosen
        output port, or UNROUTED if every candidate port's permitted
        downstream VCs are currently held.
        """
        options = vcstate.route_options
        if options is None:
            memo = self._route_memo
            key = (packet.dst, packet.vc_class, packet.last_dim)
            options = memo.get(key)
            if options is None:
                routing = self.routing
                node = self.node
                options = []
                for out_port in routing.candidates(node, packet.dst):
                    if self.credit_states[out_port] is None:
                        raise SimulationError(
                            f"route to unattached port {out_port} at node {node}"
                        )
                    vc_class = (
                        packet.vc_class if packet.last_dim == out_port >> 1 else 0
                    )
                    options.append(
                        (
                            out_port,
                            routing.allowed_vcs(node, out_port, packet.dst, vc_class),
                        )
                    )
                memo[key] = options
            vcstate.route_options = options
        for out_port, allowed in options:
            credit_state = self.credit_states[out_port]
            free = credit_state.vc_free
            for downstream_vc in allowed:
                if free[downstream_vc]:
                    # Claimed here, released at tail launch in step.
                    free[downstream_vc] = False
                    vcstate.out_port = out_port
                    vcstate.out_vc = downstream_vc
                    return out_port
        return UNROUTED

    def _eject(self, vcstate: InputVC, now: int, flit: Flit | None = None) -> None:  # repro-hot
        """Immediate ejection: one flit per VC per cycle at the destination.

        With *flit* None the head of *vcstate*'s buffer ejects (the
        router's step). The kernel's dispatch loop passes the *flit* that
        just reached the empty *vcstate* instead: it ejects in the cycle
        the step would have ejected it, without entering the buffer. Its
        occupancy integral gains nothing that way, as a flit that enters
        and leaves a buffer in one cycle adds no occupied cycle, and its
        age is 0.
        """
        if flit is None:
            flit = vcstate.flits.popleft()
            self.total_buffered -= 1
            tracker = vcstate.tracker
            if tracker is not None:
                # Occupancy-integral departure (as in step's traversal loop).
                last = tracker._last_cycle
                if now != last:
                    tracker._integral += tracker.occupied * (now - last)
                    tracker._last_cycle = now
                tracker.occupied -= 1
        if self.age_hooks:
            hooks = self.age_hooks.get(vcstate.in_port)
            if hooks:
                age = now - flit.buffer_arrival_cycle
                for hook in hooks:
                    hook(age)
        credits = vcstate.upstream_credits
        if credits is not None:
            pool = self.event_pool
            record = pool.pop() if pool else self._event_record()
            record[0] = EVENT_CREDIT
            record[1] = credits
            record[2] = vcstate.in_vc
            self._fast_ring[(now + self.credit_delay) & self._fast_mask].append(record)
        self.flits_ejected += 1
        self._fast_counters[0] -= 1  # the flit left the network
        # An ejected flit is referenced by nothing: its arrival record
        # already dispatched and observers only see the packet.
        self.flit_pool.append(flit)
        if flit.is_tail:
            vcstate.reset_route()
            packet = flit.packet
            packet.ejected_cycle = now
            self.packets_ejected += 1
            for observer in self.ejected_hooks:
                observer.on_packet_ejected(packet, now)
