"""Runtime invariant checking for the cycle kernel (the network sanitizer).

An opt-in family of :class:`~repro.instrument.bus.Observer` subclasses
that re-derive the kernel's conservation laws from first principles on a
bounded cadence — every ``check_every`` *stepped* cycles, which is sound
because the state they check is persistent until a check sees it and can
only change on cycles the kernel actually steps; the DVS checker
additionally validates locked channels every single cycle, discovering
them through transition events and window-close scans — and raise a
structured :class:`SanitizerViolation` when one breaks. They attach
through the instrumentation bus like any other observer, so the kernel
pays **nothing** when they are not enabled, and they are skip-safe
(``on_idle_span`` is defined): a fast-forwarded span is by construction
a no-op, so it neither triggers a check nor advances the cadence, and
the harness's lifecycle marks force a final check before any result is
read.

The family (one checker per invariant group):

* :class:`ConservationSanitizer` — per (channel, VC):
  ``credits held + flits in flight + downstream buffer occupancy +
  credits in flight == buffer depth``; per input port: occupancy tracker
  == flits buffered; network-wide: ``flits offered == source-side +
  buffered + in flight + ejected`` (nothing is ever dropped) and the
  outstanding-event counters equal the pending events.
* :class:`VCAllocationSanitizer` — VC allocation state-machine legality:
  every non-free downstream VC is claimed by exactly one upstream input
  VC, claims are mutually exclusive, credit counters stay within
  ``[0, depth]``, and a body flit at a VC head implies a held route.
* :class:`DVSTransitionSanitizer` — DVS levels stay inside the V/F
  table, move at most one step per cycle (the paper's adjacent-level
  transition sequencing), voltage and frequency levels never diverge by
  more than one step and agree on a settled link, the ``locked``
  fast-path mirror agrees with the state machine phase, and a link in
  frequency transition transmits nothing. While a port controller is
  dormant, its channel keeps the phase and levels it had at entry, and at
  every window boundary the channel sent nothing during the window and
  its downstream port is empty — the conditions under which the skipped
  closes equal the closes the engine did not run.
* :class:`TrafficContractSanitizer` — ``next_injection_cycle`` is
  side-effect-free and deterministic (the fast-forward contract): calling
  it twice returns the same horizon, never in the past, and periodically
  verifies the source's :meth:`~repro.traffic.base.TrafficSource.checkpoint`
  token is unchanged across the call.

:class:`NetworkSanitizer` bundles the family: construct it over an engine
and call :meth:`~NetworkSanitizer.attach`, or call
:meth:`~NetworkSanitizer.check_now` for a one-shot deep check of the
current state (attached or not). Enable from the outside with
``Simulator(config, sanitize=True)``, the CLI's ``--sanitize`` flag, or
``REPRO_SANITIZE=1`` (picked up by :func:`repro.harness.runner.run_simulation`,
so sweep worker processes inherit it).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from ..core.dvs_link import ChannelPhase
from ..errors import SimulationError
from ..instrument.bus import Observer
from ..network.router import EVENT_ARRIVAL, EVENT_CREDIT
from ..network.vc import UNROUTED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dvs_link import DVSChannel
    from ..instrument.bus import TransitionEvent
    from ..network.engine import SimulationEngine

#: Phases during which the link is dead and ``locked`` must mirror True.
_LOCKED_PHASES = frozenset(
    {ChannelPhase.FREQUENCY_LOCK, ChannelPhase.SLEEP, ChannelPhase.WAKE}
)
#: Shutdown-side phases, legal only at the bottom of the V/F table.
_SHUTDOWN_PHASES = frozenset({ChannelPhase.SLEEP, ChannelPhase.WAKE})


class SanitizerViolation(SimulationError):
    """A conservation invariant failed, with full kernel context.

    Attributes:
        rule: Short invariant name (e.g. ``"credit-conservation"``).
        cycle: Router cycle the check ran at.
        node: Router node id, when the invariant is router-local.
        port: Port index on that router, when applicable.
        vc: Virtual-channel index, when applicable.
        channel: Topology channel id, when the invariant is link-local.
    """

    def __init__(
        self,
        rule: str,
        message: str,
        *,
        cycle: int,
        node: int | None = None,
        port: int | None = None,
        vc: int | None = None,
        channel: int | None = None,
    ) -> None:
        self.rule = rule
        self.cycle = cycle
        self.node = node
        self.port = port
        self.vc = vc
        self.channel = channel
        context = ", ".join(
            f"{label}={value}"
            for label, value in (
                ("cycle", cycle),
                ("node", node),
                ("port", port),
                ("vc", vc),
                ("channel", channel),
            )
            if value is not None
        )
        super().__init__(f"[{rule}] {message} ({context})")


class SanitizerObserver(Observer):
    """Base checker: cadence counted in *stepped* cycles, plus marks.

    Kernel state can only change on cycles the kernel actually steps — a
    fast-forwarded span is, by construction, a proven no-op — so the
    ``check_every`` cadence counts stepped cycles and idle spans advance
    nothing (the no-op ``on_idle_span`` override is what keeps the
    kernel's quiescence skipping enabled while a checker is attached).
    Lifecycle marks (``measurement_begin`` / ``measurement_end``) force
    a check regardless of cadence, so a run whose state is corrupted and
    then drains to silence is still caught before its result is read.

    With ``raise_on_violation`` (the default) the first broken invariant
    raises immediately, freezing the simulation at the faulty cycle.
    With it off, violations accumulate in :attr:`violations` — the mode
    the CLI uses to report totals.
    """

    #: Default rule tag for violations from this checker.
    rule = "sanitizer"

    def __init__(
        self,
        engine: "SimulationEngine",
        *,
        raise_on_violation: bool = True,
        check_every: int = 1,
    ) -> None:
        if check_every < 1:
            raise SimulationError("check_every must be >= 1")
        self.engine = engine
        self.raise_on_violation = raise_on_violation
        self.check_every = check_every
        self.violations: list[SanitizerViolation] = []
        self.checks = 0
        #: Stepped cycles observed since the last check.
        self._since_check = 0

    def on_cycle(self, now: int) -> None:
        self._since_check += 1
        if self._since_check >= self.check_every:
            self._fire(now)

    def on_idle_span(self, start: int, end: int) -> None:
        # A skipped span is a proven no-op: nothing these checkers read
        # can have changed, so the span neither triggers a check nor
        # advances the cadence.
        pass

    def on_mark(self, label: str, cycle: int) -> None:
        self._fire(cycle)

    def _fire(self, now: int) -> None:
        """Run :meth:`check` immediately and reset the cadence."""
        self._since_check = 0
        self.checks += 1
        self.check(now)

    def check(self, now: int) -> None:
        raise NotImplementedError

    def _violation(
        self,
        message: str,
        *,
        cycle: int,
        rule: str | None = None,
        node: int | None = None,
        port: int | None = None,
        vc: int | None = None,
        channel: int | None = None,
    ) -> None:
        violation = SanitizerViolation(
            rule if rule is not None else self.rule,
            message,
            cycle=cycle,
            node=node,
            port=port,
            vc=vc,
            channel=channel,
        )
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation


class ConservationSanitizer(SanitizerObserver):
    """Credit-loop and flit conservation, re-derived from scratch each check.

    Both laws share one walk over the kernel's pending-event buckets; the
    input ports' occupancy trackers and the outstanding-event counters
    ride the same walk, so all four live in a single checker.
    """

    rule = "conservation"

    def __init__(self, engine: "SimulationEngine", **kwargs: object) -> None:
        super().__init__(engine, **kwargs)  # type: ignore[arg-type]
        #: Per-channel (credits list, full-credit template, downstream
        #: buffer lists, occupancy tracker, spec) resolved once: the kernel
        #: mutates these in place, so holding them skips the per-check
        #: attribute chases. An idle channel (all credits home, buffers
        #: and tracker empty, no events) short-circuits on two list compares.
        self._channel_cache: list[tuple] | None = None

    def _channels(self) -> list[tuple]:
        engine = self.engine
        cache: list[tuple] = []
        vcs_per_port = engine.config.network.vcs_per_port
        for topo_channel in engine.channels:
            spec = topo_channel.spec
            upstream = engine.routers[spec.src_node].credit_states[spec.src_port]
            if upstream is None:  # pragma: no cover - wiring guard
                continue
            downstream = engine.routers[spec.dst_node]
            downstream_vcs = downstream.in_vcs[spec.dst_port]
            cache.append((
                upstream.credits,
                [upstream.capacity_per_vc] * vcs_per_port,
                tuple(downstream_vcs[vc].flits for vc in range(vcs_per_port)),
                downstream.occupancy[spec.dst_port],
                spec,
                upstream,
                (spec.dst_node, spec.dst_port),
                (spec.src_node, spec.src_port),
            ))
        self._channel_cache = cache
        return cache

    def check(self, now: int) -> None:
        engine = self.engine
        arrivals: dict[tuple[int, int, int], int] = {}
        credits_in_flight: dict[tuple[int, int, int], int] = {}
        arrival_total = 0
        for _cycle, event in engine.iter_scheduled_events():
            kind = event[0]
            if kind == EVENT_ARRIVAL:
                key = (event[1], event[2], event[3])
                arrivals[key] = arrivals.get(key, 0) + 1
                arrival_total += 1
            elif kind == EVENT_CREDIT:
                key = (event[1], event[2], event[3])
                credits_in_flight[key] = credits_in_flight.get(key, 0) + 1
        # drain() reads these counters instead of walking the queue.
        counted = (engine._pending_transport, engine._pending_arrivals)
        walked = (arrival_total + sum(credits_in_flight.values()), arrival_total)
        if counted != walked:
            self._violation(
                f"outstanding-event counters (transport, arrivals) {counted} "
                f"!= {walked} events pending in the queue",
                rule="event-counters",
                cycle=now,
            )

        vcs_per_port = engine.config.network.vcs_per_port
        vc_range = range(vcs_per_port)
        # (node, port) pairs with at least one event in flight: channels
        # outside this set with all credits home and empty buffers are
        # provably balanced and skip the per-VC arithmetic.
        touched: set[tuple[int, int]] = set()
        for dst_node, dst_port, _vc in arrivals:
            touched.add((dst_node, dst_port))
        for src_node, src_port, _vc in credits_in_flight:
            touched.add((src_node, src_port))
        cache = self._channel_cache
        if cache is None:
            cache = self._channels()
        for credits, full, buffers, tracker, spec, upstream, dst_key, src_key in cache:
            if (
                credits == full
                and not any(buffers)
                and not tracker.occupied
                and dst_key not in touched
                and src_key not in touched
            ):
                continue
            held = 0
            for vc in vc_range:
                outstanding = upstream.capacity_per_vc - credits[vc]
                in_flight = arrivals.get((spec.dst_node, spec.dst_port, vc), 0)
                buffered = len(buffers[vc])
                held += buffered
                returning = credits_in_flight.get(
                    (spec.src_node, spec.src_port, vc), 0
                )
                accounted = in_flight + buffered + returning
                if outstanding != accounted:
                    self._violation(
                        f"credit conservation broken: {outstanding} credits "
                        f"outstanding != {in_flight} flits in flight + "
                        f"{buffered} buffered + {returning} credits "
                        f"returning (= {accounted}; buffer depth "
                        f"{upstream.capacity_per_vc})",
                        rule="credit-conservation",
                        cycle=now,
                        node=spec.src_node,
                        port=spec.src_port,
                        vc=vc,
                        channel=spec.channel_id,
                    )
            if tracker.occupied != held:
                self._violation(
                    f"occupancy tracker counts {tracker.occupied} flits, the "
                    f"port's VC buffers hold {held}",
                    rule="occupancy",
                    cycle=now,
                    node=spec.dst_node,
                    port=spec.dst_port,
                    channel=spec.channel_id,
                )

        offered_flits = 0
        source_side = 0
        buffered_total = 0
        ejected = 0
        for router in engine.routers:
            source_side += router.unsent_source_flits()
            buffered_total += router.total_buffered
            ejected += router.flits_ejected
        flits_per_packet = engine.config.network.flits_per_packet
        offered_flits = engine.traffic.packets_offered * flits_per_packet
        accounted = source_side + buffered_total + arrival_total + ejected
        if offered_flits != accounted:
            self._violation(
                f"flit conservation broken: {offered_flits} flits offered != "
                f"{source_side} at sources + {buffered_total} buffered + "
                f"{arrival_total} in flight + {ejected} ejected "
                f"(= {accounted}; nothing may be dropped or duplicated)",
                rule="flit-conservation",
                cycle=now,
            )


class VCAllocationSanitizer(SanitizerObserver):
    """Virtual-channel allocation state-machine legality.

    Cadence checks sweep only the scheduler's *active* routers: a parked
    router performed no work since the last sweep saw it, so its
    allocation state cannot have changed legally. Out-of-band tampering
    on a parked router is caught when it re-activates or at the next
    deep sweep — the first check and every lifecycle mark sweep the
    whole network.
    """

    rule = "vc-allocation"

    def __init__(self, engine: "SimulationEngine", **kwargs: object) -> None:
        super().__init__(engine, **kwargs)  # type: ignore[arg-type]
        #: Per-out-port all-free / full-credit templates, for the idle
        #: short-circuit in the leaked-allocation sweep.
        self._free_template: list[bool] | None = None
        self._full_template: list[int] | None = None
        self._deep_pending = True

    def on_mark(self, label: str, cycle: int) -> None:
        self._deep_pending = True
        self._fire(cycle)

    def check(self, now: int) -> None:
        engine = self.engine
        if self._deep_pending:
            self._deep_pending = False
            routers = engine.routers
        else:
            routers = engine.iter_active_routers()
        for router in routers:
            local_port = router.local_port
            claims: dict[tuple[int, int], tuple[int, int]] = {}
            for in_port, in_vc, vcstate in router.iter_vc_states():
                out_port = vcstate.out_port
                flits = vcstate.flits
                if out_port == UNROUTED:
                    # Unclaimed and (usually) empty: the idle fast path.
                    if flits and not flits[0].is_head:
                        self._violation(
                            "body flit at the head of a VC with no held "
                            "route (mid-packet state lost)",
                            cycle=now,
                            node=router.node,
                            port=in_port,
                            vc=in_vc,
                        )
                    continue
                out_vc = vcstate.out_vc
                if out_port == local_port:
                    continue  # ejection claims no downstream VC
                if out_vc == UNROUTED:
                    self._violation(
                        "route computed but no downstream VC allocated on a "
                        "non-local output",
                        cycle=now,
                        node=router.node,
                        port=in_port,
                        vc=in_vc,
                    )
                    continue
                key = (out_port, out_vc)
                if key in claims:
                    other = claims[key]
                    self._violation(
                        f"downstream VC claimed twice: input {other} and "
                        f"input {(in_port, in_vc)} both hold output "
                        f"port {out_port} VC {out_vc}",
                        cycle=now,
                        node=router.node,
                        port=out_port,
                        vc=out_vc,
                    )
                claims[key] = (in_port, in_vc)
                credit_state = router.credit_states[out_port]
                if credit_state is None:
                    self._violation(
                        "claim against an unattached output port",
                        cycle=now,
                        node=router.node,
                        port=out_port,
                        vc=out_vc,
                    )
                elif credit_state.vc_free[out_vc]:
                    self._violation(
                        "input VC holds a downstream VC that is marked free",
                        cycle=now,
                        node=router.node,
                        port=out_port,
                        vc=out_vc,
                    )
            free_template = self._free_template
            if free_template is None:
                free_template = self._free_template = (
                    [True] * engine.config.network.vcs_per_port
                )
            for out_port in router.connected_out:
                credit_state = router.credit_states[out_port]
                if credit_state is None:  # pragma: no cover - wiring guard
                    continue
                credits_list = credit_state.credits
                full = self._full_template
                if full is None or full[0] != credit_state.capacity_per_vc:
                    full = self._full_template = (
                        [credit_state.capacity_per_vc] * len(credits_list)
                    )
                if credits_list == full and credit_state.vc_free == free_template:
                    continue  # all credits home, every VC free: legal
                for vc, credits in enumerate(credits_list):
                    if not 0 <= credits <= credit_state.capacity_per_vc:
                        self._violation(
                            f"credit counter out of range: {credits} not in "
                            f"[0, {credit_state.capacity_per_vc}]",
                            cycle=now,
                            node=router.node,
                            port=out_port,
                            vc=vc,
                        )
                    if (
                        not credit_state.vc_free[vc]
                        and (out_port, vc) not in claims
                    ):
                        self._violation(
                            "downstream VC marked in use but no input VC "
                            "claims it (leaked allocation)",
                            cycle=now,
                            node=router.node,
                            port=out_port,
                            vc=vc,
                        )


class DVSTransitionSanitizer(SanitizerObserver):
    """DVS state-machine legality: one step at a time, dead links stay dead.

    Channels in **frequency lock** (and only those) are validated every
    cycle: the checker learns about them the moment the lock begins —
    from ``on_transition`` bus events, and from a same-cycle scan at
    every controller window close, the only cycles the kernel itself can
    begin a transition on — so the lockout rule (no flits while the
    receiver re-locks) is exact for every kernel-initiated lock. All
    other channels, including mid-voltage-ramp ones (whose level can
    only change at a scheduled phase boundary, which raises an event),
    are re-scanned on the ``check_every`` cadence, which is where
    out-of-band tampering (e.g. a ``force_level`` jump) gets caught;
    ``check_every`` is clamped to the shortest legal interval between
    level changes (one full transition: ramp + lock), below which a
    multi-step delta between two scans is provably a jump. With
    ``check_every == 1`` every cycle is a full scan and even tampering
    mid-lock at arbitrary cycles is caught exactly.

    Snapshots are raw-attribute tuples; a channel whose snapshot is
    unchanged since a check it passed cannot have become illegal, so
    unchanged channels skip validation.

    Dormant controllers replay their skipped closes correctly only if
    nothing those closes would have seen changed: no phase may end on the
    channel of a dormant controller (its phase event must wake it first),
    no scan may find the channel's levels, phase or lock state changed
    while the controller stayed dormant, and at every window boundary,
    after the engine's controller loop, each still-dormant controller's
    channel must have sent nothing during the window (a send must wake
    it) and its downstream port must be empty.
    """

    rule = "dvs-transition"

    def __init__(self, engine: "SimulationEngine", **kwargs: object) -> None:
        super().__init__(engine, **kwargs)  # type: ignore[arg-type]
        #: Per-channel (level, voltage_level, locked, phase, flits_sent)
        #: at that channel's previous observation, lazily populated.
        self._previous: list[tuple | None] = []
        #: Cycle of each channel's previous observation (-1 = never).
        self._seen_at: list[int] = []
        #: Indices of channels currently in transition — validated every
        #: cycle until they return to steady state.
        self._watched: set[int] = set()
        self._index_of: dict[int, int] = {}
        self._max_level = 0
        self._links: list["DVSChannel"] | None = None
        #: Per controller, the ``dormant_since`` of the dormant spell a
        #: boundary check last saw (``None`` = none yet).
        self._dormant_seen: list[int | None] = []
        #: Controller window period: transitions can only legitimately
        #: begin on these cycles, so they force a full scan.
        self._window = (
            engine.config.dvs.history_window if engine.controllers else 0
        )
        for topo_channel in engine.channels:
            dvs = topo_channel.dvs
            timing = dvs.timing
            step = timing.voltage_cycles(dvs.router_clock_hz) + max(
                1,
                timing.frequency_cycles(
                    dvs.table.frequency(dvs.table.max_level),
                    dvs.router_clock_hz,
                ),
            )
            self.check_every = max(1, min(self.check_every, step))

    def _setup(self) -> list["DVSChannel"]:
        channels = self.engine.channels
        links = self._links = [channel.dvs for channel in channels]
        self._previous = [None] * len(links)
        self._seen_at = [-1] * len(links)
        self._index_of = {
            channel.spec.channel_id: index
            for index, channel in enumerate(channels)
        }
        if channels:
            self._max_level = channels[0].dvs.table.max_level
        self._dormant_seen = [None] * len(self.engine.controllers)
        return links

    def on_cycle(self, now: int) -> None:
        self._since_check += 1
        boundary = self._window and now % self._window == 0
        if boundary or self._since_check >= self.check_every:
            self._fire(now)
            if boundary:
                self.check_dormant_boundary(now)
        elif self._watched:
            self._observe_watched(now)

    def _observe_watched(self, now: int) -> None:
        """Validate only the channels under per-cycle watch."""
        links = self._links
        if links is None:
            links = self._setup()
        for index in sorted(self._watched):
            self._observe(index, links[index], now)

    def on_transition(self, event: "TransitionEvent") -> None:
        # A channel crossed a state-machine boundary: put it under
        # per-cycle watch starting this very cycle (events dispatch
        # before cycle hooks, so the first locked cycle is observed
        # before any router could step).
        if self._links is None:
            self._setup()
        index = self._index_of.get(event.channel)
        if index is None:
            return
        self._watched.add(index)
        controllers = self.engine.controllers
        if (
            event.kind == "phase_end"
            and controllers
            and controllers[index].dormant_action is not None
        ):
            self._violation(
                "phase ended on the channel of a controller dormant since "
                f"cycle {controllers[index].dormant_since}; its phase event "
                "must wake the controller first",
                cycle=event.cycle,
                channel=event.channel,
            )

    def check(self, now: int) -> None:
        links = self._links
        if links is None:
            links = self._setup()
        for index, dvs in enumerate(links):
            self._observe(index, dvs, now)

    def check_dormant_boundary(self, now: int) -> None:
        """After the controller loop at boundary *now*: every controller
        still dormant skipped a window in which its channel sent nothing
        and its downstream port held nothing. Also marks each dormant
        spell as seen, so later scans hold its channel to the state this
        boundary's scan recorded."""
        if self._links is None:
            self._setup()
        seen = self._dormant_seen
        for index, controller in enumerate(self.engine.controllers):
            if controller.dormant_action is None:
                continue
            seen[index] = controller.dormant_since
            busy = controller.channel.busy_window
            occupied = controller.occupancy_source.occupied
            if busy or occupied:
                self._violation(
                    f"controller dormant since cycle {controller.dormant_since} "
                    f"skipped a window with busy time {busy} and {occupied} "
                    "flit(s) downstream; a send must wake it for a real close",
                    cycle=now,
                    channel=self.engine.channels[index].spec.channel_id,
                )

    def _observe(self, index: int, dvs: "DVSChannel", now: int) -> None:
        snapshot = (
            dvs._level,
            dvs._voltage_level,
            dvs.locked,
            dvs._phase,
            dvs.flits_sent,
            dvs.sleeping,
        )
        previous = self._previous[index]
        if snapshot == previous:
            self._seen_at[index] = now
            if index in self._watched and not snapshot[2] and (
                snapshot[3] not in _LOCKED_PHASES
            ):
                self._watched.discard(index)
            return
        level, voltage, locked, phase, sent, sleeping = snapshot
        target = dvs.target_level
        in_lock = phase in _LOCKED_PHASES
        channel_id = self.engine.channels[index].spec.channel_id
        controllers = self.engine.controllers
        if (
            controllers
            and controllers[index].dormant_action is not None
            and self._dormant_seen[index] == controllers[index].dormant_since
            and previous is not None
            and snapshot[:4] != previous[:4]
        ):
            self._violation(
                f"channel of a controller dormant since cycle "
                f"{controllers[index].dormant_since} went from level "
                f"{previous[0]} (voltage {previous[1]}, {previous[3].value}) "
                f"to level {level} (voltage {voltage}, {phase.value}) without "
                "waking it",
                cycle=now,
                channel=channel_id,
            )
        if sleeping != (phase is ChannelPhase.SLEEP):
            self._violation(
                f"sleeping mirror ({sleeping}) disagrees with phase "
                f"({phase.value}); wake demand would be "
                f"{'recorded for a live link' if sleeping else 'lost'}",
                cycle=now,
                channel=channel_id,
            )
        if phase in _SHUTDOWN_PHASES and (level != 0 or voltage != 0 or target != 0):
            self._violation(
                f"shutdown state entered away from level 0 (level={level}, "
                f"voltage={voltage}, target={target}); the sleep state sits "
                "below the bottom of the V/F table only",
                cycle=now,
                channel=channel_id,
            )
        max_level = self._max_level
        for label, value in (
            ("frequency", level),
            ("voltage", voltage),
            ("target", target),
        ):
            if not 0 <= value <= max_level:
                self._violation(
                    f"{label} level {value} outside the V/F table "
                    f"[0, {max_level}]",
                    cycle=now,
                    channel=channel_id,
                )
        if abs(level - voltage) > 1:
            self._violation(
                f"voltage level {voltage} and frequency level {level} "
                "diverged by more than one step",
                cycle=now,
                channel=channel_id,
            )
        if phase is ChannelPhase.STEADY and level == target and voltage != level:
            self._violation(
                f"steady channel at frequency level {level} sits at voltage "
                f"level {voltage}; a settled link runs at its own level",
                cycle=now,
                channel=channel_id,
            )
        if locked != in_lock:
            self._violation(
                f"locked mirror ({locked}) disagrees with phase "
                f"({phase.value}); the hot path would "
                f"{'stall a live link' if locked else 'transmit on a dead link'}",
                cycle=now,
                channel=channel_id,
            )
        if previous is not None:
            prev_level, prev_voltage = previous[0], previous[1]
            prev_locked = previous[2] or previous[3] in _LOCKED_PHASES
            prev_sent = previous[4]
            if abs(level - prev_level) > 1 or abs(voltage - prev_voltage) > 1:
                self._violation(
                    f"multi-step DVS jump: level {prev_level}->{level}, "
                    f"voltage {prev_voltage}->{voltage} within one check "
                    "interval (transitions must chain adjacent steps)",
                    cycle=now,
                    channel=channel_id,
                )
            if prev_locked and sent != prev_sent and (
                now - self._seen_at[index] == 1 or (locked and in_lock)
            ):
                # Gap of one cycle: the delta happened under the locked
                # state the previous observation recorded. Longer gap:
                # only attributable when the channel is *still* locked
                # (no unlock the sends could legally have followed).
                self._violation(
                    f"{sent - prev_sent} flit(s) transmitted "
                    "while the link was dead (frequency transition or "
                    "shutdown; data would be lost)",
                    rule="link-lockout",
                    cycle=now,
                    channel=channel_id,
                )
        self._previous[index] = snapshot
        self._seen_at[index] = now
        # Only *locked* channels need the per-cycle watch: the lockout
        # rule is the one invariant that is cycle-exact. A voltage ramp
        # can change levels only at its scheduled phase end (an event the
        # checker also receives), and the cadence clamp already puts two
        # scans inside every legal transition, so ramping channels stay
        # on the coarse cadence.
        if locked or in_lock:
            self._watched.add(index)
        else:
            self._watched.discard(index)


class TrafficContractSanitizer(SanitizerObserver):
    """``next_injection_cycle`` must be pure: the fast-forward contract.

    Every check calls the predictor twice and compares (catching stateful
    implementations that pop or advance on each call); every
    ``deep_every``-th check additionally snapshots the source's
    :meth:`~repro.traffic.base.TrafficSource.checkpoint` token around the
    call (catching hidden RNG draws that happen to return stable values).
    """

    rule = "traffic-contract"

    def __init__(
        self,
        engine: "SimulationEngine",
        *,
        deep_every: int = 64,
        **kwargs: object,
    ) -> None:
        super().__init__(engine, **kwargs)  # type: ignore[arg-type]
        if deep_every < 1:
            raise SimulationError("deep_every must be >= 1")
        self.deep_every = deep_every

    def check(self, now: int) -> None:
        traffic = self.engine.traffic
        deep = self.checks % self.deep_every == 0
        before = traffic.checkpoint() if deep else None
        first = traffic.next_injection_cycle(now)
        second = traffic.next_injection_cycle(now)
        if deep and traffic.checkpoint() != before:
            self._violation(
                "next_injection_cycle mutated source state (checkpoint "
                "changed); skipped calls would not be bit-identical",
                cycle=now,
            )
        if first != second:
            self._violation(
                f"next_injection_cycle is nondeterministic: {first!r} then "
                f"{second!r} for the same cycle",
                cycle=now,
            )
        if first is not None and first is not math.inf and first < now:
            self._violation(
                f"next_injection_cycle returned {first!r}, in the past of "
                f"cycle {now}",
                cycle=now,
            )


class NetworkSanitizer(Observer):
    """The full checker family over one engine, attachable as a unit.

    The bundle registers **itself** as the single bus observer and fans
    hook calls out to the checkers only on cycles where at least one of
    them could act: a cadence deadline, a controller window close, or a
    DVS channel under per-cycle watch. Every other stepped cycle costs
    one observer dispatch and two integer compares — the price of having
    the sanitizer attached at all.

    >>> simulator = Simulator(config, sanitize=True)   # doctest: +SKIP
    >>> simulator.run()                                # doctest: +SKIP
    >>> simulator.sanitizer.describe()                 # doctest: +SKIP
    'sanitizer: 4 checkers, 12000 checks, 0 violations'
    """

    #: Default cadence for the heavyweight whole-network walks. The state
    #: they check is persistent (a leaked credit or lost flit stays wrong
    #: until a check sees it), so a coarse cadence delays detection by at
    #: most ``check_every`` cycles without missing anything; the DVS
    #: checker watches channels in transition every cycle regardless and
    #: uses this cadence only for its steady-channel tamper scan.
    DEFAULT_CHECK_EVERY = 16

    def __init__(
        self,
        engine: "SimulationEngine",
        *,
        raise_on_violation: bool = True,
        check_every: int = DEFAULT_CHECK_EVERY,
    ) -> None:
        self.engine = engine
        self.checkers: tuple[SanitizerObserver, ...] = (
            ConservationSanitizer(
                engine, raise_on_violation=raise_on_violation,
                check_every=check_every,
            ),
            VCAllocationSanitizer(
                engine, raise_on_violation=raise_on_violation,
                check_every=check_every,
            ),
            DVSTransitionSanitizer(
                engine, raise_on_violation=raise_on_violation,
                check_every=check_every,
            ),
            TrafficContractSanitizer(
                engine, raise_on_violation=raise_on_violation,
                check_every=check_every,
            ),
        )
        self._dvs = next(
            checker for checker in self.checkers
            if isinstance(checker, DVSTransitionSanitizer)
        )
        #: Fan-out cadence: the fastest checker's cadence (the DVS one
        #: may clamp itself below the shared ``check_every``); the whole
        #: family fires together on it.
        self._cadence = min(checker.check_every for checker in self.checkers)
        self._since_fanout = 0
        self._window = (
            engine.config.dvs.history_window if engine.controllers else 0
        )
        self._attached = False

    def on_cycle(self, now: int) -> None:
        self._since_fanout += 1
        boundary = self._window and now % self._window == 0
        if boundary or self._since_fanout >= self._cadence:
            self._since_fanout = 0
            for checker in self.checkers:
                checker._fire(now)
            if boundary:
                self._dvs.check_dormant_boundary(now)
        elif self._dvs._watched:
            self._dvs._observe_watched(now)

    def on_idle_span(self, start: int, end: int) -> None:
        # Skipped spans are proven no-ops; see SanitizerObserver.
        pass

    def on_transition(self, event: "TransitionEvent") -> None:
        self._dvs.on_transition(event)

    def on_mark(self, label: str, cycle: int) -> None:
        self._since_fanout = 0
        for checker in self.checkers:
            checker.on_mark(label, cycle)

    def attach(self) -> "NetworkSanitizer":
        """Attach the bundle to the engine's instrumentation bus."""
        if self._attached:
            raise SimulationError("sanitizer is already attached")
        self.engine.bus.attach(self)
        self._attached = True
        return self

    def detach(self) -> None:
        """Detach the bundle (e.g. before a timing-sensitive phase)."""
        if not self._attached:
            raise SimulationError("sanitizer is not attached")
        self.engine.bus.detach(self)
        self._attached = False

    def check_now(self) -> list[SanitizerViolation]:
        """Deep-check every invariant at ``engine.now``; return what broke.

        Runs each checker's full sweep through the lifecycle-mark path,
        attached or not, so it can follow any white-box drive of the
        kernel. Returns the violations this call found (with
        ``raise_on_violation`` the first one raises instead). Checking
        reads state only: the simulation continues bit-identically.
        """
        if not self._attached:
            # Unobserved cycles since any earlier call: drop the DVS
            # checker's step history rather than compare against it.
            self._dvs._setup()
        before = [len(checker.violations) for checker in self.checkers]
        self.on_mark("check_now", self.engine.now)
        return [
            violation
            for checker, seen in zip(self.checkers, before, strict=True)
            for violation in checker.violations[seen:]
        ]

    def __iter__(self) -> Iterator[SanitizerObserver]:
        return iter(self.checkers)

    @property
    def violations(self) -> list[SanitizerViolation]:
        """Every recorded violation across the family, in checker order."""
        found: list[SanitizerViolation] = []
        for checker in self.checkers:
            found.extend(checker.violations)
        return found

    @property
    def checks(self) -> int:
        return sum(checker.checks for checker in self.checkers)

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        return (
            f"sanitizer: {len(self.checkers)} checkers, {self.checks} checks, "
            f"{len(self.violations)} violations"
        )
