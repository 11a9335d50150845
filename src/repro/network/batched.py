"""Batched structure-of-arrays sweep kernel: N configs in lockstep.

A threshold sweep (paper Table 2 settings I–VI x offered loads, or a
``repro pareto`` knob grid) runs many configurations that differ **only in
their policy knobs**: same topology, same traffic trace (same seed), same
warmup/measure phases. Between two history-window boundaries such
configurations are *provably identical* — the policy is only consulted
when a window closes (every ``H`` cycles), so two configs whose policies
have issued the same channel commands so far occupy bit-identical
simulator states. This kernel exploits that:

* **Equivalence classes, split AND re-merged.** The batch starts as one
  class: a single scalar :class:`~repro.network.simulator.Simulator`
  carrying every member. At each history-window boundary the coordinator
  computes the per-member policy decisions, canonicalizes them to
  *channel effects* (a dropped request and a HOLD are the same effect),
  and splits the class only when members' effects genuinely differ — via
  :func:`~repro.network.snapshot.fast_clone`, an O(live-state) snapshot
  that shares everything immutable and copies only mutable simulation
  state. Classes advance in **lockstep** (all at the same cycle), and at
  every boundary the coordinator compares
  :func:`~repro.network.snapshot.state_digest` fingerprints: classes
  whose states re-converged (thresholds briefly disagreed, then both
  settled at the same level) coalesce back into one, with the per-member
  integer result corrections described below. A sweep whose members
  converge (e.g. a saturated network where every threshold setting
  selects the shared congested pair) runs N configs for nearly the price
  of one — and a sweep that diverges transiently pays only for the
  divergent stretch, not for the rest of the run.

* **Structure-of-arrays coordinator state.** Per-member bookkeeping that
  the shared engines cannot carry lives in numpy arrays indexed
  ``[member, channel]``: the EWMA prediction lanes of the history policy
  (advanced by one vectorized, allocation-free op per boundary — see
  :meth:`BatchedEngine._advance_history_lane`), the per-member
  ``requests_dropped`` counters, and the integer-**femtojoule** per-link
  energy ledger (:meth:`BatchedEngine.member_energy_femtojoules`;
  integer addition commutes, so per-member energy sums are exact — see
  :func:`repro.units.joules_to_femtojoules`).

* **Exact merge corrections.** Re-merging members whose *histories*
  differ requires per-member result reconstruction: when class B is
  absorbed into digest-equal class A, every member of B records the
  frame shift ``B_totals - A_totals`` for each integer accumulator
  (per-channel link/transition femtojoules, transition count, ejected
  packets) and splices B's latency samples collected since the member
  joined B into a per-member prefix list. Because the accumulators are
  exact integers (and the latency summary depends only on the sample
  *multiset*), a member's reconstructed measurement —
  ``class_end + correction - member_start`` fed through
  :func:`~repro.power.accounting.derive_report` — is bit-identical to
  its scalar run, merges or none.

* **Bit-identity by construction.** The class engines run the *unmodified*
  scalar kernel; the only seam is a puppet policy
  (:class:`_PuppetPolicy`) that replays the canonical member's decision
  through the real :class:`~repro.core.controller.PortDVSController`
  dispatch path. Counters stay integers, every float op in the vector
  lane is the same single-rounded IEEE-754 op the scalar
  :class:`~repro.core.history.EWMAPredictor` performs, and golden tests
  (``tests/test_batched_kernel.py``) assert strict equality — not
  closeness — against the scalar kernel for every registered policy.

The scalar kernel remains the always-on oracle: anything this module
cannot express (mixed compatibility keys, the network sanitizer) falls
back to it, and :class:`~repro.harness.backends.BatchedBackend` evicts a
failing batch wholesale and retries each member scalar.

numpy is the only dependency and it is imported lazily: importing this
module never loads numpy, so the CLI, scalar sweeps and fabric workers
start without it. :func:`require_numpy` performs the import when a
:class:`BatchedEngine` or :class:`~repro.harness.backends.BatchedBackend`
is built, and raises a clear, actionable error before any sweep work
starts when numpy is missing or too old (never a raw ``ImportError``
mid-sweep).
"""

from __future__ import annotations

import dataclasses

from ..config import SimulationConfig
from ..core.policy import DVSAction, DVSPolicy, PolicyInputs
from ..core.registry import PolicyBuildContext, build_policy, knob_values
from ..core.thresholds import TABLE1_DEFAULT
from ..errors import ConfigError, SimulationError
from ..metrics.latency import LatencyCollector
from ..power.accounting import derive_report
from .simulator import SimulationResult, Simulator
from .snapshot import fast_clone, state_digest

#: Oldest numpy release the kernel is tested against (``np.take(out=)``
#: and the ``out=`` ufunc forms the hot lane relies on are all ancient;
#: this mostly guards against truly prehistoric installs).
MIN_NUMPY = (1, 22)

#: Default upper bound on members per lockstep batch. Beyond this the
#: split bookkeeping outgrows the stepping it amortizes.
DEFAULT_MAX_BATCH = 32


def _version_tuple(text: str) -> tuple[int, int]:
    parts = []
    for token in text.split(".")[:2]:
        digits = ""
        for char in token:
            if not char.isdigit():
                break
            digits += char
        parts.append(int(digits) if digits else 0)
    while len(parts) < 2:
        parts.append(0)
    return (parts[0], parts[1])


def require_numpy():
    """Return the numpy module, or raise a clear :class:`ConfigError`.

    Called at :class:`BatchedEngine` and
    :class:`~repro.harness.backends.BatchedBackend` construction so a
    missing or antique numpy fails *before* the sweep starts, with the
    remedy in the message, instead of surfacing as a raw ``ImportError``
    (or an ``AttributeError`` from an old numpy) mid-sweep.

    The import happens here, not at module load, so code paths that never
    run the batched kernel (the CLI, scalar sweeps, fabric workers) do not
    pay for loading numpy.
    """
    try:
        import numpy as np
    except ImportError:
        raise ConfigError(
            "the batched sweep kernel (repro.network.batched) requires "
            f"numpy >= {MIN_NUMPY[0]}.{MIN_NUMPY[1]}, which is not "
            "installed; install it, or rerun with the scalar kernel "
            "(--kernel scalar, the default)"
        ) from None
    version = _version_tuple(getattr(np, "__version__", "0"))
    if version < MIN_NUMPY:
        raise ConfigError(
            f"the batched sweep kernel requires numpy >= "
            f"{MIN_NUMPY[0]}.{MIN_NUMPY[1]}, found {np.__version__}; "
            "upgrade numpy or rerun with --kernel scalar"
        )
    return np


def compatibility_key(config: SimulationConfig) -> str:
    """Fingerprint of everything one lockstep batch must share.

    Two configs may occupy the same batch exactly when they differ only
    in policy knobs — thresholds, EWMA weight, static level, generic
    ``params`` — because those are consulted solely at window boundaries,
    where the coordinator handles divergence. Everything else (topology,
    link model, traffic incl. seed and rate, phases, policy *name*,
    history window, initial level) must match, so the key is the config
    fingerprint with the knob fields pinned to canonical values.
    """
    dvs = dataclasses.replace(
        config.dvs,
        thresholds=TABLE1_DEFAULT,
        ewma_weight=3.0,
        static_level=0,
        params={},
    )
    return dataclasses.replace(config, dvs=dvs).fingerprint()


def plan_batches(
    configs: list[SimulationConfig], max_batch: int = DEFAULT_MAX_BATCH
) -> list[list[int]]:
    """Group config positions into lockstep-compatible batches.

    Returns lists of indices into *configs*: each batch shares one
    :func:`compatibility_key`, holds at most *max_batch* members, and
    preserves input order within and across groups (first appearance
    orders the groups), so planning is deterministic for a given input —
    a prerequisite for Serial==ProcessPool bit-identity.
    """
    if max_batch < 1:
        raise ConfigError("max_batch must be positive")
    groups: dict[str, list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(compatibility_key(config), []).append(index)
    batches: list[list[int]] = []
    for indices in groups.values():
        for start in range(0, len(indices), max_batch):
            batches.append(indices[start : start + max_batch])
    return batches


class _PuppetPolicy(DVSPolicy):
    """Replays a coordinator-chosen decision through the real controller.

    Installed in place of every class engine's per-port policy objects.
    ``has_replay`` is always True so the controller drains the replay
    counter every window; a zero preload makes
    :meth:`~repro.core.dvs_link.DVSChannel.charge_replay` a no-op, so
    puppets are transparent for replay-free policies.
    """

    has_replay = True

    def __init__(self) -> None:
        self.action = DVSAction.HOLD
        self.replay = 0

    def preload(self, action: DVSAction, replay: int) -> None:
        self.action = action
        self.replay = replay

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        return self.action

    def consume_replay_flits(self) -> int:
        flits = self.replay
        self.replay = 0
        return flits


class DivergenceOverflow(Exception):
    """A batch's class count exceeded its ``max_classes`` budget.

    Raised by :meth:`BatchedEngine.run` mid-run (the class engines are
    abandoned); carries the member-index groups of the offending class
    partition so a backend can *fan out* — resubmit each group as its own
    smaller batch, typically to separate worker processes. Members that
    diverged together stay together, so each resubmitted group replays its
    shared decision prefix in lockstep.
    """

    def __init__(self, groups: list[list[int]]):
        super().__init__(
            f"batch diverged into {len(groups)} equivalence classes"
        )
        self.groups = groups


class _ClassState:
    """One equivalence class: a scalar engine plus the members riding it."""

    __slots__ = ("engine", "members", "puppets")

    def __init__(
        self, engine: Simulator, members: list[int], puppets: list[_PuppetPolicy]
    ):
        self.engine = engine
        self.members = members
        self.puppets = puppets


#: DVSAction by its signed code (the ``value`` attribute), for decoding
#: the int8 decision arrays back into enum members at puppet preload.
_ACTION_BY_CODE = {action.value: action for action in DVSAction}

# Channel-effect kinds for the canonical signature (what a decision
# actually does to the shared channel state; dropped requests and
# accepted no-ops are both NONE — they differ only in the per-member
# drop counter, which the coordinator carries separately).
_EFFECT_NONE = 0
_EFFECT_STEP = 1
_EFFECT_SLEEP = 2
_EFFECT_WAKE = 3


class BatchedEngine:
    """Runs N lockstep-compatible configurations as one copy-on-divergence
    ensemble; see the module docstring for the design.

    The public surface mirrors the scalar facade: construct with the
    member configs, call :meth:`run` once, receive one
    :class:`~repro.network.simulator.SimulationResult` per config in
    input order, each bit-identical to a scalar run of that config.
    """

    def __init__(
        self,
        configs: list[SimulationConfig],
        *,
        sanitize: bool = False,
        max_classes: int | None = None,
    ):
        np = require_numpy()
        self._np = np
        configs = list(configs)
        if not configs:
            raise ConfigError("batched engine needs at least one config")
        if max_classes is not None and max_classes < 1:
            raise ConfigError("max_classes must be positive")
        key = compatibility_key(configs[0])
        for config in configs[1:]:
            if compatibility_key(config) != key:
                raise ConfigError(
                    "batched engine members must share a compatibility key "
                    "(same topology, link, traffic, phases and policy name; "
                    "only policy knobs may differ) — use plan_batches() to "
                    "group arbitrary sweeps"
                )
        self.configs = configs
        first = configs[0]
        self.n_members = len(configs)
        self._history_window = first.dvs.history_window
        self._warmup = first.warmup_cycles
        self._measure = first.measure_cycles
        self._dvs_enabled = first.dvs.enabled
        self._finished = False
        #: Class-count budget; exceeding it raises DivergenceOverflow so a
        #: backend can fan the groups out across workers. None = unlimited.
        self._max_classes = max_classes

        root = Simulator(first, sanitize=sanitize)
        self._n_channels = len(root.channels)
        table = first.link.build_table()
        self._max_level = table.max_level

        members = self.n_members
        channels = self._n_channels
        #: Per-member dropped-request counters (the only controller field
        #: that reaches SimulationResult; the class engines' own counters
        #: follow the canonical member and are discarded).
        self._drops = np.zeros(members, dtype=np.int64)
        #: Integer-femtojoule per-link energy ledger, reconstructed per
        #: member at finish (class totals plus merge corrections, exact
        #: under integer summation).
        self._energy_fj = np.zeros((members, channels), dtype=np.int64)
        #: Diagnostics for the bench / docs honesty tables.
        self.splits = 0
        self.merges = 0
        self.boundaries = 0

        # Merge-correction frame shifts: a member's true accumulator total
        # is its class's total plus these (see the module docstring).
        # Per-channel femtojoule corrections are [member, channel]; the
        # rest are scalars per member. Latency is carried as a per-member
        # prefix list plus an index into the class's sample list (the
        # samples from that index on are the member's own).
        self._corr_link_fj = np.zeros((members, channels), dtype=np.int64)
        self._corr_trans_fj = np.zeros((members, channels), dtype=np.int64)
        self._corr_trans_count = np.zeros(members, dtype=np.int64)
        self._corr_offered = np.zeros(members, dtype=np.int64)
        self._corr_ejected = np.zeros(members, dtype=np.int64)
        self._lat_prefix: list[list[int]] = [[] for _ in range(members)]
        self._lat_from = [0] * members
        # Per-member measurement-start snapshots (captured after
        # begin_measurement; class begin totals plus corrections then).
        self._start_link_fj = np.zeros((members, channels), dtype=np.int64)
        self._start_trans_fj = np.zeros((members, channels), dtype=np.int64)
        self._start_trans_count = np.zeros(members, dtype=np.int64)

        # A 1-member batch needs no coordinator: no puppets, no decision
        # lanes — run() drives the root scalar engine natively (its real
        # policies stay installed), making batch=1 exactly a scalar run.
        if members == 1:
            self._vector_lane = False
            self._classes = [_ClassState(root, [0], [])]
            return

        self._vector_lane = self._dvs_enabled and first.dvs.policy == "history"
        self._member_policies: list[list[DVSPolicy]] = []
        if self._vector_lane:
            self._init_history_lane(np, table)
        elif self._dvs_enabled:
            # Object lane: real per-member, per-channel policy objects
            # built exactly as the engine builds them (same context, same
            # seeds), consulted by the coordinator instead of a controller.
            for config in configs:
                self._member_policies.append(
                    [
                        build_policy(
                            config.dvs,
                            PolicyBuildContext(
                                table=table,
                                channel_index=channel.spec.channel_id,
                                window_cycles=self._history_window,
                            ),
                        )
                        for channel in root.channels
                    ]
                )

        puppets = self._install_puppets(root)
        self._classes = [_ClassState(root, list(range(members)), puppets)]

    # -- construction helpers ---------------------------------------------

    def _init_history_lane(self, np, table) -> None:
        """Allocate the vectorized EWMA/decision lane for Algorithm 1."""
        members = self.n_members
        channels = self._n_channels
        shape = (members, channels)
        # Prediction registers (EWMAPredictor starts at 0.0).
        self._lu_pred = np.zeros(shape, dtype=np.float64)
        self._bu_pred = np.zeros(shape, dtype=np.float64)
        # Per-member constants, shaped (members, 1) to broadcast across
        # channels. Weight resolution goes through knob_values, exactly
        # like the registered history factory.
        weights = [knob_values(config.dvs)["ewma_weight"] for config in self.configs]
        self._weight = np.array(weights, dtype=np.float64).reshape(members, 1)
        self._weight_p1 = self._weight + 1.0
        thresholds = [config.dvs.thresholds for config in self.configs]
        column = lambda values: np.array(  # noqa: E731 - local shaping helper
            values, dtype=np.float64
        ).reshape(members, 1)
        self._congested_bu = column([t.congested_bu for t in thresholds])
        self._t_low_light = column([t.low_uncongested for t in thresholds])
        self._t_high_light = column([t.high_uncongested for t in thresholds])
        self._t_low_cong = column([t.low_congested for t in thresholds])
        self._t_high_cong = column([t.high_congested for t in thresholds])
        # Scratch buffers for the allocation-free boundary op: full-batch
        # sized, sliced per class. Names match their role in
        # _advance_history_lane.
        self._sc_prior = np.empty(shape, dtype=np.float64)
        self._sc_lu = np.empty(shape, dtype=np.float64)
        self._sc_bu = np.empty(shape, dtype=np.float64)
        self._sc_w = np.empty((members, 1), dtype=np.float64)
        self._sc_wp1 = np.empty((members, 1), dtype=np.float64)
        self._sc_col = np.empty((members, 1), dtype=np.float64)
        self._sc_light = np.empty(shape, dtype=bool)
        self._sc_heavy = np.empty(shape, dtype=bool)
        self._sc_m1 = np.empty(shape, dtype=bool)
        self._sc_m2 = np.empty(shape, dtype=bool)
        self._sc_down = np.empty(shape, dtype=bool)
        self._sc_up = np.empty(shape, dtype=bool)
        self._sc_act = np.empty(shape, dtype=np.int8)

    @staticmethod
    def _install_puppets(engine: Simulator) -> list[_PuppetPolicy]:
        puppets = []
        for controller in engine.controllers:
            puppet = _PuppetPolicy()
            controller.policy = puppet
            puppets.append(puppet)
        return puppets

    # -- public surface ----------------------------------------------------

    @property
    def class_count(self) -> int:
        """Live equivalence classes (1 == the whole batch is in lockstep)."""
        return len(self._classes)

    def member_energy_femtojoules(self):
        """Per-link energy ledger, integer femtojoules, ``[member, channel]``.

        Populated by :meth:`run`; converts back through
        :func:`repro.units.femtojoules_to_joules`.
        """
        return self._energy_fj

    def run(self) -> list[SimulationResult]:
        """Warm up, measure and summarize every member; results in order."""
        if self._finished:
            raise SimulationError("BatchedEngine.run() may only be called once")
        self._finished = True
        if self.n_members == 1:
            # Coordinator bypass: the root engine still carries its real
            # policies (no puppets were installed), so this is literally a
            # scalar run — same objects, same code path, same bits.
            engine = self._classes[0].engine
            result = engine.run()
            now = engine.now
            energy = self._energy_fj
            for j, channel in enumerate(engine.channels):
                dvs = channel.dvs
                dvs.finalize(now)
                energy[0, j] = dvs.total_energy_fj
            self._drops[0] = result.requests_dropped
            return [result]
        self._advance_phase(self._warmup)
        for cls in self._classes:
            cls.engine.begin_measurement()
        self._begin_ledger()
        self._advance_phase(self._warmup + self._measure)
        return self._finish()

    def _begin_ledger(self) -> None:
        """Snapshot every member's measurement-phase starting totals.

        Called right after ``begin_measurement`` (which finalizes channel
        energy to the boundary): a member's start is its class's begin
        totals plus any warmup-merge corrections. The meter-scope
        corrections (ejected/offered/latency) reset here, mirroring the
        meter reset inside ``begin_measurement``.
        """
        np = self._np
        self._corr_offered[:] = 0
        self._corr_ejected[:] = 0
        members = self.n_members
        self._lat_prefix = [[] for _ in range(members)]
        self._lat_from = [0] * members
        for cls in self._classes:
            channels = cls.engine.channels
            link = np.array(
                [channel.dvs.link_energy_fj for channel in channels],
                dtype=np.int64,
            )
            trans = np.array(
                [channel.dvs.transition_energy_fj for channel in channels],
                dtype=np.int64,
            )
            count = sum(channel.dvs.transition_count for channel in channels)
            rows = np.asarray(cls.members, dtype=np.intp)
            self._start_link_fj[rows] = link + self._corr_link_fj[rows]
            self._start_trans_fj[rows] = trans + self._corr_trans_fj[rows]
            self._start_trans_count[rows] = count + self._corr_trans_count[rows]

    # -- the boundary loop -------------------------------------------------

    def _advance_phase(self, end: int) -> None:
        """Advance every class to cycle *end* in lockstep, boundary by
        boundary.

        All classes share ``now`` at every point of this loop (splits run
        their boundary step at birth, landing on the same cycle as their
        parent), which is what makes boundary-time state digests
        comparable: re-merging coalesces classes whose states reconverged
        *at the same cycle*. A window boundary at exactly *end* belongs to
        the next phase (it closes inside ``step(end)``), matching the
        scalar kernel's phasing.
        """
        if not self._dvs_enabled:
            for cls in self._classes:
                cls.engine.run_until(end)
            return
        window = self._history_window
        max_classes = self._max_classes
        while True:
            now = self._classes[0].engine.now
            if now == 0:
                boundary = window
            elif now % window == 0:
                # The boundary at `now` is still pending: it closes
                # inside step(now), which has not run yet.
                boundary = now
            else:
                boundary = now + (window - now % window)
            if boundary >= end:
                for cls in self._classes:
                    cls.engine.run_until(end)
                return
            for cls in self._classes:
                cls.engine.run_until(boundary)
            if len(self._classes) > 1:
                self._merge_classes()
            # Snapshot the list: classes split off at this boundary have
            # already run their boundary step and must not be reprocessed.
            for cls in list(self._classes):
                self._close_boundary(cls)
            if max_classes is not None and len(self._classes) > max_classes:
                raise DivergenceOverflow(
                    [list(cls.members) for cls in self._classes]
                )

    def _merge_classes(self) -> None:
        """Coalesce classes whose engine states re-converged.

        Runs at a boundary cycle *before* the boundary's events dispatch:
        every class sits at the same ``now`` with its window's decision
        inputs accrued, so digest equality here means the engines evolve
        bit-identically from this point for identical future commands.
        The first class with a given digest (class-list order, which is
        deterministic) survives; absorbed members record frame-shift
        corrections (see :meth:`_absorb`).
        """
        survivors: dict[bytes, _ClassState] = {}
        merged: list[_ClassState] = []
        for cls in self._classes:
            digest = state_digest(cls.engine)
            target = survivors.get(digest)
            if target is None:
                survivors[digest] = cls
                merged.append(cls)
            else:
                self._absorb(target, cls)
                self.merges += 1
        self._classes = merged

    def _absorb(self, target: _ClassState, absorbed: _ClassState) -> None:
        """Fold *absorbed*'s members into digest-equal *target*.

        Every integer accumulator gets the exact frame shift
        ``absorbed_totals - target_totals`` added to the member's
        correction, so ``class_total + correction`` keeps equaling the
        member's true scalar-run total. The energy reads skip
        ``finalize``: digest equality includes ``_last_energy_cycle`` and
        the power state, so both engines have accrued to the same point
        and will accrue identically — the raw difference is exact.
        """
        np = self._np
        a = target.engine
        b = absorbed.engine
        link_shift = np.array(
            [channel.dvs.link_energy_fj for channel in b.channels],
            dtype=np.int64,
        ) - np.array(
            [channel.dvs.link_energy_fj for channel in a.channels],
            dtype=np.int64,
        )
        trans_shift = np.array(
            [channel.dvs.transition_energy_fj for channel in b.channels],
            dtype=np.int64,
        ) - np.array(
            [channel.dvs.transition_energy_fj for channel in a.channels],
            dtype=np.int64,
        )
        count_shift = sum(
            channel.dvs.transition_count for channel in b.channels
        ) - sum(channel.dvs.transition_count for channel in a.channels)
        a_meter = a._meter
        b_meter = b._meter
        offered_shift = b_meter.offered - a_meter.offered
        ejected_shift = b_meter.ejected - a_meter.ejected
        b_latencies = b_meter.latency._latencies
        a_count = len(a_meter.latency._latencies)
        rows = np.asarray(absorbed.members, dtype=np.intp)
        self._corr_link_fj[rows] += link_shift
        self._corr_trans_fj[rows] += trans_shift
        self._corr_trans_count[rows] += count_shift
        self._corr_offered[rows] += offered_shift
        self._corr_ejected[rows] += ejected_shift
        for member in absorbed.members:
            # The member's samples so far: its prefix plus what its old
            # class collected since it joined; from here on it rides the
            # target class's list.
            self._lat_prefix[member] += b_latencies[self._lat_from[member] :]
            self._lat_from[member] = a_count
        target.members.extend(absorbed.members)

    def _close_boundary(self, cls: _ClassState) -> list[_ClassState]:
        """Process one history-window boundary for one class.

        Equivalent to the scalar ``step(boundary)`` for every member:
        run the first half of the step (event dispatch + injection), read
        the exact decision inputs ``close_window`` would compute, decide
        per member, split the class where effects diverge, preload the
        puppets with each group's canonical decision, and run the second
        half (the real controller dispatch plus router stepping).
        Returns the classes split off, already advanced past the boundary.
        """
        np = self._np
        engine = cls.engine
        now = engine.now
        self.boundaries += 1
        engine.begin_boundary_step()

        controllers = engine.controllers
        channels = self._n_channels
        members = cls.members
        count = len(members)

        # Class-level decision inputs: exactly the expressions
        # PortDVSController.close_window evaluates (same float ops in the
        # same order), read without mutating the controller registers —
        # close_window itself updates them in finish_boundary_step below.
        lu = [0.0] * channels
        bu = [0.0] * channels
        level = [0] * channels
        steady = [False] * channels
        asleep = [False] * channels
        demand = [False] * channels
        sleep_ok = [False] * channels
        for j, controller in enumerate(controllers):
            channel = controller.channel
            busy = channel.busy_window
            lu[j] = min(1.0, busy / controller.window_cycles)
            occupancy = (
                controller.occupancy_source.cumulative_integral(now)
                - controller._last_occupancy_integral
            )
            bu[j] = min(
                1.0,
                occupancy / (controller.window_cycles * controller.buffer_capacity),
            )
            level[j] = channel.level
            steady[j] = channel.is_steady
            asleep[j] = channel.sleeping
            demand[j] = channel.sleep_demand
            sleep_ok[j] = channel.sleep_permitted(now)

        # Per-member decisions: signed DVSAction codes [member, channel].
        replay = np.zeros((count, channels), dtype=np.int64)
        if self._vector_lane:
            idx = np.asarray(members, dtype=np.intp)
            lu_row = np.asarray(lu, dtype=np.float64)
            bu_row = np.asarray(bu, dtype=np.float64)
            act = self._advance_history_lane(idx, lu_row, bu_row)
        else:
            act = np.zeros((count, channels), dtype=np.int8)
            for i, member in enumerate(members):
                policies = self._member_policies[member]
                for j in range(channels):
                    policy = policies[j]
                    action = policy.decide(
                        PolicyInputs(
                            link_utilization=lu[j],
                            buffer_utilization=bu[j],
                            level=level[j],
                            max_level=self._max_level,
                            cycle=now,
                            asleep=asleep[j],
                            sleep_demand=demand[j],
                        )
                    )
                    act[i, j] = action.value
                    if policy.has_replay:
                        replay[i, j] = policy.consume_replay_flits()

        # Canonical channel effects + per-member drop accounting. The
        # predicates mirror DVSChannel.request_level / request_sleep /
        # request_wake acceptance exactly (see those methods).
        level_arr = np.asarray(level, dtype=np.int64)
        steady_arr = np.asarray(steady, dtype=bool)
        sleep_ok_arr = np.asarray(sleep_ok, dtype=bool)
        asleep_arr = np.asarray(asleep, dtype=bool)
        step_mask = np.abs(act) == 1
        target = np.clip(level_arr + act, 0, self._max_level)
        effect_step = step_mask & steady_arr & (target != level_arr)
        effect_sleep = (act == DVSAction.SLEEP.value) & sleep_ok_arr
        effect_wake = (act == DVSAction.WAKE.value) & asleep_arr
        dropped = (
            (step_mask & ~steady_arr)
            | ((act == DVSAction.SLEEP.value) & ~sleep_ok_arr)
            | ((act == DVSAction.WAKE.value) & ~asleep_arr)
        )
        member_rows = np.asarray(members, dtype=np.intp)
        np.add.at(self._drops, member_rows, dropped.sum(axis=1, dtype=np.int64))

        kind = (
            effect_step * _EFFECT_STEP
            + effect_sleep * _EFFECT_SLEEP
            + effect_wake * _EFFECT_WAKE
        ).astype(np.int64)
        signature = (
            (kind << 48) | (np.where(effect_step, target, 0) << 32) | replay
        )

        # Group members by identical effect rows (insertion order keeps
        # the grouping deterministic across backends).
        groups: dict[bytes, list[int]] = {}
        for i in range(count):
            groups.setdefault(signature[i].tobytes(), []).append(i)
        ordered = list(groups.values())

        new_classes: list[_ClassState] = []
        for rows in ordered[1:]:
            # Divergent group: snapshot the pre-finish engine state.
            # fast_clone maps every internal reference (bound methods,
            # shared counters, pending events) onto the clone and rebuilds
            # the id()-keyed transition-event index; the clone's puppets
            # are re-collected from its controllers.
            clone = fast_clone(engine)
            puppets = [controller.policy for controller in clone.controllers]
            self._preload(puppets, act[rows[0]], replay[rows[0]])
            clone.finish_boundary_step()
            split = _ClassState(clone, [members[i] for i in rows], puppets)
            new_classes.append(split)
            self.splits += 1
        if new_classes:
            cls.members = [members[i] for i in ordered[0]]
            self._classes.extend(new_classes)

        self._preload(cls.puppets, act[ordered[0][0]], replay[ordered[0][0]])
        engine.finish_boundary_step()
        return new_classes

    @staticmethod
    def _preload(puppets: list[_PuppetPolicy], act_row, replay_row) -> None:
        for j, puppet in enumerate(puppets):
            puppet.preload(_ACTION_BY_CODE[int(act_row[j])], int(replay_row[j]))

    def _advance_history_lane(self, idx, lu_row, bu_row):  # repro-hot
        """Vectorized Algorithm 1 for one class's members at one boundary.

        One in-place numpy op per pipeline stage, every ufunc writing into
        a preallocated scratch buffer (lint rule R6 enforces the
        no-temporaries contract). Each element performs exactly the
        scalar sequence of :class:`~repro.core.history.EWMAPredictor`
        and :meth:`HistoryDVSPolicy.decide` — single-rounded IEEE-754
        multiply/add/divide and the same comparisons — so the lane is
        bit-identical to the per-port objects it replaces.

        Returns an int8 ``[len(idx), channel]`` view of signed
        :class:`~repro.core.policy.DVSAction` codes.
        """
        np = self._np
        count = idx.shape[0]
        prior = self._sc_prior[:count]
        lu = self._sc_lu[:count]
        bu = self._sc_bu[:count]
        weight = self._sc_w[:count]
        weight_p1 = self._sc_wp1[:count]
        column = self._sc_col[:count]
        light = self._sc_light[:count]
        heavy = self._sc_heavy[:count]
        mask_a = self._sc_m1[:count]
        mask_b = self._sc_m2[:count]
        down = self._sc_down[:count]
        up = self._sc_up[:count]
        act = self._sc_act[:count]

        np.take(self._weight, idx, axis=0, out=weight)
        np.take(self._weight_p1, idx, axis=0, out=weight_p1)

        # LU_pred = (W * LU + LU_pred) / (W + 1)   (paper Eq. (5))
        np.take(self._lu_pred, idx, axis=0, out=prior)
        np.multiply(weight, lu_row, out=lu)
        np.add(lu, prior, out=lu)
        np.divide(lu, weight_p1, out=lu)
        self._lu_pred[idx] = lu

        # BU_pred, same recurrence.
        np.take(self._bu_pred, idx, axis=0, out=prior)
        np.multiply(weight, bu_row, out=bu)
        np.add(bu, prior, out=bu)
        np.divide(bu, weight_p1, out=bu)
        self._bu_pred[idx] = bu

        # Threshold select (BU litmus) + compare, regime by regime so the
        # selected thresholds are the member's exact floats, never a
        # blended recomputation.
        np.take(self._congested_bu, idx, axis=0, out=column)
        np.less(bu, column, out=light)
        np.logical_not(light, out=heavy)

        np.take(self._t_low_light, idx, axis=0, out=column)
        np.less(lu, column, out=mask_a)
        np.logical_and(light, mask_a, out=mask_a)
        np.take(self._t_low_cong, idx, axis=0, out=column)
        np.less(lu, column, out=mask_b)
        np.logical_and(heavy, mask_b, out=mask_b)
        np.logical_or(mask_a, mask_b, out=down)

        np.take(self._t_high_light, idx, axis=0, out=column)
        np.greater(lu, column, out=mask_a)
        np.logical_and(light, mask_a, out=mask_a)
        np.take(self._t_high_cong, idx, axis=0, out=column)
        np.greater(lu, column, out=mask_b)
        np.logical_and(heavy, mask_b, out=mask_b)
        np.logical_or(mask_a, mask_b, out=up)

        act.fill(DVSAction.HOLD.value)
        act[down] = DVSAction.STEP_DOWN.value
        act[up] = DVSAction.STEP_UP.value
        return act

    # -- summarization -----------------------------------------------------

    def _finish(self) -> list[SimulationResult]:
        """Reconstruct every member's result from its class plus corrections.

        One uniform path: a never-merged member has zero corrections and
        an empty latency prefix, so its reconstruction feeds the exact
        integers of its class through the exact float-op sequence
        (:func:`~repro.power.accounting.derive_report`, the same division
        for the rates, a latency summary over the same multiset) that the
        scalar kernel's ``finish()`` performs — bit-identical by
        construction, with no second code path to drift.
        """
        np = self._np
        results: list[SimulationResult | None] = [None] * self.n_members
        for cls in self._classes:
            engine = cls.engine
            class_result = engine.finish()
            accountant = engine.accountant
            meter = engine._meter
            # finish() finalized every channel to `now` via the
            # accountant, so these totals are current.
            link_end = np.array(
                [channel.dvs.link_energy_fj for channel in engine.channels],
                dtype=np.int64,
            )
            trans_end = np.array(
                [channel.dvs.transition_energy_fj for channel in engine.channels],
                dtype=np.int64,
            )
            count_end = sum(
                channel.dvs.transition_count for channel in engine.channels
            )
            latencies = meter.latency._latencies
            measure_cycles = class_result.measure_cycles
            for member in cls.members:
                member_link = link_end + self._corr_link_fj[member]
                member_trans = trans_end + self._corr_trans_fj[member]
                self._energy_fj[member, :] = member_link + member_trans
                power = derive_report(
                    int(member_link.sum()) - int(self._start_link_fj[member].sum()),
                    int(member_trans.sum())
                    - int(self._start_trans_fj[member].sum()),
                    count_end
                    + int(self._corr_trans_count[member])
                    - int(self._start_trans_count[member]),
                    meter.measure_start,
                    engine.now,
                    accountant.router_clock_hz,
                    accountant.baseline_power_w,
                )
                collector = LatencyCollector()
                collector._latencies = (
                    self._lat_prefix[member] + latencies[self._lat_from[member] :]
                )
                offered = meter.offered + int(self._corr_offered[member])
                ejected = meter.ejected + int(self._corr_ejected[member])
                results[member] = dataclasses.replace(
                    class_result,
                    config=self.configs[member],
                    offered_packets=offered,
                    ejected_packets=ejected,
                    offered_rate=offered / measure_cycles,
                    accepted_rate=ejected / measure_cycles,
                    latency=collector.stats(),
                    power=power,
                    requests_dropped=int(self._drops[member]),
                )
        return results  # type: ignore[return-value]


def run_batch(
    configs: list[SimulationConfig], *, sanitize: bool = False
) -> list[SimulationResult]:
    """Convenience: one-shot batched run of *configs* (shared key required)."""
    return BatchedEngine(configs, sanitize=sanitize).run()
