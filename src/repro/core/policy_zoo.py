"""Competitor DVS policies from the related work (PAPERS.md).

These policies answer "how good is the paper's history policy, really?"
by bracketing it from both sides on the power-vs-latency plane:

* :class:`ErrorCorrectionPolicy` — Razor-style timing-error-correction
  DVS in the spirit of Kaul et al.: keep undervolting until a (seeded,
  deterministic) error model fires, pay a replay latency/energy penalty,
  and step back up. More aggressive than history prediction, but the
  replay tax grows as the margin shrinks.
* :class:`LinkShutdownPolicy` — leakage-aware link shutdown in the
  spirit of Tsai et al.: behaves like the history policy inside the V/F
  table, but parks persistently idle links in the sleep state *below*
  level 0 (retention rail, leakage only) and pays a wake transition when
  traffic returns.
* :class:`OraclePolicy` — a clairvoyant baseline that sizes the link to
  each window's utilization with perfect prediction and no hysteresis:
  the upper bound a causal predictor can approach on Fig 13-style plots.

All three follow the policy-purity contract enforced by lint rule R8:
``decide()`` touches no unseeded randomness, no wall clock, and no
module globals — the error model draws from a ``random.Random`` seeded
in ``__init__`` from config, so runs are bit-identical across backends.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .history import EWMAPredictor
from .policy import EWMA_KNOB, DVSAction, DVSPolicy, PolicyInputs
from .registry import PolicyBuildContext, PolicyKnob, register_policy


@register_policy(
    "error_correction",
    description="Razor-style error-correction DVS: undervolt until the "
    "seeded error model fires, pay a replay penalty, step back up",
    knobs=(
        PolicyKnob(
            "error_rate",
            default=5.0e-4,
            minimum=0.0,
            maximum=1.0,
            sweep=(1.0e-4, 1.0e-3),
            description="base per-window error probability at one level of undervolt",
        ),
        PolicyKnob(
            "error_growth",
            default=4.0,
            minimum=1.0,
            description="error probability multiplier per level of undervolt",
        ),
        PolicyKnob(
            "probe_windows",
            default=4,
            minimum=1,
            integer=True,
            sweep=(2, 8),
            description="error-free windows required before probing down",
        ),
        PolicyKnob(
            "backoff_windows",
            default=8,
            minimum=0,
            integer=True,
            description="hold windows after an error before probing again",
        ),
        PolicyKnob(
            "replay_flits",
            default=8,
            minimum=1,
            integer=True,
            description="flits retransmitted per detected error",
        ),
        PolicyKnob(
            "seed",
            default=1,
            integer=True,
            description="error-model seed (mixed with the channel index)",
        ),
    ),
)
class ErrorCorrectionPolicy(DVSPolicy):
    """Razor-style error-correction DVS (Kaul et al. flavor).

    The policy assumes per-flit timing-error detection with replay: it
    probes downward through the V/F table whenever a probation period of
    ``probe_windows`` consecutive error-free windows passes, and steps
    back up the moment the error model fires, charging ``replay_flits``
    retransmissions through the port controller. After an error it holds
    for ``backoff_windows`` windows before probing down again.

    The error model is deterministic for a fixed seed: each window the
    per-window error probability is

        ``p = min(1, LU * error_rate * error_growth ** (max_level - level))``

    — no errors at the top level (full margin), exponentially more likely
    per level of undervolt, and proportional to how much traffic actually
    crossed the wire. Draws come from a private ``random.Random`` seeded
    from the config seed and the channel index, so streams decorrelate
    across ports while staying reproducible across backends.
    """

    has_replay = True

    def __init__(
        self,
        context: PolicyBuildContext,
        *,
        error_rate: float,
        error_growth: float,
        probe_windows: int,
        backoff_windows: int,
        replay_flits: int,
        seed: int,
    ) -> None:
        self.error_rate = error_rate
        self.error_growth = error_growth
        self.probe_windows = probe_windows
        self.backoff_windows = backoff_windows
        self.replay_flits = replay_flits
        self._rng = random.Random((seed << 20) ^ context.channel_index)
        self._clean_windows = 0
        self._backoff_left = 0
        self._pending_replay = 0
        self.errors_observed = 0

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        margin_levels = inputs.max_level - inputs.level
        if margin_levels > 0:
            probability = min(
                1.0,
                inputs.link_utilization
                * self.error_rate
                * self.error_growth**margin_levels,
            )
        else:
            probability = 0.0
        if probability > 0.0 and self._rng.random() < probability:
            # Timing error detected: replay the failed flits and retreat.
            self.errors_observed += 1
            self._pending_replay += self.replay_flits
            self._clean_windows = 0
            self._backoff_left = self.backoff_windows
            return DVSAction.STEP_UP
        if self._backoff_left > 0:
            self._backoff_left -= 1
            return DVSAction.HOLD
        self._clean_windows += 1
        if self._clean_windows >= self.probe_windows and inputs.level > 0:
            self._clean_windows = 0
            return DVSAction.STEP_DOWN
        return DVSAction.HOLD

    def consume_replay_flits(self) -> int:
        flits = self._pending_replay
        self._pending_replay = 0
        return flits


@register_policy(
    "link_shutdown",
    description="leakage-aware link shutdown: history policy plus a sleep "
    "state below level 0 with demand-driven wake",
    knobs=(
        replace(EWMA_KNOB, sweep=()),
        PolicyKnob(
            "sleep_lu",
            default=0.05,
            minimum=0.0,
            maximum=1.0,
            sweep=(0.02, 0.08),
            description="predicted-LU threshold below which a level-0 link naps",
        ),
        PolicyKnob(
            "sleep_patience",
            default=4,
            minimum=1,
            integer=True,
            sweep=(2, 8),
            description="consecutive idle windows required before sleeping",
        ),
        PolicyKnob(
            "max_sleep_windows",
            default=0,
            minimum=0,
            integer=True,
            description="forced-wake cap in windows (0 = wake on demand only)",
        ),
    ),
)
class LinkShutdownPolicy(DVSPolicy):
    """Leakage-aware link shutdown (Tsai et al. flavor).

    Inside the V/F table this is the paper's history policy (EWMA
    prediction plus the congestion litmus). On top of it, a persistently
    idle link is parked below level 0: after ``sleep_patience``
    consecutive windows with predicted LU under ``sleep_lu`` while
    already sitting at level 0, the policy issues ``SLEEP``. While
    asleep it issues ``WAKE`` as soon as the routers recorded traffic
    demand for the channel (or unconditionally after
    ``max_sleep_windows`` windows, when that cap is nonzero); EWMA state
    is frozen during sleep so the pre-sleep traffic estimate survives
    the nap. The channel's wake lockout bounds sleep/wake thrash.
    """

    def __init__(
        self,
        context: PolicyBuildContext,
        *,
        ewma_weight: float,
        sleep_lu: float,
        sleep_patience: int,
        max_sleep_windows: int,
    ) -> None:
        self.thresholds = context.thresholds
        self.sleep_lu = sleep_lu
        self.sleep_patience = sleep_patience
        self.max_sleep_windows = max_sleep_windows
        self._lu_predictor = EWMAPredictor(ewma_weight)
        self._bu_predictor = EWMAPredictor(ewma_weight)
        self._idle_windows = 0
        self._slept_windows = 0

    @property
    def predicted_link_utilization(self) -> float:
        return self._lu_predictor.predicted

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        if inputs.asleep:
            self._slept_windows += 1
            cap_hit = (
                self.max_sleep_windows > 0
                and self._slept_windows >= self.max_sleep_windows
            )
            if inputs.sleep_demand or cap_hit:
                self._slept_windows = 0
                self._idle_windows = 0
                return DVSAction.WAKE
            return DVSAction.HOLD

        lu_pred = self._lu_predictor.update(inputs.link_utilization)
        bu_pred = self._bu_predictor.update(inputs.buffer_utilization)

        if inputs.level == 0 and lu_pred < self.sleep_lu:
            self._idle_windows += 1
            if self._idle_windows >= self.sleep_patience:
                self._idle_windows = 0
                self._slept_windows = 0
                return DVSAction.SLEEP
        else:
            self._idle_windows = 0

        t_low, t_high = self.thresholds.select(bu_pred)
        if lu_pred < t_low:
            return DVSAction.STEP_DOWN
        if lu_pred > t_high:
            return DVSAction.STEP_UP
        return DVSAction.HOLD


@register_policy(
    "oracle",
    description="clairvoyant per-window utilization tracking: the upper "
    "bound for causal predictors on Fig 13-style plots",
    knobs=(
        PolicyKnob(
            "headroom",
            default=0.9,
            minimum=0.05,
            maximum=1.0,
            sweep=(0.7, 0.9),
            description="fraction of a level's bandwidth the demand may fill",
        ),
    ),
)
class OraclePolicy(DVSPolicy):
    """Clairvoyant utilization-tracking baseline.

    Treats each window's measured link utilization as a *perfect*
    prediction of the next window — no EWMA lag, no threshold
    hysteresis — and walks the level toward the cheapest operating point
    whose bandwidth covers the demand with a ``headroom`` safety factor:
    the minimal level ``L'`` with

        ``frequency(L') * headroom >= LU * frequency(level)``.

    One level per window (the hardware's one-step transition rule), so
    this is the upper bound on what a causal per-window predictor can
    achieve on the power-vs-latency frontier, not a physically free
    lunch.
    """

    def __init__(self, context: PolicyBuildContext, *, headroom: float) -> None:
        self.table = context.table
        self.headroom = headroom

    def target_level(self, inputs: PolicyInputs) -> int:
        """Cheapest level covering the window's demand with headroom."""
        demand_hz = inputs.link_utilization * self.table.frequency(inputs.level)
        max_level = min(inputs.max_level, self.table.max_level)
        for level in range(max_level + 1):
            if self.table.frequency(level) * self.headroom >= demand_hz:
                return level
        return max_level

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        target = self.target_level(inputs)
        if inputs.level < target:
            return DVSAction.STEP_UP
        if inputs.level > target:
            return DVSAction.STEP_DOWN
        return DVSAction.HOLD
