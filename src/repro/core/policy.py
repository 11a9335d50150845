"""DVS policies: the paper's Algorithm 1 and comparison baselines.

A policy is a small decision object instantiated once per router output
port. Every history window the port controller feeds it the window's link
utilization and downstream input-buffer utilization; the policy returns one
of three actions: step the channel one level down (slower, lower voltage),
hold, or step one level up. The channel state machine enforces transition
latencies; the policy is purely combinational plus two EWMA registers,
matching the paper's ~500-gate hardware realization (Section 3.3).

Policies provided:

* :class:`HistoryDVSPolicy` — the paper's Algorithm 1: EWMA-predicted LU
  drives the step decision, EWMA-predicted BU selects between the
  light-load and congested threshold pairs.
* :class:`StaticLevelPolicy` — offline-chosen fixed level (what
  variable-frequency links supported before DVS extensions).
* :class:`LinkUtilizationOnlyPolicy` — the strawman of Section 3.1 that
  Section 3.1 argues against: LU thresholds only, no congestion litmus.
* :class:`AdaptiveThresholdPolicy` — the dynamic-threshold extension the
  paper points to in Section 4.4.2.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import NamedTuple

from ..errors import ConfigError
from .history import EWMAPredictor
from .thresholds import TABLE1_DEFAULT, ThresholdSet


class DVSAction(enum.Enum):
    """Per-window decision of a DVS policy.

    ``STEP_DOWN``/``HOLD``/``STEP_UP`` are the paper's three actions; the
    ``value`` is the signed level delta the controller applies. ``SLEEP``
    and ``WAKE`` extend the action space for shutdown-capable policies
    (Tsai-style link shutdown below level 0): they do not map to a level
    delta and are handled explicitly by the port controller.
    """

    STEP_DOWN = -1
    HOLD = 0
    STEP_UP = 1
    SLEEP = -2
    WAKE = 2


class PolicyInputs(NamedTuple):
    """One history window's observations, as seen by a policy.

    A named tuple rather than a frozen dataclass: the port controller builds
    one per window close, positionally, and a tuple is the cheapest
    immutable record Python offers.

    Attributes:
        link_utilization: Fraction of the window's link clocks that carried
            flits (paper Eq. (2)), in [0, 1].
        buffer_utilization: Mean occupied fraction of the downstream input
            buffers over the window (paper Eq. (3)), in [0, 1].
        level: The channel's current operating level (ascending frequency).
        max_level: Top level index of the channel's VF table.
        cycle: Router cycle at which the window closed.
        asleep: Whether the channel is in the sleep state below level 0
            (always ``False`` for channels without shutdown support).
        sleep_demand: Whether traffic tried to use the channel while it
            slept during this window — the wake signal for shutdown
            policies.
    """

    link_utilization: float
    buffer_utilization: float
    level: int
    max_level: int
    cycle: int
    asleep: bool = False
    sleep_demand: bool = False


class DVSPolicy(ABC):
    """Interface all per-port DVS policies implement."""

    #: Whether this policy's error model charges replay penalties; when
    #: True the port controller drains :meth:`consume_replay_flits` every
    #: window and bills them to the channel. Class attribute so the
    #: controller's hot path pays one attribute read for ordinary policies.
    has_replay: bool = False

    @abstractmethod
    def decide(self, inputs: PolicyInputs) -> DVSAction:
        """Fold in one window's observations and return the action."""

    def consume_replay_flits(self) -> int:
        """Flits to replay for errors detected in the last window (drains)."""
        return 0

    def idle_action(self, inputs: PolicyInputs) -> DVSAction | None:
        """The action of every later all-idle window, if the state fixes it.

        Called right after :meth:`decide` folded in *inputs*. Returns the
        action :meth:`decide` would return, from the current state, for
        every later window with zero link and buffer utilization at
        ``inputs.level`` — or ``None`` when no such fixpoint is known. The
        default declares nothing, so the port controller evaluates every
        window. A policy that declares an action must also implement
        :meth:`skip_idle_windows`, and must not charge replays.
        """
        return None

    def skip_idle_windows(self, count: int) -> None:
        """Advance the state exactly as *count* all-idle :meth:`decide`
        calls at the same level would (see :meth:`idle_action`)."""
        raise NotImplementedError(
            f"{type(self).__name__} declares an idle action but cannot skip windows"
        )


class HistoryDVSPolicy(DVSPolicy):
    """The paper's history-based DVS policy (Algorithm 1).

    Per window:

    1. ``LU_pred = (W*LU + LU_past)/(W+1)``; same for BU (Eq. (5)).
    2. If ``BU_pred < B_congested`` use the light-load thresholds, else the
       congested (more aggressive) ones.
    3. ``LU_pred < T_low`` -> step down; ``LU_pred > T_high`` -> step up;
       otherwise hold.

    Note the congestion litmus: when the downstream buffers are full the
    network is saturated, link delay is hidden behind queueing, and the
    higher threshold pair lets the link slow down even at moderate LU.
    """

    def __init__(
        self,
        thresholds: ThresholdSet = TABLE1_DEFAULT,
        *,
        weight: float = 3.0,
    ) -> None:
        self.thresholds = thresholds
        self._lu_predictor = EWMAPredictor(weight)
        self._bu_predictor = EWMAPredictor(weight)

    @property
    def predicted_link_utilization(self) -> float:
        """Most recent ``LU_pred`` (for tracing / tests)."""
        return self._lu_predictor.predicted

    @property
    def predicted_buffer_utilization(self) -> float:
        """Most recent ``BU_pred``."""
        return self._bu_predictor.predicted

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        lu_pred = self._lu_predictor.update(inputs.link_utilization)
        bu_pred = self._bu_predictor.update(inputs.buffer_utilization)
        t_low, t_high = self.thresholds.select(bu_pred)
        if lu_pred < t_low:
            return DVSAction.STEP_DOWN
        if lu_pred > t_high:
            return DVSAction.STEP_UP
        return DVSAction.HOLD

    def idle_action(self, inputs: PolicyInputs) -> DVSAction | None:
        # An idle window only shrinks LU_pred, so once it is below both
        # low thresholds every later idle window steps down, whichever
        # pair the decaying BU_pred selects.
        lu_pred = self._lu_predictor.predicted
        thresholds = self.thresholds
        if lu_pred < thresholds.low_uncongested and lu_pred < thresholds.low_congested:
            return DVSAction.STEP_DOWN
        return None

    def skip_idle_windows(self, count: int) -> None:
        self._lu_predictor.skip_idle(count)
        self._bu_predictor.skip_idle(count)


class StaticLevelPolicy(DVSPolicy):
    """Hold the channel at one fixed, offline-chosen level.

    This is what plain variable-frequency links [Wei et al., Kim-Horowitz]
    offered before their DVS extension: the frequency is set once for the
    expected workload and never tracks it.
    """

    def __init__(self, level: int) -> None:
        if level < 0:
            raise ConfigError(f"static level must be non-negative, got {level}")
        self.level = level

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        target = min(self.level, inputs.max_level)
        if inputs.level < target:
            return DVSAction.STEP_UP
        if inputs.level > target:
            return DVSAction.STEP_DOWN
        return DVSAction.HOLD

    def idle_action(self, inputs: PolicyInputs) -> DVSAction | None:
        # Stateless: the action depends on the level alone.
        return self.decide(inputs)

    def skip_idle_windows(self, count: int) -> None:
        pass


class LinkUtilizationOnlyPolicy(DVSPolicy):
    """Ablation: Algorithm 1 without the buffer-utilization litmus.

    Section 3.1 shows LU alone cannot distinguish a lightly loaded network
    from a congested one (both show low LU), so this policy keeps links
    fast during congestion where slowing them is nearly free. Used by the
    ablation benches to quantify what the litmus buys.
    """

    def __init__(
        self,
        thresholds: ThresholdSet = TABLE1_DEFAULT,
        *,
        weight: float = 3.0,
    ) -> None:
        self.thresholds = thresholds
        self._lu_predictor = EWMAPredictor(weight)

    @property
    def predicted_link_utilization(self) -> float:
        return self._lu_predictor.predicted

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        lu_pred = self._lu_predictor.update(inputs.link_utilization)
        if lu_pred < self.thresholds.low_uncongested:
            return DVSAction.STEP_DOWN
        if lu_pred > self.thresholds.high_uncongested:
            return DVSAction.STEP_UP
        return DVSAction.HOLD

    def idle_action(self, inputs: PolicyInputs) -> DVSAction | None:
        if self._lu_predictor.predicted < self.thresholds.low_uncongested:
            return DVSAction.STEP_DOWN
        return None

    def skip_idle_windows(self, count: int) -> None:
        self._lu_predictor.skip_idle(count)


class AdaptiveThresholdPolicy(DVSPolicy):
    """Extension: Algorithm 1 with a slowly adapting light-load pair.

    Section 4.4.2 observes that the threshold pair is a power/latency dial
    and suggests adjusting it dynamically. This implementation nudges the
    light-load pair one notch more aggressive after ``patience`` consecutive
    windows of comfortably low predicted BU (latency headroom exists) and
    one notch more conservative whenever predicted BU approaches the
    congestion litmus (latency is at risk). The pair moves within
    ``[floor_low, ceiling_low]`` keeping a fixed ``gap`` between low and
    high thresholds.
    """

    def __init__(
        self,
        base: ThresholdSet = TABLE1_DEFAULT,
        *,
        weight: float = 3.0,
        step: float = 0.05,
        gap: float = 0.1,
        floor_low: float = 0.2,
        ceiling_low: float = 0.5,
        patience: int = 8,
        comfort_bu: float = 0.2,
        danger_bu: float = 0.4,
    ) -> None:
        if step <= 0.0 or gap <= 0.0:
            raise ConfigError("step and gap must be positive")
        if not 0.0 <= floor_low < ceiling_low <= 1.0 - gap:
            raise ConfigError("need 0 <= floor_low < ceiling_low <= 1 - gap")
        if patience <= 0:
            raise ConfigError("patience must be positive")
        if not 0.0 <= comfort_bu < danger_bu <= 1.0:
            raise ConfigError("need 0 <= comfort_bu < danger_bu <= 1")
        self._base = base
        self._lu_predictor = EWMAPredictor(weight)
        self._bu_predictor = EWMAPredictor(weight)
        self.step = step
        self.gap = gap
        self.floor_low = floor_low
        self.ceiling_low = ceiling_low
        self.patience = patience
        self.comfort_bu = comfort_bu
        self.danger_bu = danger_bu
        self._low = base.low_uncongested
        self._calm_windows = 0

    @property
    def current_light_load_pair(self) -> tuple[float, float]:
        """The adapted ``(T_low, T_high)`` light-load pair."""
        return self._low, self._low + self.gap

    def decide(self, inputs: PolicyInputs) -> DVSAction:
        lu_pred = self._lu_predictor.update(inputs.link_utilization)
        bu_pred = self._bu_predictor.update(inputs.buffer_utilization)

        if bu_pred >= self.danger_bu:
            self._low = max(self.floor_low, self._low - self.step)
            self._calm_windows = 0
        elif bu_pred <= self.comfort_bu:
            self._calm_windows += 1
            if self._calm_windows >= self.patience:
                self._low = min(self.ceiling_low, self._low + self.step)
                self._calm_windows = 0
        else:
            self._calm_windows = 0

        if bu_pred < self._base.congested_bu:
            t_low, t_high = self._low, self._low + self.gap
        else:
            t_low, t_high = self._base.low_congested, self._base.high_congested
        if lu_pred < t_low:
            return DVSAction.STEP_DOWN
        if lu_pred > t_high:
            return DVSAction.STEP_UP
        return DVSAction.HOLD


# ---------------------------------------------------------------------------
# Registry entries for the paper's policies.
#
# Factories receive the resolved DVSControlConfig plus a PolicyBuildContext
# and must read their knob values through ``knob_values`` so that both the
# legacy config attributes (``ewma_weight``, ``static_level``) and the
# generic ``params`` mapping work, with identical precedence everywhere.
# ---------------------------------------------------------------------------

from typing import TYPE_CHECKING  # noqa: E402

from .registry import (  # noqa: E402
    PolicyBuildContext,
    PolicyKnob,
    knob_values,
    register_null_policy,
    register_policy,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import DVSControlConfig


_EWMA_KNOB = PolicyKnob(
    "ewma_weight",
    default=3.0,
    minimum=1e-9,
    sweep=(1.0, 3.0, 7.0),
    description="history weight W of the EWMA predictor (Eq. (5))",
)


register_null_policy(
    "none",
    description="no DVS control: links pinned at the top level (paper baseline)",
)


@register_policy(
    "history",
    description="the paper's Algorithm 1: EWMA-predicted LU with BU litmus",
    knobs=(_EWMA_KNOB,),
    uses_thresholds=True,
)
def _build_history(dvs: "DVSControlConfig", context: PolicyBuildContext) -> DVSPolicy:
    values = knob_values(dvs)
    return HistoryDVSPolicy(dvs.thresholds, weight=values["ewma_weight"])


@register_policy(
    "static",
    description="offline-chosen fixed level (variable-frequency links baseline)",
    knobs=(
        PolicyKnob(
            "static_level",
            default=0,
            minimum=0,
            integer=True,
            level_indexed=True,
            sweep=(0, 3, 6, 9),
            description="the pinned V/F level (0 = slowest)",
        ),
    ),
)
def _build_static(dvs: "DVSControlConfig", context: PolicyBuildContext) -> DVSPolicy:
    values = knob_values(dvs)
    return StaticLevelPolicy(int(values["static_level"]))


@register_policy(
    "lu_only",
    description="Section 3.1 strawman: LU thresholds without the BU litmus",
    knobs=(_EWMA_KNOB,),
    uses_thresholds=True,
)
def _build_lu_only(dvs: "DVSControlConfig", context: PolicyBuildContext) -> DVSPolicy:
    values = knob_values(dvs)
    return LinkUtilizationOnlyPolicy(dvs.thresholds, weight=values["ewma_weight"])


@register_policy(
    "adaptive_threshold",
    description="Section 4.4.2 extension: slowly adapting light-load pair",
    knobs=(
        PolicyKnob(
            "ewma_weight",
            default=3.0,
            minimum=1e-9,
            description="history weight W of the EWMA predictor (Eq. (5))",
        ),
    ),
    uses_thresholds=True,
)
def _build_adaptive(dvs: "DVSControlConfig", context: PolicyBuildContext) -> DVSPolicy:
    values = knob_values(dvs)
    return AdaptiveThresholdPolicy(dvs.thresholds, weight=values["ewma_weight"])
