"""Decorator-based DVS policy registry.

Every policy the simulator can run is described by one
:class:`PolicySpec`: a name, a human-readable description, a tuple of
:class:`PolicyKnob` parameter declarations (bounds, defaults and the
knob-sweep grid the Pareto explorer uses), and a factory that builds the
per-port policy object from a :class:`~repro.config.DVSControlConfig`
plus a :class:`PolicyBuildContext`.

The registry is the single source of truth for "which policies exist":

* :class:`~repro.config.DVSControlConfig` validates its ``policy`` name
  and per-policy ``params`` against the registered schema at construction
  time (no more hardcoded ``POLICY_NAMES`` tuple, no more mid-run
  failures for an out-of-range static level);
* :class:`~repro.network.engine.SimulationEngine` builds per-port policy
  objects through :func:`build_policy` instead of an if/else ladder;
* the CLI derives its ``--policy`` choices, the ``repro policies``
  listing and the Pareto knob grids from :func:`registered_policies` /
  :func:`policy_sweep_grid`;
* output tables and figure legends derive their labels from
  :func:`policy_label`.

Builtin policies register themselves on import of
:mod:`repro.core.policy` (the paper's policies) and
:mod:`repro.core.policy_zoo` (the competitor policies); both imports are
performed lazily by :func:`_ensure_builtins` so this module stays free of
import cycles with :mod:`repro.config`.

Third-party plugins register the same way::

    from repro.core.registry import PolicyKnob, register_policy

    @register_policy(
        "my_policy",
        description="...",
        knobs=(PolicyKnob("gain", default=1.0, minimum=0.0, sweep=(0.5, 2.0)),),
    )
    def _build_my_policy(dvs, context):
        return MyPolicy(gain=knob_values(dvs)["gain"])

See ``docs/policies.md`` for the full plugin how-to, including the purity
rules enforced by lint rule R8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import DVSControlConfig
    from .levels import VFTable
    from .policy import DVSPolicy


@dataclass(frozen=True, slots=True)
class PolicyKnob:
    """One JSON-serializable scalar parameter of a policy.

    Attributes:
        name: Knob name; doubles as the key in
            ``DVSControlConfig.params`` and, for the paper's policies, as
            the legacy config attribute it aliases (e.g. ``static_level``).
        default: Value used when neither ``params`` nor a legacy config
            attribute provides one.
        minimum: Inclusive lower bound, or ``None`` for unbounded.
        maximum: Inclusive upper bound, or ``None`` for unbounded.
        integer: Whether the knob must hold an integral value.
        level_indexed: Whether the knob indexes the V/F table — validated
            against the actual table size at
            :class:`~repro.config.SimulationConfig` construction.
        sweep: The knob-grid values the Pareto explorer sweeps; an empty
            tuple pins the knob to its default during sweeps.
        description: One-line human description for listings and docs.
    """

    name: str
    default: float = 0.0
    minimum: float | None = None
    maximum: float | None = None
    integer: bool = False
    level_indexed: bool = False
    sweep: tuple[float, ...] = ()
    description: str = ""

    def validate(self, policy: str, value: float, *, levels: int | None = None) -> None:
        """Raise :class:`ConfigError` when *value* is illegal for this knob."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"policy {policy!r} knob {self.name!r} must be a number, "
                f"got {value!r}"
            )
        if self.integer and float(value) != int(value):
            raise ConfigError(
                f"policy {policy!r} knob {self.name!r} must be an integer, "
                f"got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(
                f"policy {policy!r} knob {self.name!r} = {value!r} below "
                f"minimum {self.minimum!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ConfigError(
                f"policy {policy!r} knob {self.name!r} = {value!r} above "
                f"maximum {self.maximum!r}"
            )
        if self.level_indexed and levels is not None and value > levels - 1:
            raise ConfigError(
                f"policy {policy!r} knob {self.name!r} = {value!r} outside "
                f"the {levels}-level V/F table [0, {levels - 1}]"
            )

    def describe(self) -> str:
        bounds = ""
        if self.minimum is not None or self.maximum is not None:
            low = "-inf" if self.minimum is None else f"{self.minimum:g}"
            high = "+inf" if self.maximum is None else f"{self.maximum:g}"
            bounds = f" in [{low}, {high}]"
        return f"{self.name}={self.default:g}{bounds}"


@dataclass(frozen=True, slots=True)
class PolicyBuildContext:
    """What the engine knows at policy-construction time.

    Attributes:
        table: The channel's V/F table (``None`` in table-free unit tests;
            factories needing it must handle the fallback).
        channel_index: Topology channel id of the port this policy will
            control — lets seeded policies decorrelate their streams per
            port while staying deterministic across backends.
    """

    table: "VFTable | None" = None
    channel_index: int = 0


PolicyFactory = Callable[["DVSControlConfig", PolicyBuildContext], "DVSPolicy"]


@dataclass(frozen=True, slots=True)
class PolicySpec:
    """Registry entry describing one DVS policy plugin."""

    name: str
    description: str
    knobs: tuple[PolicyKnob, ...] = ()
    factory: PolicyFactory | None = None
    #: Whether the policy reads ``DVSControlConfig.thresholds``.
    uses_thresholds: bool = False
    #: Whether the policy may issue SLEEP/WAKE actions (the CI smoke runs
    #: these under the sanitizer's sleep-state checks).
    controls_sleep: bool = False

    def knob(self, name: str) -> PolicyKnob | None:
        for knob in self.knobs:
            if knob.name == name:
                return knob
        return None

    def describe(self) -> str:
        knobs = ", ".join(knob.describe() for knob in self.knobs) or "no knobs"
        return f"{self.name}({knobs})"


_REGISTRY: dict[str, PolicySpec] = {}
_BUILTINS_LOADED = False


def register_policy(
    name: str,
    *,
    description: str,
    knobs: tuple[PolicyKnob, ...] = (),
    uses_thresholds: bool = False,
    controls_sleep: bool = False,
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator registering *factory* as the builder for policy *name*."""
    seen = set()
    for knob in knobs:
        if knob.name in seen:
            raise ConfigError(f"policy {name!r} declares knob {knob.name!r} twice")
        seen.add(knob.name)

    def decorate(factory: PolicyFactory) -> PolicyFactory:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.factory is not factory:
            qual = getattr(factory, "__qualname__", None)
            existing_qual = getattr(existing.factory, "__qualname__", None)
            if qual is None or qual != existing_qual:
                raise ConfigError(f"policy {name!r} is already registered")
        _REGISTRY[name] = PolicySpec(
            name=name,
            description=description,
            knobs=knobs,
            factory=factory,
            uses_thresholds=uses_thresholds,
            controls_sleep=controls_sleep,
        )
        return factory

    return decorate


def register_null_policy(name: str, *, description: str) -> None:
    """Register a policy name that builds no controller at all (``none``)."""
    if name not in _REGISTRY:
        _REGISTRY[name] = PolicySpec(name=name, description=description)


def _ensure_builtins() -> None:
    """Import the builtin policy modules exactly once (registration side
    effect); deferred so ``config -> registry -> policy`` stays acyclic."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import policy as _policy  # noqa: F401
        from . import policy_zoo as _policy_zoo  # noqa: F401


def registered_policies() -> tuple[str, ...]:
    """All registered policy names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_policy_spec(name: str) -> PolicySpec:
    """The spec for *name*, or a :class:`ConfigError` listing the registry."""
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown policy {name!r}; registered policies:\n{describe_registry()}"
        )
    return spec


def describe_registry() -> str:
    """One line per registered policy: name, knobs (with bounds), summary."""
    _ensure_builtins()
    lines = []
    for name in sorted(_REGISTRY):
        spec = _REGISTRY[name]
        lines.append(f"  {spec.describe()} — {spec.description}")
    return "\n".join(lines)


def knob_values(dvs: "DVSControlConfig") -> dict[str, float]:
    """Resolved knob values for *dvs*: ``params`` override, then the legacy
    config attribute of the same name, then the knob default."""
    spec = get_policy_spec(dvs.policy)
    values: dict[str, float] = {}
    for knob in spec.knobs:
        if knob.name in dvs.params:
            value = dvs.params[knob.name]
        else:
            value = getattr(dvs, knob.name, knob.default)
        values[knob.name] = int(value) if knob.integer else float(value)
    return values


def validate_dvs_config(dvs: "DVSControlConfig", *, levels: int | None = None) -> None:
    """Validate *dvs* against the registry schema.

    Called from ``DVSControlConfig.__post_init__`` (``levels=None``: knob
    bounds only) and again from ``SimulationConfig.__post_init__`` with
    the actual link table size so level-indexed knobs are rejected at
    config time rather than mid-run.
    """
    spec = get_policy_spec(dvs.policy)
    known = {knob.name for knob in spec.knobs}
    for name in sorted(dvs.params):
        if name not in known:
            knobs = ", ".join(sorted(known)) or "none"
            raise ConfigError(
                f"policy {dvs.policy!r} has no knob {name!r} "
                f"(declared knobs: {knobs}); registered policies:\n"
                f"{describe_registry()}"
            )
    # Validate the raw values, not the resolved ones: knob_values()
    # int-casts integer knobs, which would let 2.5 truncate to 2 here.
    for knob in spec.knobs:
        if knob.name in dvs.params:
            value = dvs.params[knob.name]
        else:
            value = getattr(dvs, knob.name, knob.default)
        knob.validate(dvs.policy, value, levels=levels)


def build_policy(
    dvs: "DVSControlConfig",
    context: PolicyBuildContext | None = None,
) -> "DVSPolicy":
    """Build the per-port policy object for *dvs* via its registered factory."""
    spec = get_policy_spec(dvs.policy)
    if spec.factory is None:
        raise ConfigError(f"policy {dvs.policy!r} builds no controller")
    if context is None:
        context = PolicyBuildContext()
    return spec.factory(dvs, context)


def policy_label(dvs: "DVSControlConfig") -> str:
    """Short display label: policy name plus its non-default knob values.

    ``history`` stays ``history``; a static policy pinned at level 3
    renders as ``static(static_level=3)``. Output tables and figure
    legends use this instead of hardcoded strings, so new plugins render
    correctly without touching harness or CLI code.
    """
    spec = get_policy_spec(dvs.policy)
    values = knob_values(dvs)
    parts = []
    for knob in spec.knobs:
        value = values[knob.name]
        if value != knob.default:
            rendered = f"{int(value)}" if knob.integer else f"{value:g}"
            parts.append(f"{knob.name}={rendered}")
    if not parts:
        return spec.name
    return f"{spec.name}({', '.join(parts)})"


def policy_sweep_grid(name: str) -> list[dict[str, float]]:
    """The declared knob grid for *name*: the cartesian product of every
    knob's ``sweep`` values (knobs without a sweep stay at their default).

    Always non-empty — a knob-free policy contributes the single default
    assignment ``{}``.
    """
    spec = get_policy_spec(name)
    grid: list[dict[str, float]] = [{}]
    for knob in spec.knobs:
        if not knob.sweep:
            continue
        grid = [
            {**assignment, knob.name: value}
            for assignment in grid
            for value in knob.sweep
        ]
    return grid


# ``field`` is re-exported for plugin modules that declare knob tuples in
# dataclasses of their own; referencing it here also keeps linters honest
# about the import.
__all__ = [
    "PolicyKnob",
    "PolicyBuildContext",
    "PolicyFactory",
    "PolicySpec",
    "register_policy",
    "register_null_policy",
    "registered_policies",
    "get_policy_spec",
    "describe_registry",
    "knob_values",
    "validate_dvs_config",
    "build_policy",
    "policy_label",
    "policy_sweep_grid",
    "field",
]
