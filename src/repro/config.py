"""Configuration objects for the whole system.

Four frozen dataclasses describe a simulation — :class:`NetworkConfig` (the
router/topology substrate), :class:`LinkConfig` (the DVS links),
:class:`DVSControlConfig` (the policy layer) and :class:`WorkloadConfig`
(traffic) — bundled into a :class:`SimulationConfig` with run-control
parameters. Defaults reproduce the paper's Section 4.2 setup: an 8x8 mesh
of 1 GHz routers with two VCs and 128 flit buffers per input port, 5-flit
packets, 13-stage pipelines, 8-lane DVS channels spanning 125 MHz/0.9 V to
1 GHz/2.5 V in ten levels, and the Table 1 policy parameters.

All configs validate in ``__post_init__`` and raise
:class:`~repro.errors.ConfigError` on inconsistency, so a bad experiment
fails at construction rather than mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core.dvs_link import TransitionTiming
from .core.levels import VFTable
from .core.power_model import LinkPowerModel, RegulatorModel
from .core.registry import validate_dvs_config
from .core.thresholds import TABLE1_DEFAULT, ThresholdSet
from .errors import ConfigError

# Policy names live in the policy registry (:mod:`repro.core.registry`);
# use ``registered_policies()`` instead of the removed POLICY_NAMES tuple.
#: Workload names accepted by :class:`WorkloadConfig`.
WORKLOAD_NAMES = ("two_level", "uniform", "permutation")
#: Routing names accepted by :class:`NetworkConfig`.
ROUTING_NAMES = ("dor", "adaptive")


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Topology and router microarchitecture (paper Section 4.2)."""

    radix: int = 8
    dimensions: int = 2
    wraparound: bool = False
    vcs_per_port: int = 2
    buffers_per_port: int = 128
    flits_per_packet: int = 5
    router_clock_hz: float = 1.0e9
    pipeline_depth: int = 13
    credit_delay: int = 4
    routing: str = "dor"

    def __post_init__(self) -> None:
        if self.radix < 2 or self.dimensions < 1:
            raise ConfigError("radix must be >= 2 and dimensions >= 1")
        if self.vcs_per_port < 1:
            raise ConfigError("need at least one VC per port")
        if self.buffers_per_port < self.vcs_per_port:
            raise ConfigError("need at least one buffer slot per VC")
        if self.buffers_per_port % self.vcs_per_port:
            # The DVS controllers and utilization probes divide occupancy
            # by buffers_per_port, so an uneven split would cap buffer
            # utilization below 1.
            raise ConfigError(
                f"buffers_per_port={self.buffers_per_port} does not split "
                f"evenly across vcs_per_port={self.vcs_per_port}"
            )
        if self.flits_per_packet < 1:
            raise ConfigError("packets need at least one flit")
        if self.router_clock_hz <= 0.0:
            raise ConfigError("router clock must be positive")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline depth must be >= 1")
        if self.credit_delay < 1:
            raise ConfigError("credit delay must be >= 1 cycle")
        if self.routing not in ROUTING_NAMES:
            raise ConfigError(
                f"unknown routing {self.routing!r}; choose from {ROUTING_NAMES}"
            )
        if self.routing == "adaptive" and self.wraparound:
            raise ConfigError("adaptive routing is supported on meshes only")
        if self.wraparound and self.vcs_per_port < 2:
            raise ConfigError("torus routing needs >= 2 VCs (dateline)")

    @property
    def node_count(self) -> int:
        return self.radix**self.dimensions

    @property
    def buffers_per_vc(self) -> int:
        """Flit slots per VC (the per-port pool split evenly)."""
        return self.buffers_per_port // self.vcs_per_port

    @property
    def pipeline_latency(self) -> int:
        """Cycles a flit spends in flight between SA win upstream and
        arrival downstream (the pipeline minus the cycle SA itself takes)."""
        return self.pipeline_depth - 1


@dataclass(frozen=True, slots=True)
class LinkConfig:
    """DVS link electrical model (paper Sections 2 and 4.2)."""

    levels: int = 10
    min_frequency_hz: float = 125.0e6
    max_frequency_hz: float = 1.0e9
    min_voltage_v: float = 0.9
    max_voltage_v: float = 2.5
    lanes: int = 8
    mux_ratio: int = 4
    low_power_w: float = 23.6e-3
    high_power_w: float = 200.0e-3
    filter_capacitance_f: float = 5.0e-6
    regulator_efficiency: float = 0.9
    voltage_transition_s: float = 10.0e-6
    frequency_transition_link_cycles: int = 100
    #: Retention rail applied when a shutdown-capable policy sleeps the
    #: channel below level 0; only the bias (leakage) term draws power.
    sleep_retention_voltage_v: float = 0.3
    #: Cycles after a wake completes during which re-sleep is refused,
    #: bounding worst-case sleep/wake thrash (2 default history windows).
    sleep_wake_lockout_cycles: int = 400

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ConfigError("need at least two DVS levels")
        if self.min_frequency_hz >= self.max_frequency_hz:
            raise ConfigError("min link frequency must be below max")
        if self.lanes < 1 or self.mux_ratio < 1:
            raise ConfigError("lanes and mux ratio must be positive")
        if not 0.0 < self.sleep_retention_voltage_v < self.min_voltage_v:
            raise ConfigError(
                "sleep retention voltage must lie in (0, min_voltage_v)"
            )
        if self.sleep_wake_lockout_cycles < 0:
            raise ConfigError("sleep wake lockout must be non-negative")
        # Remaining electrical parameters are validated by the model
        # builders below; build them once here to fail fast.
        self.build_table()
        self.build_power_model()
        self.build_regulator()
        self.build_timing()

    def build_table(self) -> VFTable:
        """The channel's voltage/frequency table."""
        return VFTable.from_endpoints(
            levels=self.levels,
            min_frequency_hz=self.min_frequency_hz,
            max_frequency_hz=self.max_frequency_hz,
            min_voltage_v=self.min_voltage_v,
            max_voltage_v=self.max_voltage_v,
        )

    def build_power_model(self) -> LinkPowerModel:
        """Per-link power model fitted through the endpoint anchors."""
        from .core.levels import VFOperatingPoint

        return LinkPowerModel(
            low_anchor=VFOperatingPoint(self.min_frequency_hz, self.min_voltage_v),
            low_power_w=self.low_power_w,
            high_anchor=VFOperatingPoint(self.max_frequency_hz, self.max_voltage_v),
            high_power_w=self.high_power_w,
        )

    def build_regulator(self) -> RegulatorModel:
        return RegulatorModel(
            filter_capacitance_f=self.filter_capacitance_f,
            efficiency=self.regulator_efficiency,
        )

    def build_timing(self) -> TransitionTiming:
        return TransitionTiming(
            voltage_transition_s=self.voltage_transition_s,
            frequency_transition_link_cycles=self.frequency_transition_link_cycles,
        )


@dataclass(frozen=True, slots=True)
class DVSControlConfig:
    """Which DVS policy runs at each output port, and its parameters.

    ``policy`` names an entry of the policy registry
    (:mod:`repro.core.registry`); ``params`` carries that policy's knob
    values as a JSON-serializable mapping, validated against the
    registered schema here (bounds, integrality, unknown keys) and again
    by :class:`SimulationConfig` against the actual V/F table size for
    level-indexed knobs. The legacy attributes ``ewma_weight`` and
    ``static_level`` remain as aliases for the knobs of the same name;
    an explicit ``params`` entry takes precedence.
    """

    policy: str = "history"
    thresholds: ThresholdSet = TABLE1_DEFAULT
    ewma_weight: float = 3.0
    history_window: int = 200
    static_level: int = 0
    initial_level: int | None = None
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ewma_weight <= 0.0:
            raise ConfigError("EWMA weight must be positive")
        if self.history_window <= 0:
            raise ConfigError("history window must be positive")
        if self.static_level < 0:
            raise ConfigError("static level must be non-negative")
        # Registry schema validation: unknown policy names (the error
        # lists every registered policy and its knobs), unknown param
        # keys, out-of-range and non-integral knob values.
        validate_dvs_config(self)

    @property
    def enabled(self) -> bool:
        """Whether any per-window control runs at all."""
        return self.policy != "none"


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Traffic model (paper Section 4.3).

    ``injection_rate`` is the offered load in packets per router cycle
    summed over the whole network (the paper's x-axis unit).
    """

    kind: str = "two_level"
    injection_rate: float = 1.0
    seed: int = 1
    # two-level model parameters
    average_tasks: int = 100
    average_task_duration_s: float = 1.0e-3
    task_duration_jitter: float = 0.5
    onoff_sources_per_task: int = 128
    on_shape: float = 1.4
    off_shape: float = 1.2
    #: Location parameter of the Pareto ON-period distribution, in router
    #: cycles — sets the typical burst length (unpublished in the paper;
    #: see DESIGN.md substitution notes).
    on_location_cycles: float = 800.0
    #: Packet spacing within a burst, in router cycles — sets the burst
    #: line rate (also unpublished). The default of 40 cycles puts a
    #: source's peak line rate (5 flits / 40 cycles) at the minimum-level
    #: channel bandwidth, so single bursts do not swamp a fully
    #: down-scaled link.
    peak_interval_cycles: float = 40.0
    locality_radius: int = 2
    locality_probability: float = 0.8
    # permutation parameter
    permutation: str = "transpose"

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_NAMES:
            raise ConfigError(
                f"unknown workload {self.kind!r}; choose from {WORKLOAD_NAMES}"
            )
        if self.injection_rate < 0.0:
            raise ConfigError("injection rate cannot be negative")
        if self.average_tasks < 1:
            raise ConfigError("need at least one task session")
        if self.average_task_duration_s <= 0.0:
            raise ConfigError("task duration must be positive")
        if not 0.0 <= self.task_duration_jitter < 1.0:
            raise ConfigError("task duration jitter must be in [0, 1)")
        if self.onoff_sources_per_task < 1:
            raise ConfigError("need at least one ON/OFF source per task")
        if not 1.0 < self.on_shape < 2.0 or not 1.0 < self.off_shape < 2.0:
            raise ConfigError(
                "Pareto shapes must lie in (1, 2) for finite-mean, "
                "infinite-variance (self-similar) behaviour"
            )
        if self.on_location_cycles <= 0.0 or self.peak_interval_cycles <= 0.0:
            raise ConfigError("burst location and spacing must be positive")
        if self.locality_radius < 1:
            raise ConfigError("locality radius must be >= 1")
        if not 0.0 <= self.locality_probability <= 1.0:
            raise ConfigError("locality probability must be in [0, 1]")

    def with_rate(self, injection_rate: float) -> "WorkloadConfig":
        """Copy with a different offered load (sweep helper)."""
        return replace(self, injection_rate=injection_rate)


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """A complete, runnable experiment description."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    dvs: DVSControlConfig = field(default_factory=DVSControlConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    warmup_cycles: int = 2_000
    measure_cycles: int = 10_000

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ConfigError("warmup cycles cannot be negative")
        if self.measure_cycles <= 0:
            raise ConfigError("measurement phase must be positive")
        # Re-validate the policy knobs against the actual table size so a
        # level-indexed knob (e.g. ``static_level``) outside this link's
        # V/F table fails at construction rather than mid-run.
        validate_dvs_config(self.dvs, levels=self.link.levels)

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles

    def with_rate(self, injection_rate: float) -> "SimulationConfig":
        """Copy with a different offered load."""
        return replace(self, workload=self.workload.with_rate(injection_rate))

    def with_dvs(self, dvs: DVSControlConfig) -> "SimulationConfig":
        return replace(self, dvs=dvs)

    def fingerprint(self) -> str:
        """Canonical JSON describing this experiment, for content addressing.

        Two configs with equal fingerprints describe bit-identical
        simulations (the workload seed is part of the workload config, so
        it is part of the fingerprint). The sweep result cache keys on
        this plus a code epoch; see :mod:`repro.harness.cache`.
        """
        # Imported lazily: the harness imports this module at load time.
        from .harness.serialization import canonical_json

        return canonical_json(self)


def paper_baseline_config(**overrides) -> SimulationConfig:
    """The paper's Section 4.2 configuration (possibly overridden).

    Keyword overrides address the four sub-configs by name, e.g.
    ``paper_baseline_config(dvs=DVSControlConfig(policy="none"))``.
    """
    config = SimulationConfig()
    if overrides:
        config = replace(config, **overrides)
    return config
