"""repro — reproduction of "Dynamic Voltage Scaling with Links for Power
Optimization of Interconnection Networks" (Shang, Peh & Jha, HPCA 2003).

The package provides, from scratch:

* the paper's contribution — DVS links and the history-based DVS policy
  (:mod:`repro.core`);
* the substrate it runs on — a flit-level k-ary n-cube network simulator
  with virtual-channel routers and credit flow control
  (:mod:`repro.network`);
* the paper's two-level self-similar workload model plus classic reference
  workloads (:mod:`repro.traffic`);
* power accounting and the router power profile (:mod:`repro.power`);
* metrics (:mod:`repro.metrics`) and the per-figure experiment harness
  (:mod:`repro.harness`);
* a pluggable instrumentation bus — observers for latency, power, series,
  probes and event traces attach to the cycle kernel without touching it
  (:mod:`repro.instrument`; see ``docs/architecture.md``).

Quick start::

    from repro import SimulationConfig, Simulator

    result = Simulator(SimulationConfig()).run()
    print(result.latency.mean, result.power.savings_factor)
"""

from .config import (
    DVSControlConfig,
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
    paper_baseline_config,
)
from .core import (
    TABLE1_DEFAULT,
    TABLE2_SETTINGS,
    ChannelPhase,
    ControllerHardwareModel,
    DVSAction,
    DVSChannel,
    DVSPolicy,
    HistoryDVSPolicy,
    LinkPowerModel,
    PortDVSController,
    RegulatorModel,
    StaticLevelPolicy,
    ThresholdSet,
    TransitionTiming,
    VFOperatingPoint,
    VFTable,
    transition_energy,
)
from .errors import (
    ConfigError,
    ExperimentError,
    FlowControlError,
    LinkStateError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
# network must initialize before instrument: the observer implementations
# import metrics, which reaches back into network.flowcontrol.
from .network import SimulationEngine, SimulationResult, Simulator, Topology

# isort: split
from .instrument import InstrumentBus, Observer, TraceRecorder, TransitionEvent
from .power import PowerAccountant, PowerReport, RouterPowerProfile

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configs
    "NetworkConfig",
    "LinkConfig",
    "DVSControlConfig",
    "WorkloadConfig",
    "SimulationConfig",
    "paper_baseline_config",
    # core
    "VFOperatingPoint",
    "VFTable",
    "LinkPowerModel",
    "RegulatorModel",
    "transition_energy",
    "ChannelPhase",
    "DVSChannel",
    "TransitionTiming",
    "DVSAction",
    "DVSPolicy",
    "HistoryDVSPolicy",
    "StaticLevelPolicy",
    "PortDVSController",
    "ThresholdSet",
    "TABLE1_DEFAULT",
    "TABLE2_SETTINGS",
    "ControllerHardwareModel",
    # network
    "Topology",
    "SimulationEngine",
    "Simulator",
    "SimulationResult",
    # instrumentation
    "InstrumentBus",
    "Observer",
    "TransitionEvent",
    "TraceRecorder",
    # power
    "PowerAccountant",
    "PowerReport",
    "RouterPowerProfile",
    # errors
    "ReproError",
    "ConfigError",
    "TopologyError",
    "RoutingError",
    "SimulationError",
    "FlowControlError",
    "LinkStateError",
    "WorkloadError",
    "ExperimentError",
]
