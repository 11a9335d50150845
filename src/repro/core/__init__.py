"""The paper's primary contribution: DVS links and the history-based policy.

This subpackage is self-contained: it models the voltage/frequency operating
points of a DVS link (:mod:`repro.core.levels`), the link power and
transition-energy model (:mod:`repro.core.power_model`), the channel-level
DVS state machine with the paper's transition sequencing
(:mod:`repro.core.dvs_link`), the EWMA predictor
(:mod:`repro.core.history`), the history-based policy itself plus
baselines (:mod:`repro.core.policy`), the per-port controller that measures
each window's utilization and wires it to actuation
(:mod:`repro.core.controller`), the published
threshold presets (:mod:`repro.core.thresholds`), and the hardware cost
model of Section 3.3 (:mod:`repro.core.hardware`).
"""

from .controller import PortDVSController
from .dvs_link import ChannelPhase, DVSChannel, TransitionTiming
from .hardware import ControllerHardwareModel
from .history import EWMAPredictor
from .levels import VFOperatingPoint, VFTable
from .policy import (
    AdaptiveThresholdPolicy,
    DVSAction,
    DVSPolicy,
    HistoryDVSPolicy,
    LinkUtilizationOnlyPolicy,
    PolicyInputs,
    StaticLevelPolicy,
)
from .power_model import LinkPowerModel, RegulatorModel, transition_energy
from .thresholds import TABLE1_DEFAULT, TABLE2_SETTINGS, ThresholdSet

__all__ = [
    "VFOperatingPoint",
    "VFTable",
    "LinkPowerModel",
    "RegulatorModel",
    "transition_energy",
    "ChannelPhase",
    "DVSChannel",
    "TransitionTiming",
    "EWMAPredictor",
    "DVSAction",
    "DVSPolicy",
    "PolicyInputs",
    "HistoryDVSPolicy",
    "StaticLevelPolicy",
    "LinkUtilizationOnlyPolicy",
    "AdaptiveThresholdPolicy",
    "PortDVSController",
    "ThresholdSet",
    "TABLE1_DEFAULT",
    "TABLE2_SETTINGS",
    "ControllerHardwareModel",
]
