"""Flit-level interconnection-network simulator substrate.

Reimplements (in Python) the event-driven flit-level simulator the paper
built in C++ (Section 4.1): k-ary n-cube topologies of pipelined
virtual-channel routers with credit-based flow control, whose inter-router
channels are DVS links with the transition behaviour of
:mod:`repro.core.dvs_link`.
"""

from .channel import NetworkChannel
from .engine import SimulationEngine
from .packet import Flit, Packet
from .routing import (
    DimensionOrderRouting,
    MinimalAdaptiveRouting,
    RoutingFunction,
    make_routing,
)
from .simulator import SimulationResult, Simulator
from .topology import Coordinates, Topology

__all__ = [
    "Flit",
    "Packet",
    "Coordinates",
    "Topology",
    "RoutingFunction",
    "DimensionOrderRouting",
    "MinimalAdaptiveRouting",
    "make_routing",
    "NetworkChannel",
    "SimulationEngine",
    "Simulator",
    "SimulationResult",
]
