"""Orion-style router-core energy model.

The paper cites Orion [Wang et al., MICRO 2002] for network power
modeling and argues (Section 4.2) that router-core power barely changes
with DVS links: a flit that lingers "can potentially trigger more
arbitrations [but] does not increase buffer read/write power, nor
crossbar power", and the allocators only draw 81 mW. This module makes
that argument quantitative: first-order per-event energies for the three
core datapath structures, in the style of Orion's capacitance models,
calibrated so a fully loaded router lands on the Figure 7 core budget.

Event energies (``E = 1/2 C V^2`` aggregates folded into per-event
constants at 2.5 V, TSMC 0.25 um scale):

* buffer write and read — SRAM word access over ``flit_bits`` bits;
* crossbar traversal — one input-to-output connection of a
  ``ports x ports`` matrix crossbar;
* arbitration — one round of a ``requesters``-input arbiter.

The companion :class:`RouterEnergyCounters` turns a simulator's activity
counters into energy so experiments can compare core energy with and
without DVS (see :func:`repro.harness.experiments.router_core_energy`,
the ``core-energy`` artifact).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: Gate-capacitance scale (F) per minimum-width transistor, 0.25 um-ish.
_C_GATE = 2.0e-15


@dataclass(frozen=True, slots=True)
class OrionParameters:
    """Technology and structure parameters of the core energy model."""

    voltage_v: float = 2.5
    flit_bits: int = 32
    ports: int = 5
    vcs_per_port: int = 2
    buffer_depth: int = 64
    #: Effective capacitance multipliers per structure (dimensionless
    #: counts of gate capacitances switched per bit/event), first-order
    #: Orion-style constants.
    buffer_cap_per_bit: float = 60.0
    crossbar_cap_per_bit: float = 35.0
    arbiter_cap_per_request: float = 150.0

    def __post_init__(self) -> None:
        if self.voltage_v <= 0.0:
            raise ConfigError("voltage must be positive")
        if min(self.flit_bits, self.ports, self.vcs_per_port, self.buffer_depth) < 1:
            raise ConfigError("structure parameters must be positive")


class RouterEnergyModel:
    """Per-event energies for buffers, crossbar and arbiters."""

    def __init__(self, params: OrionParameters | None = None):
        self.params = params if params is not None else OrionParameters()
        v2 = self.params.voltage_v**2

        # Buffer access: word line + bit lines scale with depth and width.
        depth_factor = 1.0 + self.params.buffer_depth / 64.0
        self.buffer_write_j = (
            0.5 * _C_GATE * self.params.buffer_cap_per_bit
            * self.params.flit_bits * depth_factor * v2
        )
        self.buffer_read_j = 0.8 * self.buffer_write_j  # reads are cheaper

        # Crossbar: one traversal drives an input row and an output column.
        xbar_factor = self.params.ports / 5.0
        self.crossbar_traversal_j = (
            0.5 * _C_GATE * self.params.crossbar_cap_per_bit
            * self.params.flit_bits * (1.0 + xbar_factor) * v2
        )

        # Arbitration: request/grant network over all requesters.
        requesters = self.params.ports * self.params.vcs_per_port
        self.arbitration_j = (
            0.5 * _C_GATE * self.params.arbiter_cap_per_request * requesters * v2
        )

    def flit_traversal_j(self) -> float:
        """Core energy of one flit's hop: write + read + crossbar + arb."""
        return (
            self.buffer_write_j
            + self.buffer_read_j
            + self.crossbar_traversal_j
            + self.arbitration_j
        )

    def peak_core_power_w(self, clock_hz: float) -> float:
        """Core power with every port moving a flit every cycle."""
        if clock_hz <= 0.0:
            raise ConfigError("clock must be positive")
        return self.params.ports * self.flit_traversal_j() * clock_hz

    def describe(self) -> str:
        lines = ["Orion-style per-event core energies"]
        lines.append(f"  buffer write    {self.buffer_write_j * 1e12:8.2f} pJ")
        lines.append(f"  buffer read     {self.buffer_read_j * 1e12:8.2f} pJ")
        lines.append(f"  crossbar pass   {self.crossbar_traversal_j * 1e12:8.2f} pJ")
        lines.append(f"  arbitration     {self.arbitration_j * 1e12:8.2f} pJ")
        lines.append(f"  per-flit hop    {self.flit_traversal_j() * 1e12:8.2f} pJ")
        return "\n".join(lines)


@dataclass(slots=True)
class RouterEnergyCounters:
    """Activity counters convertible to core energy.

    The simulator's routers already count launches and ejections; this
    helper derives event counts from them (each launched flit implies one
    buffer write on arrival, one read on departure, one crossbar pass and
    one arbitration; ejected flits skip the crossbar).
    """

    flits_switched: int = 0
    flits_ejected: int = 0
    extra_arbitrations: int = 0

    @classmethod
    def from_simulator(cls, simulator) -> "RouterEnergyCounters":
        switched = sum(router.flits_launched for router in simulator.routers)
        ejected = sum(router.flits_ejected for router in simulator.routers)
        return cls(flits_switched=switched, flits_ejected=ejected)

    def energy_j(self, model: RouterEnergyModel) -> float:
        switched = self.flits_switched * (
            model.buffer_write_j
            + model.buffer_read_j
            + model.crossbar_traversal_j
            + model.arbitration_j
        )
        ejected = self.flits_ejected * (
            model.buffer_write_j + model.buffer_read_j + model.arbitration_j
        )
        retries = self.extra_arbitrations * model.arbitration_j
        return switched + ejected + retries


def core_energy_comparison(simulator_baseline, simulator_dvs, clock_hz: float):
    """Mean core power for two finished simulators (paper's Sec 4.2 claim).

    Returns ``(baseline_w, dvs_w, relative_change)`` — the change should
    be small: DVS does not add buffer or crossbar events, only (cheap)
    arbitration retries while flits wait for slow links.
    """
    model = RouterEnergyModel()
    results = []
    for simulator in (simulator_baseline, simulator_dvs):
        counters = RouterEnergyCounters.from_simulator(simulator)
        duration_s = simulator.now / clock_hz
        if duration_s <= 0.0:
            raise ConfigError("simulator has not run")
        results.append(counters.energy_j(model) / duration_s)
    baseline_w, dvs_w = results
    change = (dvs_w - baseline_w) / baseline_w if baseline_w > 0.0 else 0.0
    return baseline_w, dvs_w, change
