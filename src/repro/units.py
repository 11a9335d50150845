"""Unit conversion helpers.

The simulator's native time base is *router clock cycles*. The paper's
router runs at 1 GHz, so one cycle is one nanosecond, but nothing in the
codebase hardwires that: conversions always go through an explicit router
frequency.

Frequencies are stored in hertz, voltages in volts, power in watts and
energy in joules throughout the package; these helpers exist so call sites
can speak the paper's units (MHz, us, mW) without sprinkling powers of ten.
"""

from __future__ import annotations

from typing import NewType

from .errors import ConfigError

# -- Quantity NewTypes -------------------------------------------------------
# One NewType per dimension the model cares about. They are erased at
# runtime (``Hertz(x)`` is ``x``) and each is a subtype of its base, so
# annotating *return* positions is free for existing callers while giving
# mypy — and the repo's own R10 dimension pass (repro.analysis.dimensions)
# — a declared dimension to propagate. Parameter positions deliberately
# stay ``float``/``int``: forcing every call site to wrap literals would
# add noise without catching more bugs than R10's suffix conventions do.

#: Router/link clock cycles (the simulator's native time base).
Cycles = NewType("Cycles", int)
#: Link supply voltage.
Volts = NewType("Volts", float)
#: Clock frequency.
Hertz = NewType("Hertz", float)
#: Power in milliwatts (the paper's Table 1 unit).
Milliwatts = NewType("Milliwatts", float)
#: Integer femtojoules — the exact unit of the per-link energy ledgers.
Femtojoules = NewType("Femtojoules", int)
#: Energy in joules.
Joules = NewType("Joules", float)

#: Hertz in one megahertz.
MHZ = 1.0e6
#: Hertz in one gigahertz.
GHZ = 1.0e9
#: Seconds in one nanosecond.
NS = 1.0e-9
#: Seconds in one microsecond.
US = 1.0e-6
#: Seconds in one millisecond.
MS = 1.0e-3
#: Watts in one milliwatt.
MW = 1.0e-3
#: Joules in one microjoule.
UJ = 1.0e-6
#: Joules in one femtojoule — the integer energy unit of the per-link
#: ledgers (see :class:`~repro.core.dvs_link.DVSChannel`).
FJ = 1.0e-15


def mhz(value: float) -> Hertz:
    """Return *value* megahertz expressed in hertz."""
    return Hertz(value * MHZ)


def ghz(value: float) -> Hertz:
    """Return *value* gigahertz expressed in hertz."""
    return Hertz(value * GHZ)


def microseconds(value: float) -> float:
    """Return *value* microseconds expressed in seconds."""
    return value * US


def milliseconds(value: float) -> float:
    """Return *value* milliseconds expressed in seconds."""
    return value * MS


def milliwatts(value: float) -> float:
    """Return *value* milliwatts expressed in watts."""
    return value * MW


def seconds_to_cycles(duration_s: float, clock_hz: float) -> Cycles:
    """Convert a duration in seconds to whole clock cycles (rounded).

    Raises :class:`ConfigError` for a non-positive clock, which would
    otherwise silently produce nonsense cycle counts.
    """
    if clock_hz <= 0.0:
        raise ConfigError(f"clock frequency must be positive, got {clock_hz!r}")
    if duration_s < 0.0:
        raise ConfigError(f"duration must be non-negative, got {duration_s!r}")
    return Cycles(int(round(duration_s * clock_hz)))


def cycles_to_seconds(cycles: float, clock_hz: float) -> float:
    """Convert a cycle count at *clock_hz* to seconds."""
    if clock_hz <= 0.0:
        raise ConfigError(f"clock frequency must be positive, got {clock_hz!r}")
    return cycles / clock_hz


def joules_to_femtojoules(energy_j: float) -> Femtojoules:
    """Convert *energy_j* joules to integer femtojoules (nearest).

    Each link keeps its energy in integer femtojoule ledgers so sums are
    exact (integer addition commutes; float summation does not). One
    femtojoule resolves the smallest energies in the model by a wide
    margin — a single link cycle at the lowest power point is ~23,600 fJ
    — and Python integers cannot overflow. The conversion is faithful
    for any magnitude this simulator produces: below 2**53 fJ (~9 J)
    every integer femtojoule count is representable, so the conversion
    is exact to the half-ulp of the input float.
    """
    return Femtojoules(round(energy_j / FJ))


def femtojoules_to_joules(energy_fj: int) -> Joules:
    """Convert integer femtojoules back to joules (floating point)."""
    return Joules(energy_fj * FJ)


def bandwidth_bits_per_s(link_hz: float, lanes: int, mux_ratio: int) -> float:
    """Raw channel bandwidth for *lanes* serial links at *link_hz*.

    Each serial link carries ``mux_ratio`` bits per link clock (the paper's
    links use 4:1 multiplexing, i.e. 4 Gb/s at 1 GHz).
    """
    if lanes <= 0 or mux_ratio <= 0:
        raise ConfigError("lanes and mux_ratio must be positive")
    return link_hz * lanes * mux_ratio
