"""Cross-scale consistency validation.

A reproduction whose conclusions flip between scale presets would be
worthless; this module runs the same compact comparison (DVS vs non-DVS
at a few rates) at two scales and checks that the *shape* conclusions
agree:

* DVS saves substantial power at both scales;
* the savings ordering across rates matches (lighter load saves more);
* DVS costs latency at both scales;
* throughput loss stays bounded at both scales.

Used by tests (smoke vs a shrunken default) and available to users who
define custom scales. Returns a structured report rather than asserting,
so callers choose their own strictness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExperimentError
from .scales import ExperimentScale
from .sweep import SweepPoint, compare_dvs


@dataclass(frozen=True, slots=True)
class ScaleObservation:
    """Shape observables of one scale's comparison run."""

    scale_name: str
    savings_by_rate: tuple[float, ...]
    latency_ratio_by_rate: tuple[float, ...]
    throughput_change: float

    @property
    def savings_decrease_with_load(self) -> bool:
        return self.savings_by_rate[0] >= self.savings_by_rate[-1] * 0.8

    @property
    def dvs_costs_latency(self) -> bool:
        return all(ratio > 1.0 for ratio in self.latency_ratio_by_rate)


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Agreement between two scales' shape observables."""

    first: ScaleObservation
    second: ScaleObservation

    @property
    def consistent(self) -> bool:
        return not self.disagreements()

    def disagreements(self) -> list[str]:
        problems = []
        for observation in (self.first, self.second):
            if min(observation.savings_by_rate) < 1.2:
                problems.append(
                    f"{observation.scale_name}: DVS saves under 1.2X somewhere"
                )
            if not observation.dvs_costs_latency:
                problems.append(
                    f"{observation.scale_name}: DVS shows no latency cost"
                )
            if observation.throughput_change < -0.25:
                problems.append(
                    f"{observation.scale_name}: throughput loss exceeds 25%"
                )
        if (
            self.first.savings_decrease_with_load
            != self.second.savings_decrease_with_load
        ):
            problems.append("scales disagree on savings-vs-load trend")
        return problems


def observe_scale(
    scale: ExperimentScale, rates: tuple[float, ...] | None = None
) -> ScaleObservation:
    """Run the compact comparison at *scale* and extract shape observables."""
    rates = rates if rates is not None else (scale.sweep_rates[0], scale.sweep_rates[-1])
    if len(rates) < 2:
        raise ExperimentError("need at least two rates to observe a trend")
    comparison = compare_dvs(scale.simulation(rates[0]), rates)
    baseline, dvs = comparison.baseline, comparison.dvs
    _check_latencies(baseline)
    _check_latencies(dvs)
    return ScaleObservation(
        scale_name=scale.name,
        savings_by_rate=tuple(point.savings_factor for point in dvs),
        latency_ratio_by_rate=tuple(
            d.mean_latency / b.mean_latency for b, d in zip(baseline, dvs, strict=True)
        ),
        throughput_change=comparison.summary().throughput_change,
    )


def _check_latencies(points: list[SweepPoint]) -> None:
    for point in points:
        if point.mean_latency != point.mean_latency:  # NaN
            raise ExperimentError(
                f"no packets completed at rate {point.target_rate}; "
                "choose lower validation rates"
            )


def validate_scales(
    first: ExperimentScale,
    second: ExperimentScale,
    rates: tuple[float, ...] | None = None,
) -> ValidationReport:
    """Compare the shape observables of two scales."""
    return ValidationReport(
        first=observe_scale(first, rates),
        second=observe_scale(second, rates),
    )
