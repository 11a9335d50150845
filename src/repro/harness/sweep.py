"""Injection-rate sweeps and derived summary numbers.

The paper's latency/throughput figures are sweeps of offered load; this
module runs them, pairs DVS against baselines on identical workload seeds,
and computes the paper's summary statistics (zero-load latency increase,
average pre-saturation latency increase, throughput delta, power savings).

Sweeps execute through an :class:`~repro.harness.backends.ExecutionBackend`,
which memoizes per-config results on disk (:mod:`repro.harness.cache`):
re-running a sweep only simulates points whose exact config has never been
run under the current code epoch. Results are bit-identical either way.

Failure semantics: by default a point that fails after retries aborts the
sweep with a structured :class:`~repro.errors.SweepExecutionError`. Pass a
:class:`~repro.harness.resilience.FailureReport` via ``failures=`` to
degrade gracefully instead — failed points are dropped from the returned
lists (each :class:`SweepPoint` carries its ``target_rate``, so gaps are
attributable) and the report says exactly what was lost and what was
recovered. ``resume=True`` asserts the sweep cache is enabled, so a
previously interrupted campaign replays its checkpointed points from disk
and recomputes only the missing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..config import DVSControlConfig, SimulationConfig
from ..errors import ExperimentError
from ..metrics.throughput import saturation_point
from ..network.simulator import SimulationResult
from .backends import ExecutionBackend, default_backend
from .cache import SweepCache, get_cache
from .resilience import FailureReport


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One offered-load point of a sweep."""

    target_rate: float
    offered_rate: float
    accepted_rate: float
    mean_latency: float
    median_latency: float
    normalized_power: float
    savings_factor: float
    transition_count: int

    @classmethod
    def from_result(cls, target_rate: float, result: "SimulationResult") -> "SweepPoint":
        return cls(
            target_rate=target_rate,
            offered_rate=result.offered_rate,
            accepted_rate=result.accepted_rate,
            mean_latency=result.latency.mean,
            median_latency=result.latency.median,
            normalized_power=result.power.normalized,
            savings_factor=result.power.savings_factor,
            transition_count=result.power.transition_count,
        )


def require_resumable_cache() -> SweepCache:
    """The active sweep cache, or a clear error when resume is impossible.

    Resuming replays checkpointed points from the cache journal; with the
    cache disabled there is nothing to resume from, so failing loudly
    beats silently recomputing a whole campaign.
    """
    cache = get_cache()
    if cache is None:
        raise ExperimentError(
            "resume requires the sweep result cache; remove --no-cache / "
            "unset REPRO_CACHE=off"
        )
    return cache


def resume_preview(configs: Iterable[SimulationConfig]) -> tuple[int, int]:
    """``(already_checkpointed, total)`` for a campaign about to (re)run.

    A cheap existence probe (no integrity verification — a quarantined
    entry will still be recomputed when actually loaded), meant for
    upfront "resuming 59/100 points" reporting.
    """
    cache = require_resumable_cache()
    total = 0
    checkpointed = 0
    for config in configs:
        total += 1
        if cache.contains(config):
            checkpointed += 1
    return checkpointed, total


def _sweep_results(
    backend: ExecutionBackend,
    configs: list[SimulationConfig],
    failures: FailureReport | None,
) -> list[SimulationResult | None]:
    """Strict results when *failures* is None, else partial + report merge."""
    if failures is None:
        return list(backend.map_configs(configs))
    results, report = backend.run(configs)
    failures.merge(report)
    return results


def rate_sweep(
    base_config: SimulationConfig,
    rates: Sequence[float],
    *,
    backend: ExecutionBackend | None = None,
    resume: bool = False,
    failures: FailureReport | None = None,
) -> list[SweepPoint]:
    """Run *base_config* at each offered rate in *rates*.

    Execution goes through *backend*
    (:func:`~repro.harness.backends.default_backend` when omitted, which
    honors ``REPRO_PROCESSES``); results are identical regardless of the
    backend chosen. ``resume=True`` requires the sweep cache so an
    interrupted campaign replays its completed points; passing a
    :class:`FailureReport` as *failures* degrades failed points to gaps
    in the returned list instead of raising.
    """
    if backend is None:
        backend = default_backend()
    if resume:
        require_resumable_cache()
    rates = list(rates)
    results = _sweep_results(
        backend, [base_config.with_rate(rate) for rate in rates], failures
    )
    return [
        SweepPoint.from_result(rate, result)
        for rate, result in zip(rates, results, strict=False)
        if result is not None
    ]


def named_sweeps(
    configs: dict[str, SimulationConfig],
    rates: Sequence[float],
    *,
    backend: ExecutionBackend | None = None,
    resume: bool = False,
    failures: FailureReport | None = None,
) -> dict[str, list[SweepPoint]]:
    """Sweep several named base configs over the same rates as ONE batch.

    The whole campaign — ``len(configs) * len(rates)`` points — is
    submitted to *backend* at once, so a process pool parallelizes across
    the named variants and the incremental cache checkpoints cover the
    campaign as a unit. :func:`compare_policies` and the multi-variant
    figure experiments are thin wrappers over this.
    """
    if not configs:
        raise ExperimentError("need at least one named config to sweep")
    if backend is None:
        backend = default_backend()
    if resume:
        require_resumable_cache()
    rates = list(rates)
    results = _sweep_results(
        backend,
        [config.with_rate(rate) for config in configs.values() for rate in rates],
        failures,
    )
    sweeps: dict[str, list[SweepPoint]] = {}
    index = 0
    for name in configs:
        points: list[SweepPoint] = []
        for rate in rates:
            result = results[index]
            index += 1
            if result is not None:
                points.append(SweepPoint.from_result(rate, result))
        sweeps[name] = points
    return sweeps


def compare_policies(
    base_config: SimulationConfig,
    rates: Sequence[float],
    policies: dict[str, DVSControlConfig],
    *,
    backend: ExecutionBackend | None = None,
    resume: bool = False,
    failures: FailureReport | None = None,
) -> dict[str, list[SweepPoint]]:
    """Sweep the same rates (same workload seeds) under several policies.

    All policy sweeps are submitted to *backend* as one flat batch, so a
    process pool sees ``len(policies) * len(rates)`` independent work
    items rather than one batch per policy. ``resume``/``failures`` as in
    :func:`rate_sweep`.
    """
    if not policies:
        raise ExperimentError("need at least one policy to compare")
    return named_sweeps(
        {name: base_config.with_dvs(dvs) for name, dvs in policies.items()},
        rates,
        backend=backend,
        resume=resume,
        failures=failures,
    )


def zero_load_latency(base_config: SimulationConfig, rate: float = 0.05) -> float:
    """Mean latency at a near-zero offered load (paper's reference point).

    The point runs through :func:`~repro.harness.backends.default_backend`,
    so the sweep cache answers and checkpoints it.
    """
    (result,) = default_backend().map_configs([base_config.with_rate(rate)])
    if result.latency.count == 0:
        raise ExperimentError("no packets completed at the zero-load rate")
    return result.latency.mean


@dataclass(frozen=True, slots=True)
class SweepComparison:
    """Paper-style summary of a DVS sweep against a baseline sweep."""

    zero_load_increase: float
    average_presaturation_increase: float
    throughput_change: float
    max_savings: float
    average_savings: float

    def describe(self) -> str:
        return (
            f"zero-load latency {self.zero_load_increase:+.1%}, "
            f"pre-saturation latency {self.average_presaturation_increase:+.1%}, "
            f"throughput {self.throughput_change:+.1%}, "
            f"power savings up to {self.max_savings:.1f}X "
            f"({self.average_savings:.1f}X average)"
        )


def summarize_comparison(
    baseline: list[SweepPoint], dvs: list[SweepPoint]
) -> SweepComparison:
    """Compute the paper's headline numbers from paired sweeps.

    Pre-saturation points are those where the *baseline* latency is below
    twice its zero-load (first-point) latency, following the paper's
    saturation rule; savings statistics use the same points.
    """
    if len(baseline) != len(dvs) or not baseline:
        raise ExperimentError("sweeps must be non-empty and aligned")
    zero_base = baseline[0].mean_latency
    zero_dvs = dvs[0].mean_latency
    if not zero_base or math.isnan(zero_base) or math.isnan(zero_dvs):
        raise ExperimentError("zero-load points did not produce latencies")

    saturated_at = saturation_point(
        [p.offered_rate for p in baseline],
        [p.mean_latency for p in baseline],
        zero_base,
    )
    pre = slice(0, saturated_at if saturated_at > 0 else len(baseline))
    base_pre = baseline[pre]
    dvs_pre = dvs[pre]
    increases = [
        d.mean_latency / b.mean_latency - 1.0
        for b, d in zip(base_pre, dvs_pre, strict=False)
        if not math.isnan(b.mean_latency) and not math.isnan(d.mean_latency)
    ]
    if not increases:
        raise ExperimentError("no pre-saturation points with latencies")
    savings = [p.savings_factor for p in dvs_pre]

    return SweepComparison(
        zero_load_increase=zero_dvs / zero_base - 1.0,
        average_presaturation_increase=sum(increases) / len(increases),
        throughput_change=(
            max(p.accepted_rate for p in dvs)
            / max(p.accepted_rate for p in baseline)
            - 1.0
        ),
        max_savings=max(savings),
        average_savings=sum(savings) / len(savings),
    )
