"""Injection-rate sweeps and derived summary numbers.

The paper's latency/throughput figures are sweeps of offered load; this
module runs them, pairs DVS against baselines on identical workload seeds,
and computes the paper's summary statistics (zero-load latency increase,
average pre-saturation latency increase, throughput delta, power savings).
:func:`named_sweeps` is the one campaign path: every sweep, figure and the
Pareto explorer (:mod:`repro.harness.pareto`) expands its base configs x
rates, runs and folds them there. :func:`compare_dvs` is the paper's one
comparison, history-based DVS against links pinned at full speed.

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
recovered. With the cache enabled, re-running an interrupted campaign
replays its checkpointed points from disk and recomputes only the missing
ones; :func:`require_resumable_cache` and :func:`resume_preview` are what
the CLI's ``--resume`` checks and reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..config import DVSControlConfig, SimulationConfig
from ..core.registry import policy_label
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


def rate_sweep(
    base_config: SimulationConfig,
    rates: Sequence[float],
    *,
    backend: ExecutionBackend | None = None,
    failures: FailureReport | None = None,
) -> list[SweepPoint]:
    """Run *base_config* at each offered rate in *rates*.

    One :func:`named_sweeps` campaign of one base config; *backend* and
    *failures* as there.
    """
    return named_sweeps({"": base_config}, rates, backend=backend, failures=failures)[""]


def named_sweeps(
    configs: dict[str, SimulationConfig],
    rates: Sequence[float],
    *,
    backend: ExecutionBackend | None = None,
    failures: FailureReport | None = None,
) -> dict[str, list[SweepPoint]]:
    """Sweep several named base configs over the same rates as ONE batch.

    The whole campaign — ``len(configs) * len(rates)`` points — is
    submitted to *backend* (:func:`~repro.harness.backends.default_backend`
    when omitted, which honors ``REPRO_PROCESSES``) at once, so a process
    pool parallelizes across the named variants and the incremental cache
    checkpoints cover the campaign as a unit. Results are identical
    whatever the backend. Without *failures* a lost point raises; with a
    :class:`FailureReport` it is merged there and leaves a gap in its
    name's list.
    """
    if not configs:
        raise ExperimentError("need at least one named config to sweep")
    if backend is None:
        backend = default_backend()
    rates = list(rates)
    batch = [config.with_rate(rate) for config in configs.values() for rate in rates]
    results: list[SimulationResult | None]
    if failures is None:
        results = list(backend.map_configs(batch))
    else:
        results, report = backend.run(batch)
        failures.merge(report)
    count = len(rates)
    return {
        name: [
            SweepPoint.from_result(rate, result)
            for rate, result in zip(
                rates, results[index * count:(index + 1) * count], strict=True
            )
            if result is not None
        ]
        for index, name in enumerate(configs)
    }


def compare_policies(
    base_config: SimulationConfig,
    rates: Sequence[float],
    policies: dict[str, DVSControlConfig],
    *,
    backend: ExecutionBackend | None = None,
    failures: FailureReport | None = None,
) -> dict[str, list[SweepPoint]]:
    """Sweep the same rates (same workload seeds) under several policies.

    All policy sweeps are submitted to *backend* as one flat batch, so a
    process pool sees ``len(policies) * len(rates)`` independent work
    items rather than one batch per policy. ``failures`` as in
    :func:`named_sweeps`.
    """
    if not policies:
        raise ExperimentError("need at least one policy to compare")
    return named_sweeps(
        {name: base_config.with_dvs(dvs) for name, dvs in policies.items()},
        rates,
        backend=backend,
        failures=failures,
    )


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


def dvs_bases(base_config: SimulationConfig) -> dict[str, SimulationConfig]:
    """*base_config* with links pinned at full speed and under history DVS.

    Keyed by registry display label (``none`` and ``history`` at the
    paper's defaults), baseline first. These are the two curves
    :func:`compare_dvs` sweeps; a ``--resume`` preview expands the same
    configs.
    """
    return {
        policy_label(dvs): base_config.with_dvs(dvs)
        for dvs in (DVSControlConfig(policy="none"), DVSControlConfig(policy="history"))
    }


@dataclass(frozen=True, slots=True)
class DVSComparison:
    """History DVS against the no-DVS baseline, paired by target rate.

    ``baseline[i]`` and ``dvs[i]`` share a target rate and workload seed.
    """

    baseline_name: str
    dvs_name: str
    baseline: list[SweepPoint]
    dvs: list[SweepPoint]

    def summary(self) -> SweepComparison:
        """The paper's headline numbers (:func:`summarize_comparison`)."""
        return summarize_comparison(self.baseline, self.dvs)


def compare_dvs(
    base_config: SimulationConfig,
    rates: Sequence[float],
    *,
    backend: ExecutionBackend | None = None,
    failures: FailureReport | None = None,
) -> DVSComparison:
    """Sweep :func:`dvs_bases` of *base_config* over *rates* as one campaign.

    *backend* and *failures* as in :func:`named_sweeps`. With *failures*,
    a point lost in one sweep drops its rate from both, so the pairs stay
    aligned.
    """
    bases = dvs_bases(base_config)
    baseline_name, dvs_name = bases
    sweeps = named_sweeps(bases, rates, backend=backend, failures=failures)
    dvs_by_rate = {point.target_rate: point for point in sweeps[dvs_name]}
    baseline = [p for p in sweeps[baseline_name] if p.target_rate in dvs_by_rate]
    return DVSComparison(
        baseline_name,
        dvs_name,
        baseline,
        [dvs_by_rate[p.target_rate] for p in baseline],
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
