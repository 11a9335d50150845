"""Cross-policy power-vs-latency Pareto frontier explorer.

The paper's Figs 13–15 trade power against latency along the threshold
dial of a single policy. With the policy registry the same question
generalizes: *across every registered policy and its declared knob grid,
which operating points are non-dominated?* This module runs that
campaign and answers it with per-point provenance.

The campaign is one :func:`~repro.harness.sweep.named_sweeps` batch, one
base config per (policy, knob assignment), so it inherits everything
sweeps already have: bit-identical Serial/ProcessPool results,
content-addressed incremental checkpoints (an interrupted campaign
re-run replays them), retries and ``failures=`` degradation. Each
resulting :class:`ParetoPoint` records the policy name, the exact knob
assignment, the registry display label and the SHA-256 of the config
fingerprint (the cache's content address), so any point on the frontier
can be traced back to — and re-run from — its precise configuration.

Frontiers are computed *within* each target rate: points at different
offered loads answer different questions and are never compared.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

from ..config import SimulationConfig
from ..core.registry import policy_label, policy_sweep_grid, registered_policies
from ..errors import ExperimentError
from .backends import ExecutionBackend
from .resilience import FailureReport
from .serialization import write_json
from .sweep import named_sweeps


@dataclass(frozen=True, slots=True)
class ParetoPoint:
    """One (policy, knob assignment, offered load) operating point.

    ``fingerprint_sha256`` is the SHA-256 of the underlying config's
    canonical fingerprint — the same content the sweep cache keys on —
    so a frontier point names the exact simulation that produced it.
    """

    policy: str
    label: str
    params: dict[str, float]
    target_rate: float
    offered_rate: float
    accepted_rate: float
    mean_latency: float
    median_latency: float
    normalized_power: float
    savings_factor: float
    transition_count: int
    fingerprint_sha256: str
    on_frontier: bool = False


def pareto_grid(
    policies: Sequence[str] | None = None,
    *,
    grid_overrides: Mapping[str, Sequence[Mapping[str, float]]] | None = None,
) -> list[tuple[str, dict[str, float]]]:
    """The campaign's (policy, knob assignment) list, in declaration order.

    *policies* defaults to every registered policy. Each policy
    contributes the cartesian product of its knobs' declared ``sweep``
    values (a knob-free or sweep-free policy contributes its single
    default assignment); *grid_overrides* replaces the declared grid for
    the named policies.
    """
    names: Sequence[str] = (
        registered_policies() if policies is None else tuple(policies)
    )
    grid: list[tuple[str, dict[str, float]]] = []
    for name in names:
        if grid_overrides is not None and name in grid_overrides:
            assignments = [dict(a) for a in grid_overrides[name]]
        else:
            assignments = policy_sweep_grid(name)
        for assignment in assignments:
            grid.append((name, assignment))
    return grid


def _grid_bases(
    base_config: SimulationConfig,
    rates: Sequence[float],
    policies: Sequence[str] | None,
    grid_overrides: Mapping[str, Sequence[Mapping[str, float]]] | None,
) -> tuple[list[tuple[str, dict[str, float]]], dict[str, SimulationConfig]]:
    """The campaign's grid and one base config per entry, keyed by index."""
    if not rates:
        raise ExperimentError("need at least one offered rate")
    grid = pareto_grid(policies, grid_overrides=grid_overrides)
    if not grid:
        raise ExperimentError("need at least one policy to explore")
    bases = {
        str(index): base_config.with_dvs(
            replace(base_config.dvs, policy=policy, params=dict(assignment))
        )
        for index, (policy, assignment) in enumerate(grid)
    }
    return grid, bases


def pareto_configs(
    base_config: SimulationConfig,
    rates: Sequence[float],
    policies: Sequence[str] | None = None,
    *,
    grid_overrides: Mapping[str, Sequence[Mapping[str, float]]] | None = None,
) -> tuple[list[tuple[str, dict[str, float]]], list[SimulationConfig]]:
    """The campaign's grid and its flat config batch, in run order.

    The batch is grid-outer / rates-inner, matching :func:`run_pareto`
    exactly, so callers can preview cache state
    (:func:`~repro.harness.sweep.resume_preview`) for the same configs a
    subsequent run would execute.
    """
    grid, bases = _grid_bases(base_config, rates, policies, grid_overrides)
    return grid, [base.with_rate(rate) for base in bases.values() for rate in rates]


def run_pareto(
    base_config: SimulationConfig,
    rates: Sequence[float],
    policies: Sequence[str] | None = None,
    *,
    backend: ExecutionBackend | None = None,
    failures: FailureReport | None = None,
    grid_overrides: Mapping[str, Sequence[Mapping[str, float]]] | None = None,
) -> list[ParetoPoint]:
    """Sweep every policy's knob grid over *rates* and mark the frontier.

    All points run as ONE :func:`~repro.harness.sweep.named_sweeps`
    campaign through *backend*, so a process pool parallelizes across
    policies, assignments and rates at once and the incremental cache
    checkpoints the campaign as a unit. ``failures`` as there; failed
    points become gaps (attributable via the returned points' provenance
    fields).
    """
    grid, bases = _grid_bases(base_config, rates, policies, grid_overrides)
    sweeps = named_sweeps(bases, rates, backend=backend, failures=failures)
    return mark_frontier(
        [
            ParetoPoint(
                policy=policy,
                label=policy_label(base.dvs),
                params=dict(assignment),
                fingerprint_sha256=hashlib.sha256(
                    base.with_rate(point.target_rate).fingerprint().encode("utf-8")
                ).hexdigest(),
                **asdict(point),
            )
            for (policy, assignment), (key, base) in zip(grid, bases.items(), strict=True)
            for point in sweeps[key]
        ]
    )


def _dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """Whether *a* is at least as good as *b* on both axes, better on one."""
    if a.normalized_power > b.normalized_power or a.mean_latency > b.mean_latency:
        return False
    return (
        a.normalized_power < b.normalized_power or a.mean_latency < b.mean_latency
    )


def mark_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Set ``on_frontier`` per target rate, minimizing (power, latency).

    Points whose latency is NaN (no packets completed) never join the
    frontier. Input order is preserved.
    """
    valid = [
        p for p in points if p.mean_latency == p.mean_latency  # NaN check
    ]
    frontier_ids: set[int] = set()
    for candidate in valid:
        dominated = any(
            other is not candidate
            and other.target_rate == candidate.target_rate
            and _dominates(other, candidate)
            for other in valid
        )
        if not dominated:
            frontier_ids.add(id(candidate))
    return [replace(p, on_frontier=id(p) in frontier_ids) for p in points]


def frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Only the non-dominated points, in input order."""
    return [p for p in points if p.on_frontier]


#: Column order shared by the CSV artifact and tabular rendering.
PARETO_COLUMNS: tuple[str, ...] = (
    "policy",
    "label",
    "params",
    "target_rate",
    "offered_rate",
    "accepted_rate",
    "mean_latency",
    "median_latency",
    "normalized_power",
    "savings_factor",
    "transition_count",
    "on_frontier",
    "fingerprint_sha256",
)


def _render_params(params: Mapping[str, float]) -> str:
    return ";".join(f"{k}={params[k]:g}" for k in sorted(params))


def write_pareto_json(points: Sequence[ParetoPoint], path: str) -> None:
    """Write the campaign as a JSON artifact with per-point provenance."""
    write_json(
        {
            "columns": list(PARETO_COLUMNS),
            "points": list(points),
            "frontier_labels": [
                f"{p.label} @ {p.target_rate:g}" for p in frontier(points)
            ],
        },
        path,
    )


def write_pareto_csv(points: Sequence[ParetoPoint], path: str) -> None:
    """Write the campaign as a flat CSV (one row per point)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PARETO_COLUMNS)
        for p in points:
            writer.writerow(
                [
                    p.policy,
                    p.label,
                    _render_params(p.params),
                    p.target_rate,
                    p.offered_rate,
                    p.accepted_rate,
                    p.mean_latency,
                    p.median_latency,
                    p.normalized_power,
                    p.savings_factor,
                    p.transition_count,
                    int(p.on_frontier),
                    p.fingerprint_sha256,
                ]
            )
