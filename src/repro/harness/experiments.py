"""Per-figure experiment functions (paper Section 4).

Each function regenerates one table or figure of the paper at a chosen
:class:`~repro.harness.scales.ExperimentScale` and returns a
:class:`FigureResult` whose rows mirror what the paper plots. Benchmarks in
``benchmarks/`` call these and print the rendered tables; EXPERIMENTS.md
records paper-vs-measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DVSControlConfig, SimulationConfig
from ..core.registry import policy_label
from ..core.thresholds import TABLE2_SETTINGS
from ..errors import ExperimentError
from ..network.topology import Topology
from ..power.router_power import RouterPowerProfile
from ..traffic.base import make_traffic
from .backends import default_backend
from .runner import build_simulator
from .scales import DEFAULT_SCALE, ExperimentScale
from .sweep import (
    SweepPoint,
    compare_policies,
    named_sweeps,
    rate_sweep,
    summarize_comparison,
)
from .tables import render_table


@dataclass(slots=True)
class FigureResult:
    """One reproduced table/figure: labelled rows plus free-form extras."""

    figure: str
    description: str
    columns: list[str]
    rows: list[tuple]
    extras: dict = field(default_factory=dict)

    def render(self) -> str:
        return render_table(
            self.columns, self.rows, title=f"{self.figure}: {self.description}"
        )


# ---------------------------------------------------------------------------
# Figures 3-5: utilization profiles
# ---------------------------------------------------------------------------


def utilization_profiles(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    loads: tuple[float, ...] = (0.2, 0.8, 1.6, 3.0),
    probe_window: int = 50,
    bins: int = 10,
) -> dict[float, dict]:
    """Profile LU / BU / BA of the busiest link as load increases.

    Matches the paper's methodology (Section 3.1): links run at full speed
    (no DVS) while probes sample every 50 cycles, and the reported profile
    is that of the single most-utilized channel — the paper "tracks the
    utilization of a link", necessarily one that carries traffic, and our
    flow-based task workload leaves arbitrary fixed links idle. The
    highest load should sit well past saturation so Figure 3(d)'s
    utilization dip (stalls behind full downstream buffers) is visible.
    """
    profiles: dict[float, dict] = {}
    for load in loads:
        config = scale.simulation(load, policy="none")
        simulator = build_simulator(config)
        probes = [
            simulator.attach_probe(
                spec.src_node, spec.src_port, window_cycles=probe_window
            )
            for spec in simulator.topology.channels
        ]
        simulator.run_cycles(config.warmup_cycles)
        simulator.begin_measurement()
        simulator.run_cycles(config.measure_cycles)
        result = simulator.finish()

        # The paper profiles one link *and* the input buffers downstream of
        # it; score by LU + BU so the tracked link is both busy and, at
        # congesting loads, backed up (a pure-LU pick finds the congestion
        # tree's root, whose downstream drains freely).
        tracked = max(probes, key=lambda p: p.mean_lu() + p.mean_bu())
        active = [p.mean_lu() for p in probes if p.mean_lu() > 0.0]
        profiles[load] = {
            "lu_histogram": tracked.lu_histogram(bins),
            "bu_histogram": tracked.bu_histogram(bins),
            "age_histogram": tracked.age_histogram(bins),
            "mean_lu": tracked.mean_lu(),
            "mean_bu": tracked.mean_bu(),
            "mean_age": tracked.mean_age(),
            # Mean LU over channels that carried any traffic: the Figure
            # 3(d) dip is clearest here — links upstream of congested
            # routers stall behind exhausted credits and their LU falls.
            "network_mean_lu": sum(active) / len(active) if active else 0.0,
            "accepted_rate": result.accepted_rate,
            "mean_latency": result.latency.mean,
        }
    return profiles


def _profile_figure(
    figure: str, description: str, key: str, mean_key: str, profiles: dict
) -> FigureResult:
    columns = ["load", "mean", *[f"bin{i}" for i in range(10)]]
    rows = []
    for load, profile in profiles.items():
        histogram = profile[key]
        rows.append(
            (load, profile[mean_key], *[round(f, 4) for f in histogram.frequencies()])
        )
    return FigureResult(figure, description, columns, rows, extras={"profiles": profiles})


def fig3_link_utilization_profile(
    scale: ExperimentScale = DEFAULT_SCALE, **kwargs: object
) -> FigureResult:
    """Figure 3: link utilization rises with load, then dips at congestion."""
    profiles = utilization_profiles(scale, **kwargs)
    return _profile_figure(
        "Figure 3", "link utilization profile", "lu_histogram", "mean_lu", profiles
    )


def fig4_buffer_utilization_profile(
    scale: ExperimentScale = DEFAULT_SCALE, **kwargs: object
) -> FigureResult:
    """Figure 4: input-buffer utilization acts as a congestion indicator."""
    profiles = utilization_profiles(scale, **kwargs)
    return _profile_figure(
        "Figure 4", "input buffer utilization profile", "bu_histogram", "mean_bu", profiles
    )


def fig5_buffer_age_profile(
    scale: ExperimentScale = DEFAULT_SCALE, **kwargs: object
) -> FigureResult:
    """Figure 5: input-buffer age mirrors buffer utilization."""
    profiles = utilization_profiles(scale, **kwargs)
    return _profile_figure(
        "Figure 5", "input buffer age profile", "age_histogram", "mean_age", profiles
    )


# ---------------------------------------------------------------------------
# Figure 7: router power distribution
# ---------------------------------------------------------------------------


def fig7_router_power_distribution(scale: ExperimentScale | None = None) -> FigureResult:
    """Figure 7: links dominate router power (82.4% at the paper's anchors).

    The breakdown is an analytical property of the router power profile,
    so *scale* is accepted for CLI uniformity but has no effect.
    """
    profile = RouterPowerProfile()
    fractions = profile.breakdown_fractions()
    watts = profile.breakdown_w()
    rows = [
        (name, round(watts[name], 4), round(fraction, 4))
        for name, fraction in sorted(fractions.items(), key=lambda kv: -kv[1])
    ]
    return FigureResult(
        "Figure 7",
        "router power consumption distribution",
        ["component", "power_w", "fraction"],
        rows,
        extras={"profile": profile},
    )


# ---------------------------------------------------------------------------
# Figures 8-9: workload variance snapshots
# ---------------------------------------------------------------------------


def fig8_spatial_variance(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    injection_rate: float = 1.0,
    snapshot_cycles: int = 5_000,
) -> FigureResult:
    """Figure 8: per-node injected load over a snapshot window."""
    topology = Topology(scale.radix, 2)
    workload = make_traffic(topology, scale.workload(injection_rate))
    counts = [0] * topology.node_count
    for now in range(snapshot_cycles):
        for src, _dst in workload.injections(now):
            counts[src] += 1
    rows = []
    for y in range(scale.radix):
        row = tuple(
            counts[topology.node_at((x, y))] / snapshot_cycles
            for x in range(scale.radix)
        )
        rows.append((y, *[round(v, 4) for v in row]))
    mean = sum(counts) / len(counts) / snapshot_cycles
    variance = sum(
        (c / snapshot_cycles - mean) ** 2 for c in counts
    ) / len(counts)
    return FigureResult(
        "Figure 8",
        "spatial variance of the injected workload (packets/cycle per node)",
        ["y", *[f"x{x}" for x in range(scale.radix)]],
        rows,
        extras={"mean": mean, "variance": variance, "counts": counts},
    )


def fig9_temporal_variance(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    injection_rate: float = 1.0,
    window: int = 500,
    windows: int = 60,
    node: int | None = None,
) -> FigureResult:
    """Figure 9: injected load at one router over time (bursty series).

    Task sessions pin flows to specific nodes, so an arbitrary fixed node
    may inject nothing over a short horizon; unless a node is given, the
    per-node series are collected for everyone and the busiest node's
    series is reported (the paper necessarily plots a router with
    traffic).
    """
    topology = Topology(scale.radix, 2)
    workload = make_traffic(topology, scale.workload(injection_rate))
    per_node = [[0] * windows for _ in range(topology.node_count)]
    for now in range(window * windows):
        index = now // window
        for src, _dst in workload.injections(now):
            per_node[src][index] += 1
    if node is None:
        node = max(range(topology.node_count), key=lambda n: sum(per_node[n]))
    series = [count / window for count in per_node[node]]
    mean = sum(series) / len(series)
    variance = sum((v - mean) ** 2 for v in series) / max(1, len(series) - 1)
    rows = [(i * window, round(v, 5)) for i, v in enumerate(series)]
    return FigureResult(
        "Figure 9",
        f"temporal variance of injected load at node {node}",
        ["cycle", "packets_per_cycle"],
        rows,
        extras={"mean": mean, "variance": variance, "node": node},
    )


# ---------------------------------------------------------------------------
# Figures 10-11: DVS vs non-DVS latency/throughput/power sweeps
# ---------------------------------------------------------------------------


def _dvs_comparison(
    scale: ExperimentScale,
    tasks: int,
    figure: str,
    rates: tuple[float, ...] | None = None,
) -> FigureResult:
    rates = rates if rates is not None else scale.sweep_rates
    base = scale.simulation(rates[0], workload_overrides={"average_tasks": tasks})
    baseline_dvs = DVSControlConfig(policy="none")
    history_dvs = DVSControlConfig(policy="history")
    # Column labels come from the registry so knob overrides (or swapped-in
    # plugin policies) relabel the figure automatically. The paper's
    # defaults render as "none" / "history".
    baseline_name = policy_label(baseline_dvs)
    dvs_name = policy_label(history_dvs)
    sweeps = compare_policies(
        base,
        rates,
        {baseline_name: baseline_dvs, dvs_name: history_dvs},
    )
    baseline, dvs = sweeps[baseline_name], sweeps[dvs_name]
    summary = summarize_comparison(baseline, dvs)
    rows = [
        (
            b.target_rate,
            round(b.offered_rate, 3),
            round(b.mean_latency, 1),
            round(d.mean_latency, 1),
            round(b.accepted_rate, 3),
            round(d.accepted_rate, 3),
            round(d.normalized_power, 3),
            round(d.savings_factor, 2),
        )
        for b, d in zip(baseline, dvs, strict=False)
    ]
    return FigureResult(
        figure,
        f"{dvs_name}-policy DVS vs non-DVS, {tasks} tasks",
        [
            "rate",
            "offered",
            f"lat_{baseline_name}",
            f"lat_{dvs_name}",
            f"acc_{baseline_name}",
            f"acc_{dvs_name}",
            "norm_power",
            "savings",
        ],
        rows,
        extras={"summary": summary, "baseline": baseline, "dvs": dvs},
    )


def fig10_dvs_vs_nodvs(
    scale: ExperimentScale = DEFAULT_SCALE, rates: tuple[float, ...] | None = None
) -> FigureResult:
    """Figure 10: latency/throughput and normalized power, 100 tasks."""
    return _dvs_comparison(scale, 100, "Figure 10", rates)


def fig11_dvs_vs_nodvs_50tasks(
    scale: ExperimentScale = DEFAULT_SCALE, rates: tuple[float, ...] | None = None
) -> FigureResult:
    """Figure 11: same comparison with 50 tasks (more imbalanced traffic)."""
    return _dvs_comparison(scale, 50, "Figure 11", rates)


def headline_summary(scale: ExperimentScale = DEFAULT_SCALE) -> FigureResult:
    """The paper's abstract numbers, recomputed from the Figure 10 sweep."""
    fig10 = fig10_dvs_vs_nodvs(scale)
    summary = fig10.extras["summary"]
    rows = [
        ("max power savings (X)", 6.3, round(summary.max_savings, 2)),
        ("avg power savings (X)", 4.6, round(summary.average_savings, 2)),
        ("zero-load latency increase", 0.108, round(summary.zero_load_increase, 3)),
        (
            "avg pre-saturation latency increase",
            0.152,
            round(summary.average_presaturation_increase, 3),
        ),
        ("throughput change", -0.025, round(summary.throughput_change, 3)),
    ]
    return FigureResult(
        "Headline",
        "paper abstract vs measured (100-task workload)",
        ["metric", "paper", "measured"],
        rows,
        extras={"summary": summary, "fig10": fig10},
    )


# ---------------------------------------------------------------------------
# Figure 12: power and throughput beyond saturation
# ---------------------------------------------------------------------------


def fig12_congestion_power(
    scale: ExperimentScale = DEFAULT_SCALE,
    rates: tuple[float, ...] = (0.5, 1.0, 2.0, 3.5, 5.0, 7.0),
) -> FigureResult:
    """Figure 12: network power rises with throughput, then dips when the
    whole network congests and link utilization collapses."""
    base = scale.simulation(rates[0], workload_overrides={"average_tasks": 100})
    points = rate_sweep(base, rates)
    rows = [
        (
            p.target_rate,
            round(p.offered_rate, 3),
            round(p.accepted_rate, 3),
            round(p.normalized_power, 3),
        )
        for p in points
    ]
    return FigureResult(
        "Figure 12",
        "power and throughput under deepening congestion (history DVS)",
        ["rate", "offered", "throughput", "norm_power"],
        rows,
        extras={"points": points},
    )


# ---------------------------------------------------------------------------
# Table 2 / Figures 13-15: threshold trade-off study
# ---------------------------------------------------------------------------


def threshold_sweeps(
    scale: ExperimentScale = DEFAULT_SCALE,
    rates: tuple[float, ...] | None = None,
    settings: dict | None = None,
) -> dict[str, list[SweepPoint]]:
    """Sweep rates under each Table 2 threshold setting."""
    rates = rates if rates is not None else scale.sweep_rates
    settings = settings if settings is not None else TABLE2_SETTINGS
    base = scale.simulation(rates[0], workload_overrides={"average_tasks": 100})
    policies = {
        name: DVSControlConfig(policy="history", thresholds=thresholds)
        for name, thresholds in settings.items()
    }
    return compare_policies(base, rates, policies)


def fig13_threshold_latency(
    scale: ExperimentScale = DEFAULT_SCALE,
    sweeps: dict[str, list[SweepPoint]] | None = None,
) -> FigureResult:
    """Figure 13: latency profile under threshold settings I-VI."""
    sweeps = sweeps if sweeps is not None else threshold_sweeps(scale)
    names = list(sweeps)
    rates = [p.target_rate for p in next(iter(sweeps.values()))]
    rows = [
        (rate, *[round(sweeps[name][i].mean_latency, 1) for name in names])
        for i, rate in enumerate(rates)
    ]
    return FigureResult(
        "Figure 13",
        "latency under DVS threshold settings (Table 2)",
        ["rate", *names],
        rows,
        extras={"sweeps": sweeps},
    )


def fig14_threshold_power(
    scale: ExperimentScale = DEFAULT_SCALE,
    sweeps: dict[str, list[SweepPoint]] | None = None,
) -> FigureResult:
    """Figure 14: power consumption under threshold settings I-VI."""
    sweeps = sweeps if sweeps is not None else threshold_sweeps(scale)
    names = list(sweeps)
    rates = [p.target_rate for p in next(iter(sweeps.values()))]
    rows = [
        (rate, *[round(sweeps[name][i].normalized_power, 3) for name in names])
        for i, rate in enumerate(rates)
    ]
    return FigureResult(
        "Figure 14",
        "normalized power under DVS threshold settings (Table 2)",
        ["rate", *names],
        rows,
        extras={"sweeps": sweeps},
    )


def fig15_pareto_curve(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    rate: float = 1.7,
    settings: dict | None = None,
) -> FigureResult:
    """Figure 15: latency vs power savings across thresholds at one rate."""
    settings = settings if settings is not None else TABLE2_SETTINGS
    results = default_backend().map_configs(
        scale.simulation(
            rate,
            dvs=DVSControlConfig(policy="history", thresholds=thresholds),
            workload_overrides={"average_tasks": 100},
        )
        for thresholds in settings.values()
    )
    rows = []
    points = {}
    for (name, thresholds), result in zip(settings.items(), results, strict=True):
        points[name] = result
        rows.append(
            (
                name,
                thresholds.low_uncongested,
                thresholds.high_uncongested,
                round(result.latency.mean, 1),
                round(result.power.savings_factor, 2),
            )
        )
    return FigureResult(
        "Figure 15",
        f"latency vs dynamic power savings at {rate} packets/cycle",
        ["setting", "TL_low", "TL_high", "latency", "savings"],
        rows,
        extras={"points": points},
    )


# ---------------------------------------------------------------------------
# Figures 16-17: transition-rate sensitivity
# ---------------------------------------------------------------------------


def _transition_sweep(
    scale: ExperimentScale,
    figure: str,
    description: str,
    curves: dict[str, dict],
    task_duration_s: float,
    rates: tuple[float, ...],
) -> FigureResult:
    """Shared machinery for Figures 16 and 17: one curve per link variant.

    All curves run as ONE batched campaign (:func:`named_sweeps`), so a
    process pool parallelizes across variants and the sweep cache
    checkpoints the whole figure incrementally.
    """
    named: dict[str, SimulationConfig] = {}
    for name, link_overrides in curves.items():
        if link_overrides is None:  # the non-DVS reference curve
            named[name] = scale.simulation(
                rates[0],
                policy="none",
                workload_overrides={
                    "average_tasks": 100,
                    "average_task_duration_s": task_duration_s,
                },
            )
        else:
            named[name] = scale.simulation(
                rates[0],
                workload_overrides={
                    "average_tasks": 100,
                    "average_task_duration_s": task_duration_s,
                },
                link_overrides=link_overrides,
            )
    sweeps = named_sweeps(named, rates)
    names = list(sweeps)
    rows = [
        (
            rate,
            *[round(sweeps[name][i].mean_latency, 1) for name in names],
            *[round(sweeps[name][i].accepted_rate, 3) for name in names],
        )
        for i, rate in enumerate(rates)
    ]
    return FigureResult(
        figure,
        description,
        ["rate", *[f"lat:{n}" for n in names], *[f"acc:{n}" for n in names]],
        rows,
        extras={"sweeps": sweeps, "task_duration_s": task_duration_s},
    )


def fig16_voltage_transition_sweep(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    panel: str = "a",
    rates: tuple[float, ...] | None = None,
) -> FigureResult:
    """Figure 16: sensitivity to voltage transition delay.

    Panels match the paper: a/c use long tasks, b/d short tasks; a/b the
    slow 100-link-cycle frequency lock, c/d the fast 10-cycle one.
    Voltage transition delays span a 10:1 range below the scale preset's
    baseline ramp.
    """
    # (task duration multiplier, absolute frequency lock in link cycles).
    # The lock times are the paper's own 100/10 regardless of scale: the
    # panel-(a) pathology — faster voltage ramps hurting latency — exists
    # only when the dead frequency-lock time is a large share of each
    # transition, which is a ratio the scale presets must not shrink away.
    panels = {
        "a": (1.0, 100),
        "b": (0.1, 100),
        "c": (1.0, 10),
        "d": (0.1, 10),
    }
    if panel not in panels:
        raise ExperimentError(f"panel must be one of {sorted(panels)}")
    task_mult, freq_cycles = panels[panel]
    task_duration_s = scale.average_task_duration_s * task_mult
    vt = scale.voltage_transition_s
    curves = {
        "nodvs": None,
        "vt_1.0x": {
            "voltage_transition_s": vt,
            "frequency_transition_link_cycles": freq_cycles,
        },
        "vt_0.5x": {
            "voltage_transition_s": vt * 0.5,
            "frequency_transition_link_cycles": freq_cycles,
        },
        "vt_0.1x": {
            "voltage_transition_s": vt * 0.1,
            "frequency_transition_link_cycles": freq_cycles,
        },
    }
    rates = rates if rates is not None else scale.sweep_rates
    return _transition_sweep(
        scale,
        f"Figure 16({panel})",
        f"voltage-transition sensitivity, task {task_duration_s * 1e6:.0f}us, "
        f"freq transition {freq_cycles} link cycles",
        curves,
        task_duration_s,
        rates,
    )


def fig17_frequency_transition_sweep(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    panel: str = "a",
    rates: tuple[float, ...] | None = None,
) -> FigureResult:
    """Figure 17: sensitivity to frequency transition delay.

    Panels: a/b use the scale's voltage ramp, c/d a 10x faster one; a/c
    long tasks, b/d short tasks. Frequency lock times are the paper's
    absolute 100/50/10 link cycles.
    """
    panels = {
        "a": (1.0, 1.0),  # (task multiplier, voltage multiplier)
        "b": (0.1, 1.0),
        "c": (1.0, 0.1),
        "d": (0.1, 0.1),
    }
    if panel not in panels:
        raise ExperimentError(f"panel must be one of {sorted(panels)}")
    task_mult, volt_mult = panels[panel]
    task_duration_s = scale.average_task_duration_s * task_mult
    vt = scale.voltage_transition_s * volt_mult
    # Frequency lock times are the paper's absolute 100/50/10 link cycles:
    # their effect is a ratio against the voltage ramp and must not be
    # shrunk by the scale preset (see fig16's panel note).
    curves = {
        "nodvs": None,
        "ft_100": {
            "voltage_transition_s": vt,
            "frequency_transition_link_cycles": 100,
        },
        "ft_50": {
            "voltage_transition_s": vt,
            "frequency_transition_link_cycles": 50,
        },
        "ft_10": {
            "voltage_transition_s": vt,
            "frequency_transition_link_cycles": 10,
        },
    }
    rates = rates if rates is not None else scale.sweep_rates
    return _transition_sweep(
        scale,
        f"Figure 17({panel})",
        f"frequency-transition sensitivity, task {task_duration_s * 1e6:.0f}us, "
        f"voltage transition {vt * 1e6:.2f}us",
        curves,
        task_duration_s,
        rates,
    )


# ---------------------------------------------------------------------------
# Ablations (beyond the paper)
# ---------------------------------------------------------------------------


def workload_comparison(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    rate: float = 1.0,
) -> FigureResult:
    """Why the paper built its own workload (Section 4.3).

    Runs the identical DVS configuration under the two-level self-similar
    model, uniform random traffic, and a transpose permutation. Uniform
    traffic lacks spatial variance (every link mildly loaded — links
    settle uniformly); the permutation lacks temporal variance; the
    two-level model exercises both axes, which is what makes history-based
    prediction both useful and hard.
    """
    workloads = {
        "two_level": {},
        "uniform": {"kind": "uniform"},
        "permutation": {"kind": "permutation", "permutation": "transpose"},
    }
    batch = default_backend().map_configs(
        scale.simulation(rate, workload_overrides={"average_tasks": 100, **overrides})
        for overrides in workloads.values()
    )
    rows = []
    results = {}
    for name, result in zip(workloads, batch, strict=True):
        results[name] = result
        rows.append(
            (
                name,
                round(result.offered_rate, 3),
                round(result.accepted_rate, 3),
                round(result.latency.mean, 1),
                round(result.power.normalized, 3),
                round(result.power.savings_factor, 2),
            )
        )
    return FigureResult(
        "Workloads",
        f"history-based DVS under different workloads at {rate} pkt/cycle",
        ["workload", "offered", "accepted", "latency", "norm_power", "savings"],
        rows,
        extras={"results": results},
    )


def ablation_congestion_litmus(
    scale: ExperimentScale = DEFAULT_SCALE,
    rates: tuple[float, ...] | None = None,
) -> FigureResult:
    """What the BU congestion litmus buys: history vs LU-only policy."""
    rates = rates if rates is not None else scale.sweep_rates
    base = scale.simulation(rates[0], workload_overrides={"average_tasks": 100})
    full = DVSControlConfig(policy="history")
    lu = DVSControlConfig(policy="lu_only")
    full_name, lu_name = policy_label(full), policy_label(lu)
    sweeps = compare_policies(base, rates, {full_name: full, lu_name: lu})
    rows = [
        (
            rate,
            round(sweeps[full_name][i].mean_latency, 1),
            round(sweeps[lu_name][i].mean_latency, 1),
            round(sweeps[full_name][i].normalized_power, 3),
            round(sweeps[lu_name][i].normalized_power, 3),
        )
        for i, rate in enumerate(rates)
    ]
    return FigureResult(
        "Ablation",
        "congestion litmus: full policy vs LU-only",
        [
            "rate",
            f"lat_{full_name}",
            f"lat_{lu_name}",
            f"pwr_{full_name}",
            f"pwr_{lu_name}",
        ],
        rows,
        extras={"sweeps": sweeps},
    )


def ablation_ewma_weight(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    rate: float = 1.0,
    weights: tuple[float, ...] = (1.0, 3.0, 7.0, 15.0),
) -> FigureResult:
    """Sensitivity to the EWMA weight W (paper fixes W=3 for shift-add)."""
    results = default_backend().map_configs(
        scale.simulation(
            rate,
            dvs=DVSControlConfig(policy="history", ewma_weight=weight),
            workload_overrides={"average_tasks": 100},
        )
        for weight in weights
    )
    rows = []
    for weight, result in zip(weights, results, strict=True):
        rows.append(
            (
                weight,
                round(result.latency.mean, 1),
                round(result.power.normalized, 3),
                result.power.transition_count,
            )
        )
    return FigureResult(
        "Ablation",
        f"EWMA weight sensitivity at {rate} packets/cycle",
        ["W", "latency", "norm_power", "transitions"],
        rows,
    )


def ablation_history_window(
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    rate: float = 1.0,
    windows: tuple[int, ...] = (50, 200, 800),
) -> FigureResult:
    """Sensitivity to the history window H (paper fixes H=200)."""
    results = default_backend().map_configs(
        scale.simulation(
            rate,
            dvs=DVSControlConfig(policy="history", history_window=window),
            workload_overrides={"average_tasks": 100},
        )
        for window in windows
    )
    rows = []
    for window, result in zip(windows, results, strict=True):
        rows.append(
            (
                window,
                round(result.latency.mean, 1),
                round(result.power.normalized, 3),
                result.power.transition_count,
            )
        )
    return FigureResult(
        "Ablation",
        f"history window sensitivity at {rate} packets/cycle",
        ["H", "latency", "norm_power", "transitions"],
        rows,
    )


def ablation_ideal_links(
    scale: ExperimentScale = DEFAULT_SCALE,
    rates: tuple[float, ...] | None = None,
) -> FigureResult:
    """How much of the DVS latency cost is *mechanism*, not policy.

    Runs the identical history-based policy over (a) the scale's
    conservative links and (b) idealized links whose voltage and frequency
    transitions are (near-)instantaneous and never take the link down —
    the future-technology limit the paper's conclusions point to. The gap
    between the two isolates the cost of slow, link-disabling transitions
    from the cost of running links slower at all.
    """
    rates = rates if rates is not None else scale.sweep_rates
    named: dict[str, SimulationConfig] = {}
    for name, link_overrides in (
        ("conservative", None),
        (
            "ideal",
            {
                "voltage_transition_s": 1.0e-9,
                "frequency_transition_link_cycles": 0,
                # Idealize the regulator too: without a bulk off-chip
                # filter capacitor, per-transition overheads vanish.
                "filter_capacitance_f": 1.0e-9,
            },
        ),
    ):
        named[name] = scale.simulation(
            rates[0],
            workload_overrides={"average_tasks": 100},
            link_overrides=link_overrides or {},
        )
    # One batched campaign: both curves parallelize and checkpoint together.
    sweeps = named_sweeps(named, rates)
    rows = [
        (
            rate,
            round(sweeps["conservative"][i].mean_latency, 1),
            round(sweeps["ideal"][i].mean_latency, 1),
            round(sweeps["conservative"][i].normalized_power, 3),
            round(sweeps["ideal"][i].normalized_power, 3),
        )
        for i, rate in enumerate(rates)
    ]
    return FigureResult(
        "Extension",
        "conservative vs idealized (instantaneous-transition) DVS links",
        ["rate", "lat_conservative", "lat_ideal", "pwr_conservative", "pwr_ideal"],
        rows,
        extras={"sweeps": sweeps},
    )


def ablation_adaptive_thresholds(
    scale: ExperimentScale = DEFAULT_SCALE,
    rates: tuple[float, ...] | None = None,
) -> FigureResult:
    """The paper's suggested extension: dynamically adjusted thresholds."""
    rates = rates if rates is not None else scale.sweep_rates
    base = scale.simulation(rates[0], workload_overrides={"average_tasks": 100})
    static = DVSControlConfig(policy="history")
    adaptive = DVSControlConfig(policy="adaptive_threshold")
    static_name, adaptive_name = policy_label(static), policy_label(adaptive)
    sweeps = compare_policies(
        base, rates, {static_name: static, adaptive_name: adaptive}
    )
    rows = [
        (
            rate,
            round(sweeps[static_name][i].mean_latency, 1),
            round(sweeps[adaptive_name][i].mean_latency, 1),
            round(sweeps[static_name][i].normalized_power, 3),
            round(sweeps[adaptive_name][i].normalized_power, 3),
        )
        for i, rate in enumerate(rates)
    ]
    return FigureResult(
        "Extension",
        "static vs dynamically adjusted thresholds",
        [
            "rate",
            f"lat_{static_name}",
            f"lat_{adaptive_name}",
            f"pwr_{static_name}",
            f"pwr_{adaptive_name}",
        ],
        rows,
        extras={"sweeps": sweeps},
    )
