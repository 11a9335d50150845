"""Command-line interface.

Eight subcommands::

    python -m repro describe                    # static tables and models
    python -m repro policies                    # registered DVS policies
    python -m repro run --rate 1.0 --policy history
    python -m repro sweep --rates 0.3,0.9,1.5   # DVS vs non-DVS comparison
    python -m repro pareto --rates 0.9          # cross-policy frontier
    python -m repro figure fig10 --scale smoke  # regenerate a paper figure
    python -m repro worker --port 8751          # join a distributed sweep
    python -m repro cache-server /path/store    # shared result store

Distributed sweeps: ``repro sweep --backend distributed --workers 4``
forks a loopback worker fleet from the coordinator for the run (POSIX
only); with ``--workers 0`` the coordinator waits for externally started
``repro worker`` processes, the way to add workers on other hosts (point
them at the coordinator's ``--dist-port``). ``repro cache-server``
serves a shared result store other hosts consult via the
``REPRO_RESULT_STORE`` environment variable.

All heavy lifting lives in the library; the CLI only parses arguments,
calls the same functions the benchmarks use, and prints the rendered
tables, so everything reachable from the shell is equally reachable (and
tested) from Python. Policy choices and display labels come from the
policy registry (:mod:`repro.core.registry`), so plugins registered
before the parser is built show up everywhere automatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable

from .config import DVSControlConfig, SimulationConfig
from .core.hardware import ControllerHardwareModel
from .core.levels import PAPER_TABLE
from .core.power_model import PAPER_LINK_POWER
from .core.registry import describe_registry, policy_label, registered_policies
from .core.thresholds import TABLE1_DEFAULT, TABLE2_SETTINGS
from .errors import ConfigError, ExperimentError, ReproError
from .harness import cache as sweep_cache
from .harness import experiments
from .harness.backends import make_backend
from .harness.pareto import (
    frontier,
    pareto_configs,
    run_pareto,
    write_pareto_csv,
    write_pareto_json,
)
from .harness.resilience import FailureReport, RetryPolicy
from .harness.runner import build_simulator
from .harness.scales import get_scale
from .harness.serialization import write_json
from .harness.sweep import (
    compare_policies,
    require_resumable_cache,
    resume_preview,
    summarize_comparison,
)
from .harness.tables import render_table
from .instrument.trace import TraceRecorder
from .power.report import format_power_report
from .power.router_power import RouterPowerProfile

#: Figure name -> experiment function (no-argument beyond scale).
FIGURES: dict[str, Callable] = {
    "fig3": experiments.fig3_link_utilization_profile,
    "fig4": experiments.fig4_buffer_utilization_profile,
    "fig5": experiments.fig5_buffer_age_profile,
    "fig7": experiments.fig7_router_power_distribution,
    "fig8": experiments.fig8_spatial_variance,
    "fig9": experiments.fig9_temporal_variance,
    "fig10": experiments.fig10_dvs_vs_nodvs,
    "fig11": experiments.fig11_dvs_vs_nodvs_50tasks,
    "fig12": experiments.fig12_congestion_power,
    "fig13": experiments.fig13_threshold_latency,
    "fig14": experiments.fig14_threshold_power,
    "fig15": experiments.fig15_pareto_curve,
    "fig16a": lambda scale: experiments.fig16_voltage_transition_sweep(scale, panel="a"),
    "fig16b": lambda scale: experiments.fig16_voltage_transition_sweep(scale, panel="b"),
    "fig16c": lambda scale: experiments.fig16_voltage_transition_sweep(scale, panel="c"),
    "fig16d": lambda scale: experiments.fig16_voltage_transition_sweep(scale, panel="d"),
    "fig17a": lambda scale: experiments.fig17_frequency_transition_sweep(scale, panel="a"),
    "fig17b": lambda scale: experiments.fig17_frequency_transition_sweep(scale, panel="b"),
    "fig17c": lambda scale: experiments.fig17_frequency_transition_sweep(scale, panel="c"),
    "fig17d": lambda scale: experiments.fig17_frequency_transition_sweep(scale, panel="d"),
    "headline": experiments.headline_summary,
    "ablation-litmus": experiments.ablation_congestion_litmus,
    "ablation-weight": experiments.ablation_ewma_weight,
    "ablation-window": experiments.ablation_history_window,
    "extension-adaptive": experiments.ablation_adaptive_thresholds,
}

#: Figures whose output is analytical and does not depend on --scale.
SCALE_INDEPENDENT = {"fig7"}

#: Figures that simulate in process: their probe histograms are not part of
#: a cached result, so no point is checkpointed and --resume is refused.
NOT_CHECKPOINTED = {"fig3", "fig4", "fig5"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Voltage Scaling with Links' (HPCA 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="print static tables and models")
    describe.set_defaults(func=cmd_describe)

    policies = sub.add_parser(
        "policies", help="list registered DVS policies and their knobs"
    )
    policies.add_argument("--smoke", action="store_true",
                          help="also run every registered policy for one short "
                          "point and report the results")
    policies.add_argument("--sanitize", action="store_true",
                          help="attach the network sanitizer to each smoke run "
                          "(violations fail the command)")
    policies.add_argument("--rate", type=float, default=0.5,
                          help="offered rate for the smoke runs")
    policies.add_argument("--scale", default=None, help="smoke | default | paper")
    policies.add_argument("--seed", type=int, default=1)
    policies.set_defaults(func=cmd_policies)

    run = sub.add_parser("run", help="run one simulation and report")
    run.add_argument("--rate", type=float, default=1.0, help="packets/cycle, network-wide")
    run.add_argument("--policy", choices=registered_policies(), default="history")
    run.add_argument("--tasks", type=int, default=100, help="average concurrent task sessions")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--scale", default=None, help="smoke | default | paper")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a JSONL trace of DVS transitions to PATH")
    run.add_argument("--sanitize", action="store_true",
                     help="attach the network sanitizer (per-cycle "
                     "conservation invariant checks; slower)")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="rate sweep, DVS vs non-DVS")
    sweep.add_argument("--rates", default="0.3,0.7,1.1,1.5,1.9",
                       help="comma-separated offered rates")
    sweep.add_argument("--scale", default=None)
    sweep.add_argument("--seed", type=int, default=1)
    _add_campaign_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    pareto = sub.add_parser(
        "pareto", help="cross-policy power-vs-latency Pareto frontier"
    )
    pareto.add_argument("--rates", default="0.9",
                        help="comma-separated offered rates (frontier is "
                        "computed within each rate)")
    pareto.add_argument("--policies", default=None,
                        help="comma-separated registered policy names "
                        "(default: every registered policy)")
    pareto.add_argument("--scale", default=None)
    pareto.add_argument("--seed", type=int, default=1)
    _add_campaign_options(pareto)
    pareto.add_argument("--json", default=None, metavar="PATH",
                        help="write the full campaign (points + frontier) to PATH")
    pareto.add_argument("--csv", default=None, metavar="PATH",
                        help="write the campaign as flat CSV to PATH")
    pareto.set_defaults(func=cmd_pareto)

    worker = sub.add_parser(
        "worker", help="join a distributed sweep as a remote worker"
    )
    worker.add_argument("--host", default="127.0.0.1",
                        help="coordinator host to connect to")
    worker.add_argument("--port", type=int, required=True,
                        help="coordinator port (the sweep's --dist-port)")
    worker.add_argument("--worker-id", default=None,
                        help="stable identity for logs and the coordinator "
                        "(default: worker-<pid>)")
    worker.add_argument("--heartbeat", type=float, default=0.25,
                        metavar="SECONDS", help="heartbeat interval")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-event progress on stderr")
    worker.set_defaults(func=cmd_worker)

    cache_server = sub.add_parser(
        "cache-server", help="serve a shared sweep result store over HTTP"
    )
    cache_server.add_argument("root", help="directory holding the store entries")
    cache_server.add_argument("--host", default="127.0.0.1",
                              help="bind address (default loopback; the store "
                              "trusts its network)")
    cache_server.add_argument("--port", type=int, default=8750)
    cache_server.set_defaults(func=cmd_cache_server)

    figure = sub.add_parser("figure", help="regenerate a paper figure/table")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--scale", default=None)
    figure.add_argument("--json", default=None, help="also write rows to this path")
    figure.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk sweep result cache")
    figure.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from the sweep "
                        "cache (requires caching; reports replayed points)")
    figure.set_defaults(func=cmd_figure)

    return parser


def cmd_describe(args: argparse.Namespace) -> int:
    print(PAPER_TABLE.describe())
    print()
    print(PAPER_LINK_POWER.describe(PAPER_TABLE))
    print()
    print(RouterPowerProfile().describe())
    print()
    print(ControllerHardwareModel().describe())
    print()
    print("Table 1 defaults:", TABLE1_DEFAULT)
    print("Table 2 settings:")
    for name, setting in TABLE2_SETTINGS.items():
        print(f"  {name}: TL=({setting.low_uncongested}, {setting.high_uncongested})")
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    print(describe_registry())
    if not args.smoke:
        return 0
    # Registry-completeness smoke: every registered policy (including
    # factory-less "none") must survive one short point, optionally under
    # the sanitizer. A 10x-shrunk scale keeps this CI-cheap while still
    # crossing enough windows to exercise transitions and sleep/wake.
    scale = get_scale(args.scale).shrink(0.1)
    rows = []
    for name in registered_policies():
        config = scale.simulation(
            args.rate, policy=name, workload_overrides={"seed": args.seed}
        )
        simulator = build_simulator(
            config, sanitize=True if args.sanitize else None
        )
        result = simulator.run()
        rows.append(
            (
                policy_label(config.dvs),
                round(result.accepted_rate, 3),
                round(result.latency.mean, 1),
                round(result.power.normalized, 3),
                result.power.transition_count,
            )
        )
    print()
    print(
        render_table(
            ["policy", "accepted", "mean_lat", "norm_power", "transitions"],
            rows,
            title=f"registry smoke @ {args.rate} pkt/cycle (scale={scale.name}, "
            f"sanitize={'on' if args.sanitize else 'off'})",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    config = scale.simulation(
        args.rate,
        policy=args.policy,
        workload_overrides={"average_tasks": args.tasks, "seed": args.seed},
    )
    recorder = TraceRecorder(args.trace) if args.trace else None
    observers = (recorder,) if recorder else ()
    simulator = build_simulator(
        config, observers=observers, sanitize=True if args.sanitize else None
    )
    result = simulator.run()
    print(
        render_table(
            ["metric", "value"],
            [
                ("offered packets/cycle", round(result.offered_rate, 3)),
                ("accepted packets/cycle", round(result.accepted_rate, 3)),
                ("mean latency (cycles)", round(result.latency.mean, 1)),
                ("median latency", round(result.latency.median, 1)),
                ("p95 latency", round(result.latency.p95, 1)),
                ("mean DVS level", round(result.mean_level, 2)),
            ],
            title=f"run @ {args.rate} pkt/cycle, policy={args.policy}, "
            f"scale={scale.name}",
        )
    )
    print()
    print(format_power_report(result.power))
    if simulator.sanitizer is not None:
        print()
        print(simulator.sanitizer.describe())
    if recorder is not None:
        recorder.close()
        print(f"\ntrace: {len(recorder.records)} records written to {args.trace}")
    return 0


def _cache_stats_line() -> str | None:
    cache = sweep_cache.get_cache()
    if cache is None:
        return "sweep cache: disabled"
    if cache.hits or cache.misses:
        return f"sweep cache: {cache.describe()}"
    return None


def _print_resume_preview(configs: Iterable[SimulationConfig]) -> None:
    """How many of a campaign's points ``--resume`` will replay, on stderr."""
    checkpointed, total = resume_preview(configs)
    print(
        f"resume: {checkpointed}/{total} points already checkpointed, "
        f"recomputing {total - checkpointed}",
        file=sys.stderr,
    )


def _campaign_epilogue(report: FailureReport | None) -> int:
    """Print cache stats and any failure summary; return the exit status."""
    stats = _cache_stats_line()
    if stats:
        print(stats)
    if report is not None and not report.ok:
        print()
        print(report.describe())
        return 1 if report.failures else 0
    return 0


def _parse_rates(raw: str) -> tuple[float, ...]:
    """One comma-separated --rates argument as floats, or a clean error."""
    try:
        rates = tuple(float(r) for r in raw.split(",") if r.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --rates value {raw!r}: {exc}") from None
    if not rates:
        raise ConfigError(f"--rates needs at least one rate, got {raw!r}")
    return rates


def _fabric_progress(line: str) -> None:
    """Live fabric events (registrations, losses, steals) on stderr."""
    print(f"[distributed] {line}", file=sys.stderr)


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    """The execution and failure-handling flags every campaign command takes."""
    parser.add_argument("--processes", type=int, default=1,
                        help="worker processes for the campaign (1 = serial)")
    _add_distributed_options(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk sweep result cache")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign: requires the sweep "
                        "cache, replays checkpointed points, recomputes only "
                        "the missing ones")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per point before it counts as failed "
                        "(default 2: one retry with backoff)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-point wall-clock budget; exceeding it fails "
                        "the attempt (retried like any other failure)")
    parser.add_argument("--keep-going", action="store_true",
                        help="degrade to partial results plus a failure summary "
                        "instead of aborting when points fail")


def _add_distributed_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("local", "distributed"),
                        default="local",
                        help="execution backend: local (default) or the "
                        "fault-tolerant distributed fabric")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="with --backend distributed: fork N loopback "
                        "workers from the coordinator (0 = serve externally "
                        "started 'repro worker' processes, e.g. on other "
                        "hosts)")
    parser.add_argument("--dist-host", default="127.0.0.1", metavar="HOST",
                        help="coordinator bind address for --backend distributed")
    parser.add_argument("--dist-port", type=int, default=0, metavar="PORT",
                        help="coordinator port for --backend distributed "
                        "(0 = auto; the chosen port is reported on stderr)")


def _campaign_backend(args: argparse.Namespace):
    backend = getattr(args, "backend", "local")
    return make_backend(
        args.processes,
        retry=_retry_policy(args),
        progress=_fabric_progress if backend == "distributed" else None,
        backend=backend,
        workers=getattr(args, "workers", 0),
        host=getattr(args, "dist_host", "127.0.0.1"),
        port=getattr(args, "dist_port", 0),
    )


def _retry_policy(args: argparse.Namespace) -> RetryPolicy | None:
    """A RetryPolicy from --retries/--timeout, or None for the default."""
    if args.retries is None and args.timeout is None:
        return None
    overrides: dict[str, int | float] = {}
    if args.retries is not None:
        overrides["max_attempts"] = args.retries
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    return RetryPolicy(**overrides)  # type: ignore[arg-type]


def cmd_sweep(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    rates = _parse_rates(args.rates)
    base = scale.simulation(rates[0], workload_overrides={"seed": args.seed})
    # Display names come from the registry so custom knob values (or
    # plugin policies swapped in here) label themselves.
    baseline_dvs = DVSControlConfig(policy="none")
    dvs_dvs = DVSControlConfig(policy="history")
    baseline_name = policy_label(baseline_dvs)
    dvs_name = policy_label(dvs_dvs)
    named = {
        baseline_name: base.with_dvs(baseline_dvs),
        dvs_name: base.with_dvs(dvs_dvs),
    }
    if args.resume:
        _print_resume_preview(
            config.with_rate(rate) for config in named.values() for rate in rates
        )
    report = FailureReport() if args.keep_going else None
    sweeps = compare_policies(
        base,
        rates,
        {baseline_name: baseline_dvs, dvs_name: dvs_dvs},
        backend=_campaign_backend(args),
        resume=args.resume,
        failures=report,
    )
    # Pair by target rate: with --keep-going a failed point leaves a gap in
    # one sweep but not necessarily the other.
    by_rate = {
        name: {point.target_rate: point for point in points}
        for name, points in sweeps.items()
    }
    common = [
        r for r in rates if r in by_rate[baseline_name] and r in by_rate[dvs_name]
    ]
    rows = [
        (
            b.target_rate,
            round(b.offered_rate, 3),
            round(b.mean_latency, 1),
            round(d.mean_latency, 1),
            round(d.normalized_power, 3),
            round(d.savings_factor, 2),
        )
        for b, d in (
            (by_rate[baseline_name][r], by_rate[dvs_name][r]) for r in common
        )
    ]
    print(
        render_table(
            ["rate", "offered", f"lat_{baseline_name}", f"lat_{dvs_name}",
             "norm_power", "savings"],
            rows,
            title=f"DVS ({dvs_name}) vs non-DVS sweep (scale={scale.name})",
        )
    )
    if common:
        summary = summarize_comparison(
            [by_rate[baseline_name][r] for r in common],
            [by_rate[dvs_name][r] for r in common],
        )
        print()
        print(summary.describe())
    return _campaign_epilogue(report)


def cmd_pareto(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    rates = _parse_rates(args.rates)
    policies = None
    if args.policies:
        policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    base = scale.simulation(rates[0], workload_overrides={"seed": args.seed})
    if args.resume:
        _, preview = pareto_configs(base, rates, policies)
        _print_resume_preview(preview)
    report = FailureReport() if args.keep_going else None
    points = run_pareto(
        base,
        rates,
        policies,
        backend=_campaign_backend(args),
        resume=args.resume,
        failures=report,
    )
    rows = [
        (
            point.label,
            point.target_rate,
            round(point.offered_rate, 3),
            round(point.mean_latency, 1),
            round(point.normalized_power, 3),
            round(point.savings_factor, 2),
            point.transition_count,
            "*" if point.on_frontier else "",
        )
        for point in points
    ]
    print(
        render_table(
            ["policy", "rate", "offered", "mean_lat", "norm_power", "savings",
             "transitions", "frontier"],
            rows,
            title=f"cross-policy Pareto campaign (scale={scale.name})",
        )
    )
    front = frontier(points)
    print()
    print(f"frontier: {len(front)}/{len(points)} points non-dominated")
    for point in front:
        print(
            f"  {point.label} @ {point.target_rate:g}: "
            f"power={point.normalized_power:.3f} "
            f"latency={point.mean_latency:.1f}"
        )
    if args.json:
        write_pareto_json(points, args.json)
        print(f"\ncampaign written to {args.json}")
    if args.csv:
        write_pareto_csv(points, args.csv)
        print(f"csv written to {args.csv}")
    return _campaign_epilogue(report)


def cmd_worker(args: argparse.Namespace) -> int:
    # Imported lazily so plain local commands never touch the fabric.
    from .harness.distributed import run_worker

    return run_worker(
        args.host,
        args.port,
        worker_id=args.worker_id,
        heartbeat_s=args.heartbeat,
        quiet=args.quiet,
    )


def cmd_cache_server(args: argparse.Namespace) -> int:
    from .harness.distributed import serve_result_store

    try:
        serve_result_store(args.root, args.host, args.port)
    except KeyboardInterrupt:
        print("\nresult store stopped", file=sys.stderr)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    if args.name in SCALE_INDEPENDENT and args.scale is not None:
        print(
            f"note: {args.name} is analytical; --scale {args.scale} has no effect",
            file=sys.stderr,
        )
    if args.resume and args.name in NOT_CHECKPOINTED:
        raise ExperimentError(
            f"{args.name} is not checkpointed: its probe histograms are not "
            "part of a cached result, so --resume would simulate every load "
            "again; run it without --resume"
        )
    cache = require_resumable_cache() if args.resume else None
    replayed_before = recomputed_before = 0
    if cache is not None:
        replayed_before, recomputed_before = cache.hits, cache.misses
    figure = FIGURES[args.name](scale)
    if cache is not None:
        print(
            f"resume: {cache.hits - replayed_before} point(s) replayed from "
            f"checkpoints, {cache.misses - recomputed_before} recomputed",
            file=sys.stderr,
        )
    print(figure.render())
    if args.json:
        write_json(
            {"figure": figure.figure, "columns": figure.columns, "rows": figure.rows},
            args.json,
        )
        print(f"\nrows written to {args.json}")
    stats = _cache_stats_line()
    if stats:
        print(stats, file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --no-cache disables the sweep cache for this command only.
    no_cache = getattr(args, "no_cache", False)
    if no_cache:
        sweep_cache.set_cache(None)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if no_cache:
            sweep_cache.reset_cache()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
