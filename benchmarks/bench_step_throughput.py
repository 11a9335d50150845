"""Step-throughput benchmark: event-horizon fast-forward vs plain stepping.

Runs a small matrix of workloads through three kernel variants —

* ``fastforward``: the default kernel (active-router dirty set + quiescence
  skipping),
* ``no-ff``: same dirty-set scheduler, stepping every cycle,
* ``sanitize``: the default kernel with the :class:`NetworkSanitizer`
  invariant checkers attached (``--sanitize``),

— and reports wall time, simulated cycles/second, skipped-cycle counts, and
speedups. Results are archived as JSON under ``benchmarks/results/``.

Unlike the figure benchmarks this is a standalone script (no
pytest-benchmark) so CI can run it as a perf smoke test::

    PYTHONPATH=src python benchmarks/bench_step_throughput.py --tiny \
        --require-fast-forward

``--require-fast-forward`` exits non-zero if the fast-forward kernel never
skipped a cycle on the low-duty scenarios — the guard that keeps the
optimization from silently rotting into a no-op.
``--check-sanitize-overhead`` gates the sanitizer-enabled run's slowdown
*per mode against the tracked baseline*: each scenario's
sanitize/fastforward wall-time ratio must stay within
``--sanitize-headroom`` (default 1.5x) of the ratio recorded for the same
scenario in ``BENCH_step_throughput.json``'s matching mode. A fixed
absolute cap is also available (``--max-sanitize-overhead X``) but is not
used in CI — the default-scale matrix legitimately records ~1.93x, which
left ~3.5% headroom under the old hard 2.0x bar and flaked on noise.

The script also owns the tracked perf baseline committed at the repo root:
``--write-baseline`` regenerates ``BENCH_step_throughput.json`` (per-scenario
cycles/second and speedups) and ``BENCH_saturation.json`` (the saturation
scenario's throughput plus tracemalloc allocation counts for the pooled
kernel), keyed by mode so the CI-sized ``--tiny`` numbers and the full
default-scale numbers coexist in one file. ``--check-regression``
compares the current run's fast-forward throughput against that baseline
and exits non-zero when any scenario fell more than
``--regression-tolerance`` (default 25%) below it — the CI perf-smoke gate.

Reference numbers (a 2-CPU container; wall-clock is noisy there, the
in-process ratio is the stable metric): ``speedup_vs_no_ff``, fast-forward
over the same kernel stepping every cycle, reads 1.14x (default 8x8 scale)
to 1.35x (tiny 4x4) on the low-duty paper workload without DVS and
1.07-1.18x with the history policy (224 per-port controllers close an
EWMA window every 200 cycles, which no amount of skipping removes). At
saturation nothing is skippable and the ratio sits at parity within noise
(0.91-0.98x); there the pooled kernel's steady-state measured span
allocates no new per-flit/per-event objects.

The ``steady-low-*`` pair runs the same light-load traffic with the
history policy started at the bottom level (``initial_level=0``, so the
links are at steady state from the start rather than ramping down) and
without DVS. Its ``dvs_overhead`` — the DVS row's fast-forward wall time
over the no-DVS row's, both timed in one process over the same simulated
cycles, like ``speedup_vs_no_ff`` — is what the DVS control path costs on
top of the traffic it governs. It is reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from repro.config import (
    DVSControlConfig,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.harness.serialization import write_json
from repro.network.simulator import Simulator

try:  # standalone: python benchmarks/bench_step_throughput.py
    from common import add_profile_argument, maybe_profile
except ImportError:  # imported as benchmarks.bench_step_throughput
    from .common import add_profile_argument, maybe_profile

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent
#: Tracked perf baselines, committed at the repo root. Regenerate with
#: ``--write-baseline`` (once per mode: with and without ``--tiny``).
BASELINE_PATH = REPO_ROOT / "BENCH_step_throughput.json"
SATURATION_PATH = REPO_ROOT / "BENCH_saturation.json"
#: The scenario the saturation baseline tracks.
SATURATION_SCENARIO = "saturation-uniform"
#: The steady-state pair's DVS and no-DVS scenarios (same traffic).
STEADY_DVS, STEADY_NODVS = "steady-low-dvs", "steady-low-nodvs"


@dataclass(frozen=True)
class Scenario:
    name: str
    config: SimulationConfig
    #: Low-duty scenarios must fast-forward; saturation need not.
    expect_skipping: bool


def paper_config(
    *,
    radix: int,
    policy: str,
    kind: str,
    rate: float,
    tasks: int,
    warmup: int,
    measure: int,
    initial_level: int | None = None,
) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(radix=radix, dimensions=2),
        dvs=DVSControlConfig(policy=policy, initial_level=initial_level),
        workload=WorkloadConfig(
            kind=kind,
            injection_rate=rate,
            seed=1,
            average_tasks=tasks,
            average_task_duration_s=3.0e-6,
        ),
        warmup_cycles=warmup,
        measure_cycles=measure,
    )


def build_scenarios(tiny: bool) -> list[Scenario]:
    radix = 4 if tiny else 8
    warmup = 200 if tiny else 1_000
    measure = 3_000 if tiny else 20_000

    def cfg(**kwargs):
        return paper_config(radix=radix, warmup=warmup, measure=measure, **kwargs)

    return [
        Scenario(
            "paper-50tasks-low-nodvs",
            cfg(policy="none", kind="two_level", rate=0.01, tasks=50),
            expect_skipping=True,
        ),
        Scenario(
            "paper-50tasks-low-dvs",
            cfg(policy="history", kind="two_level", rate=0.01, tasks=50),
            expect_skipping=True,
        ),
        Scenario(
            "paper-100tasks",
            cfg(policy="history", kind="two_level", rate=0.05, tasks=100),
            expect_skipping=True,
        ),
        Scenario(
            "near-zero-load-uniform",
            cfg(policy="none", kind="uniform", rate=0.005, tasks=50),
            expect_skipping=True,
        ),
        Scenario(
            "saturation-uniform",
            cfg(policy="history", kind="uniform", rate=0.8, tasks=50),
            expect_skipping=False,
        ),
        Scenario(
            STEADY_DVS,
            cfg(
                policy="history", kind="two_level", rate=0.1, tasks=50,
                initial_level=0,
            ),
            expect_skipping=False,
        ),
        Scenario(
            STEADY_NODVS,
            cfg(policy="none", kind="two_level", rate=0.1, tasks=50),
            expect_skipping=False,
        ),
    ]


VARIANTS = ("fastforward", "no-ff", "sanitize")


def run_variant(config: SimulationConfig, variant: str, repeats: int) -> dict:
    """Best-of-*repeats* wall time for one kernel variant on *config*."""
    best = None
    simulator = None
    for _ in range(repeats):
        simulator = Simulator(
            config,
            fast_forward=(variant != "no-ff"),
            sanitize=(variant == "sanitize"),
        )
        start = time.perf_counter()
        simulator.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    cycles = config.total_cycles
    return {
        "wall_s": best,
        "cycles": cycles,
        "cycles_per_s": cycles / best if best else float("inf"),
        "idle_cycles_skipped": simulator.idle_cycles_skipped,
        "idle_spans": simulator.idle_spans,
    }


def run_scenario(scenario: Scenario, repeats: int) -> dict:
    timings = {
        variant: run_variant(scenario.config, variant, repeats)
        for variant in VARIANTS
    }
    fast = timings["fastforward"]
    return {
        "scenario": scenario.name,
        "expect_skipping": scenario.expect_skipping,
        "variants": timings,
        "speedup_vs_no_ff": timings["no-ff"]["wall_s"] / fast["wall_s"],
        "sanitize_overhead": timings["sanitize"]["wall_s"] / fast["wall_s"],
    }


# ---------------------------------------------------------------------------
# Tracked baseline (BENCH_step_throughput.json / BENCH_saturation.json)
# ---------------------------------------------------------------------------


def measure_allocations(config: SimulationConfig) -> dict:
    """Allocation behavior at steady state, via tracemalloc.

    Runs the warmup plus the first half of the measured span untraced —
    the flit/event pools, route memos, and calendar ring all grow lazily
    and need saturation traffic (not just the warmup) to reach their
    high-water marks — then traces the second half. ``net_new_blocks`` is
    the number of allocated blocks still live at the end that were not
    live at trace start, which the pooled kernel's steady state should
    hold near zero; ``peak_traced_kib`` is tracemalloc's high-water mark
    for the traced span.
    """
    simulator = Simulator(config, fast_forward=False)
    fill = config.measure_cycles // 2
    simulator.run_cycles(config.warmup_cycles + fill)
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    simulator.run_cycles(config.measure_cycles - fill)
    _, peak = tracemalloc.get_traced_memory()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    diff = after.compare_to(before, "filename")
    return {
        "net_new_blocks": sum(d.count_diff for d in diff),
        "grown_blocks": sum(d.count_diff for d in diff if d.count_diff > 0),
        "peak_traced_kib": round(peak / 1024.0, 1),
    }


def dvs_overhead(rows: list[dict]) -> float:
    """The steady-state pair's DVS over no-DVS fast-forward wall time."""
    wall = {row["scenario"]: row["variants"]["fastforward"]["wall_s"] for row in rows}
    return wall[STEADY_DVS] / wall[STEADY_NODVS]


def baseline_rows(rows: list[dict]) -> dict:
    """The per-scenario numbers the regression gate tracks."""
    return {
        row["scenario"]: {
            "cycles_per_s": round(
                row["variants"]["fastforward"]["cycles_per_s"], 1
            ),
            "speedup_vs_no_ff": round(row["speedup_vs_no_ff"], 3),
            "sanitize_overhead": round(row["sanitize_overhead"], 3),
        }
        for row in rows
    }


def _update_mode_entry(path: Path, mode: str, entry: dict, benchmark: str) -> None:
    """Merge *entry* under ``modes[mode]``, preserving the other mode."""
    report = {"benchmark": benchmark, "modes": {}}
    if path.exists():
        existing = json.loads(path.read_text())
        if isinstance(existing.get("modes"), dict):
            report["modes"] = existing["modes"]
    report["modes"][mode] = entry
    write_json(report, path)


def write_baseline(rows: list[dict], mode: str, scenarios: list[Scenario]) -> None:
    """Regenerate the tracked BENCH_*.json files for *mode*."""
    _update_mode_entry(
        BASELINE_PATH,
        mode,
        {
            "command": f"python benchmarks/bench_step_throughput.py "
            f"{'--tiny ' if mode == 'tiny' else ''}--write-baseline",
            "rows": baseline_rows(rows),
            "dvs_overhead": round(dvs_overhead(rows), 3),
        },
        "step_throughput",
    )
    print(f"baseline written to {BASELINE_PATH}")

    sat_row = next(row for row in rows if row["scenario"] == SATURATION_SCENARIO)
    sat_config = next(
        s.config for s in scenarios if s.name == SATURATION_SCENARIO
    )
    variants = sat_row["variants"]
    print("measuring saturation allocation counts under tracemalloc ...")
    entry = {
        "scenario": SATURATION_SCENARIO,
        "fastforward_cycles_per_s": round(
            variants["fastforward"]["cycles_per_s"], 1
        ),
        "sanitize_overhead": round(sat_row["sanitize_overhead"], 3),
        "allocations": {
            "fastforward": measure_allocations(sat_config),
        },
    }
    _update_mode_entry(SATURATION_PATH, mode, entry, "saturation_hot_path")
    print(f"saturation baseline written to {SATURATION_PATH}")


def check_regression(
    rows: list[dict], baseline_path: Path, mode: str, tolerance: float
) -> int:
    """Fail (non-zero) when throughput fell >*tolerance* below baseline."""
    if not baseline_path.exists():
        print(f"FAIL: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    entry = baseline.get("modes", {}).get(mode)
    if entry is None:
        print(
            f"FAIL: baseline {baseline_path} has no '{mode}' mode; "
            "regenerate with --write-baseline",
            file=sys.stderr,
        )
        return 1
    floor = 1.0 - tolerance
    failures = []
    for row in rows:
        tracked = entry["rows"].get(row["scenario"])
        if tracked is None:
            continue
        current = row["variants"]["fastforward"]["cycles_per_s"]
        ratio = current / tracked["cycles_per_s"]
        marker = "ok" if ratio >= floor else "REGRESSION"
        print(
            f"  {row['scenario']:28s} {current/1e3:8.1f} kcyc/s vs baseline "
            f"{tracked['cycles_per_s']/1e3:8.1f} ({ratio:5.2f}x)  {marker}"
        )
        if ratio < floor:
            failures.append((row["scenario"], ratio))
    if failures:
        print(
            f"FAIL: throughput more than {tolerance:.0%} below baseline on: "
            + ", ".join(f"{name} ({ratio:.2f}x)" for name, ratio in failures),
            file=sys.stderr,
        )
        return 1
    print(f"throughput within {tolerance:.0%} of baseline on all scenarios")
    return 0


def check_sanitize_overhead(
    rows: list[dict], baseline_path: Path, mode: str, headroom: float
) -> int:
    """Per-mode sanitize gate: fail when any scenario's sanitize overhead
    exceeds *headroom* times the ratio tracked in the baseline's *mode*.

    Relative to the committed baseline rather than an absolute cap: the
    sanitizer's legitimate cost differs per mode (~1.16x on the tiny
    matrix, ~1.93x at default scale), so one hard number either flakes on
    the expensive mode or is meaningless on the cheap one.
    """
    if not baseline_path.exists():
        print(f"FAIL: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    entry = baseline.get("modes", {}).get(mode)
    if entry is None:
        print(
            f"FAIL: baseline {baseline_path} has no '{mode}' mode; "
            "regenerate with --write-baseline",
            file=sys.stderr,
        )
        return 1
    failures = []
    for row in rows:
        tracked = entry["rows"].get(row["scenario"], {})
        tracked_overhead = tracked.get("sanitize_overhead")
        if tracked_overhead is None:
            continue
        limit = tracked_overhead * headroom
        ratio = row["sanitize_overhead"]
        marker = "ok" if ratio <= limit else "SANITIZE REGRESSION"
        print(
            f"  {row['scenario']:28s} sanitize {ratio:5.2f}x vs baseline "
            f"{tracked_overhead:5.2f}x (limit {limit:5.2f}x)  {marker}"
        )
        if ratio > limit:
            failures.append((row["scenario"], ratio, limit))
    if failures:
        print(
            "FAIL: sanitizer overhead above per-mode baseline headroom on: "
            + ", ".join(
                f"{name} ({ratio:.2f}x > {limit:.2f}x)"
                for name, ratio, limit in failures
            ),
            file=sys.stderr,
        )
        return 1
    print(
        f"sanitizer overhead within {headroom:.2f}x of the '{mode}' "
        "baseline on all scenarios"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI-sized runs (4x4 mesh, short cycle counts)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed repeats per variant; best is reported (default 2)",
    )
    parser.add_argument(
        "--require-fast-forward", action="store_true",
        help="exit non-zero unless low-duty scenarios actually skipped cycles",
    )
    parser.add_argument(
        "--max-sanitize-overhead", type=float, default=0.0, metavar="X",
        help="exit non-zero if sanitize/fastforward wall-time ratio exceeds X "
             "on any scenario (0 = don't check; absolute cap — CI uses the "
             "per-mode --check-sanitize-overhead gate instead)",
    )
    parser.add_argument(
        "--check-sanitize-overhead", action="store_true",
        help="exit non-zero if any scenario's sanitize overhead exceeds "
             "--sanitize-headroom times the ratio tracked for this mode in "
             "the baseline",
    )
    parser.add_argument(
        "--sanitize-headroom", type=float, default=1.5, metavar="X",
        help="allowed sanitize-overhead multiple of the per-mode baseline "
             "(default 1.5)",
    )
    parser.add_argument(
        "--json", default=str(RESULTS_DIR / "step_throughput.json"),
        help="result JSON path ('' to skip writing)",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH),
        help="tracked baseline JSON path (default: BENCH_step_throughput.json "
             "at the repo root)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate BENCH_step_throughput.json and BENCH_saturation.json "
             "for this mode (tiny/default), including tracemalloc allocation "
             "counts for the saturation scenario",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help="exit non-zero if fastforward throughput fell more than "
             "--regression-tolerance below the tracked baseline",
    )
    parser.add_argument(
        "--regression-tolerance", type=float, default=0.25, metavar="FRAC",
        help="allowed fractional throughput drop vs baseline (default 0.25)",
    )
    add_profile_argument(parser)
    args = parser.parse_args(argv)

    scenarios = build_scenarios(args.tiny)
    rows = []
    with maybe_profile(args.profile):
        for scenario in scenarios:
            row = run_scenario(scenario, max(1, args.repeats))
            rows.append(row)
            fast = row["variants"]["fastforward"]
            print(
                f"{scenario.name:28s} "
                f"ff {fast['wall_s']*1e3:8.1f} ms "
                f"({fast['cycles_per_s']/1e3:8.1f} kcyc/s, "
                f"{fast['idle_cycles_skipped']}/{fast['cycles']} skipped)  "
                f"vs no-ff {row['speedup_vs_no_ff']:5.2f}x  "
                f"sanitize {row['sanitize_overhead']:5.2f}x"
            )

    overhead = dvs_overhead(rows)
    print(f"{'dvs_overhead':28s} {overhead:5.2f}x (DVS / no-DVS wall time)")

    report = {
        "benchmark": "step_throughput",
        "tiny": args.tiny,
        "repeats": max(1, args.repeats),
        "rows": rows,
        "dvs_overhead": overhead,
    }
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(report, path)
        print(f"\nresults written to {path}")

    if args.require_fast_forward:
        dead = [
            row["scenario"]
            for row in rows
            if row["expect_skipping"]
            and row["variants"]["fastforward"]["idle_cycles_skipped"] == 0
        ]
        if dead:
            print(
                "FAIL: fast-forward never engaged on: " + ", ".join(dead),
                file=sys.stderr,
            )
            return 1
        print("fast-forward engaged on all low-duty scenarios")

    if args.max_sanitize_overhead > 0:
        slow = [
            (row["scenario"], row["sanitize_overhead"])
            for row in rows
            if row["sanitize_overhead"] > args.max_sanitize_overhead
        ]
        if slow:
            print(
                "FAIL: sanitizer overhead above "
                f"{args.max_sanitize_overhead:.2f}x on: "
                + ", ".join(f"{name} ({ratio:.2f}x)" for name, ratio in slow),
                file=sys.stderr,
            )
            return 1
        print(
            "sanitizer overhead within "
            f"{args.max_sanitize_overhead:.2f}x on all scenarios"
        )

    mode = "tiny" if args.tiny else "default"
    if args.check_sanitize_overhead:
        print(f"\nsanitize-overhead check vs {args.baseline} [{mode}]:")
        status = check_sanitize_overhead(
            rows, Path(args.baseline), mode, args.sanitize_headroom
        )
        if status:
            return status
    if args.write_baseline:
        write_baseline(rows, mode, scenarios)
    if args.check_regression:
        print(f"\nregression check vs {args.baseline} [{mode}]:")
        status = check_regression(
            rows, Path(args.baseline), mode, args.regression_tolerance
        )
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
