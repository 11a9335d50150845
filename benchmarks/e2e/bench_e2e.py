#!/usr/bin/env python3
"""End-to-end campaign benchmark: what a user waits for, and where it goes.

Every workload in ``BENCHMARK.json`` is a closed batch: the whole config
list is submitted at once and the benchmark waits for every result. Each
measured campaign runs in a fresh child interpreter (imports, pools,
memos and caches never carry over), one at a time, with at most 2 worker
processes. Results are hashed point by point and checked against the
serial scalar path. See ``README.md`` beside this file.

    python3 benchmarks/e2e/bench_e2e.py [--seed S] [--repeats N] [--trace] [--json OUT]
    python3 benchmarks/e2e/bench_e2e.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/bench_e2e.py --compare A.json B.json

The first form runs every workload ``--repeats`` times, rotating their
order each repeat. The second measures one workload for ``--seconds``
and prints one JSON object as its last line. Both exit non-zero when a
digest mismatches or a point fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"
WORK_ROOT = ROOT / ".bench_build" / "e2e"

#: Fewest measured campaigns a run reports a median over.
MIN_UNITS = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here or a child failed."""


def load_spec() -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}; run from a full checkout")
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from exc


def calibrate() -> None:
    """A fixed pure-Python loop; its time tracks host speed right now."""
    total = 0
    for i in range(300_000):
        total += i * i % 7


# -- child processes ------------------------------------------------------------


def _child_env(workdir: Path, cache: str = "off", store_url: str = "") -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_CACHE"] = cache
    if store_url:
        env["REPRO_RESULT_STORE"] = store_url
    env["TMPDIR"] = str(workdir)
    env["XDG_CACHE_HOME"] = str(workdir / "xdg")
    return env


def _run_child(mode: str, workload: str, seed: int, workdir: Path, *,
               smoke: bool, cache: str = "off", store_url: str = "") -> dict:
    """Run one child interpreter; its result dict gains ``peak_rss_mb``.

    The child is reaped with ``wait4`` so its peak RSS covers it and
    every descendant it waited for (pool and fabric workers).
    """
    log_path = workdir / f"{mode}-{workload}-{time.monotonic_ns()}.log"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            command, cwd=ROOT, env=_child_env(workdir, cache, store_url),
            stdout=subprocess.PIPE, stderr=log,
        )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = output.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log_path.read_text(errors="replace")[-3000:]
        raise BenchError(
            f"{mode} child for {workload} exited {proc.returncode}:\n{tail}"
        )
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


class ResultStore:
    """A ``repro cache-server`` process over a fresh directory."""

    def __init__(self, workdir: Path) -> None:
        root = workdir / f"store-{time.monotonic_ns()}"
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "cache-server", str(root),
             "--port", "0"],
            cwd=ROOT, env=_child_env(workdir), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        banner = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r" at (http://\S+) ", banner)
        if match is None:
            self.close()
            raise BenchError(f"cache-server did not start: {banner!r}")
        self.url = match.group(1)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_unit(workload: str, seed: int, workdir: Path, *, smoke: bool) -> dict:
    """One measured campaign in a fresh interpreter."""
    calib_start = time.monotonic()
    calibrate()
    calib_end = time.monotonic()
    if workload != "fabric-small":
        unit = _run_child("unit", workload, seed, workdir, smoke=smoke)
    else:
        unit_dir = workdir / f"unit-{time.monotonic_ns()}"
        unit_dir.mkdir()
        store = ResultStore(workdir)
        try:
            unit = _run_child("unit", workload, seed, unit_dir, smoke=smoke,
                              cache=str(unit_dir / "cache"), store_url=store.url)
        finally:
            store.close()
    unit["host.calib_s"] = calib_end - calib_start
    unit["spans"].append(["calibrate", calib_start, calib_end, None])
    return unit


# -- correctness ------------------------------------------------------------------


def combined_digest(digests: list) -> str:
    return hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()


def failed_points(digests: list, reference: list | str) -> int:
    """Points with no result or whose digest differs from *reference*.

    *reference* is either per-point digests or one recorded campaign
    digest, in which case any difference fails every point.
    """
    if isinstance(reference, str):
        return len(digests) if combined_digest(digests) != reference else 0
    if len(reference) != len(digests):
        return len(digests)
    return sum(d is None for d in digests) + sum(
        d is not None and d != r for d, r in zip(digests, reference, strict=True)
    )


class Reference:
    """The serial scalar path's digests for one workload, by campaign seed.

    Recorded digests are used while the code epoch and the campaign
    definition match the recording. Any other seed is computed live
    through ``SerialBackend`` once and kept under ``.bench_build``, so
    later runs in the same checkout reuse it.
    """

    def __init__(self, workload: str, workdir: Path, *, smoke: bool,
                 work_root: Path = WORK_ROOT) -> None:
        self.workload, self.workdir, self.smoke = workload, workdir, smoke
        self.cache_dir = work_root / "reference"
        self.live_s = 0.0
        recorded = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
        self.recorded_identity = (
            recorded.get("code_epoch"), recorded.get("campaigns", {}).get(workload)
        )
        self.recorded = recorded.get("digests", {}).get(workload, {})

    def get(self, seed: int, identity: dict) -> list | str:
        key = (identity["code_epoch"], identity["campaign_id"])
        if key == self.recorded_identity and str(seed) in self.recorded:
            return self.recorded[str(seed)]
        path = self.cache_dir / f"{'-'.join(key)}-{self.workload}-{seed}.json"
        if path.is_file():
            return json.loads(path.read_text())
        start = time.perf_counter()
        live = _run_child("reference", self.workload, seed, self.workdir, smoke=self.smoke)
        self.live_s += time.perf_counter() - start
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(live["digests"]))
        return live["digests"]


# -- one workload ------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class WorkloadRun:
    """Every sample, trace and check taken for one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path, *, smoke: bool,
                 work_root: Path = WORK_ROOT) -> None:
        self.workload, self.seed, self.workdir, self.smoke = workload, seed, workdir, smoke
        self.reference = Reference(workload, workdir, smoke=smoke, work_root=work_root)
        self.units: list[dict] = []
        self.next_seed = seed
        self.trace: dict | None = None
        #: ``{name, start, end, parent, workload, repeat}`` per span,
        #: in ``time.monotonic()`` seconds; written out with ``--json``.
        self.spans: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def _check(self, digests: list, seed: int, identity: dict) -> None:
        self.attempted += len(digests)
        self.failed += failed_points(digests, self.reference.get(seed, identity))

    def measure(self) -> None:
        """One campaign, on the next block of workload seeds."""
        seed = self.next_seed
        unit = run_unit(self.workload, seed, self.workdir, smoke=self.smoke)
        self.next_seed += unit["seeds_per_campaign"]
        self._check(unit["digests"], seed, unit)
        for digests in unit.get("readback_digests", ()):
            self._check(digests, seed, unit)
        self._keep_spans(unit["spans"], len(self.units))
        self.units.append(unit)

    def _keep_spans(self, spans: list, repeat: int | str) -> None:
        self.spans.extend(
            {"name": name, "start": start, "end": end, "parent": parent,
             "workload": self.workload, "repeat": repeat}
            for name, start, end, parent in spans
        )

    def traced(self) -> None:
        """The campaign on the first seeds, replayed in process and traced."""
        trace = _run_child("trace", self.workload, self.seed, self.workdir,
                           smoke=self.smoke)
        self._check(trace["digests"], self.seed, trace)
        self._check(trace["traced_digests"], self.seed, trace)
        self._keep_spans(trace["spans"], "trace")
        self.trace = trace

    def end_to_end(self) -> dict[str, list[float]]:
        """Per-campaign samples of every end-to-end metric."""
        return {
            "setup_s": [u["setup_s"] for u in self.units],
            "wall_s": [u["wall_s"] for u in self.units],
            "points_per_s": [u["points"] / u["wall_s"] for u in self.units],
            "flits_per_s": [u["flits"] / u["wall_s"] for u in self.units],
            "peak_rss_mb": [u["peak_rss_mb"] for u in self.units],
        }

    def per_layer(self, names: list[str]) -> dict[str, float]:
        """Medians of the campaigns' layer samples, then the traced run's
        metrics and the ratios derived from both; 0 for an unused layer."""
        layer = {m: _median([u.get(m, 0) for u in self.units]) for m in names}
        points = self.units[0]["points"] if self.units else 0
        classes = layer["batched.classes"]
        layer["batched.configs_per_class"] = points / classes if classes else 0.0
        dispatches = layer["fabric.dispatches"]
        layer["fabric.useful_dispatch_ratio"] = (
            layer["fabric.chunks"] / dispatches if dispatches else 0.0
        )
        layer["harness.failed_ratio"] = self.failed / max(self.attempted, 1)
        if self.trace is not None:
            layer.update(self.trace["metrics"])
            execute = layer["harness.execute_s"]
            layer["harness.speedup_vs_serial"] = (
                layer["harness.serial_compute_s"] / execute if execute else 0.0
            )
        return layer

    def record(self, spec: dict) -> dict:
        names = [m["name"] for m in spec["per_layer"]]
        return {
            "seed": self.seed,
            "attempted": self.attempted,
            "failed": self.failed,
            "reference_live_s": self.reference.live_s,
            "end_to_end": self.end_to_end(),
            "per_layer": self.per_layer(names) if self.trace is not None else {},
            "spans": self.spans,
        }


def _new_workdir(root: Path, label: str) -> Path:
    workdir = root / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    return workdir


def measure_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                     smoke: bool = False, min_units: int = MIN_UNITS,
                     work_root: Path = WORK_ROOT) -> WorkloadRun:
    """Campaigns until *seconds* have passed (at least *min_units*).

    A traced run spends half its budget on untraced campaigns, whose
    medians the traced replay is compared with, then traces once.
    """
    workdir = _new_workdir(work_root, workload)
    try:
        run = WorkloadRun(workload, seed, workdir, smoke=smoke, work_root=work_root)
        budget = seconds / 2 if trace else seconds
        start = time.monotonic()
        while len(run.units) < min_units or time.monotonic() - start < budget:
            run.measure()
        if trace:
            run.traced()
        return run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_all(names: list[str], seed: int, repeats: int, trace: bool, *,
                smoke: bool) -> dict[str, WorkloadRun]:
    """Every workload *repeats* times, the order rotating each repeat."""
    workdir = _new_workdir(WORK_ROOT, "all")
    try:
        runs = {n: WorkloadRun(n, seed, workdir, smoke=smoke) for n in names}
        for repeat in range(repeats):
            for name in names[repeat % len(names):] + names[:repeat % len(names)]:
                runs[name].measure()
        if trace:
            for run in runs.values():
                run.traced()
        return runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- reporting ----------------------------------------------------------------------


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_summary(spec: dict, workload: str, record: dict) -> None:
    units = _units(spec)
    print(f"\n== {workload} (seed {record['seed']}): "
          f"{record['attempted'] - record['failed']}/{record['attempted']} points correct")
    if record["reference_live_s"]:
        print(f"   live serial reference: {record['reference_live_s']:.2f} s")
    print(f"   {'metric':34} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, samples in record["end_to_end"].items():
        q1, q3 = _quartiles(samples)
        print(f"   {name:34} {units[name]:9} {_median(samples):12.5g} "
              f"{q1:12.5g} {q3:12.5g} {len(samples):3d}")
    for name, value in sorted(record["per_layer"].items()):
        print(f"   {name:34} {units.get(name, '?'):9} {value:12.5g}")


def driver_line(spec: dict, record: dict, trace: bool) -> str:
    """The one-line JSON result: end-to-end medians, or per-layer values."""
    units = _units(spec)
    if trace:
        values = {m["name"]: record["per_layer"][m["name"]] for m in spec["per_layer"]}
    else:
        values = {
            m["name"]: _median(record["end_to_end"][m["name"]])
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Both medians and quartiles per workload x end-to-end metric."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    disagree = 0
    print(f"{'workload':16} {'metric':14} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'diff':>7} {'bound':>6}")
    for workload in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sa, sb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            ma, mb = _median(sa), _median(sb)
            diff = (mb - ma) / ma if ma else 0.0
            agree = abs(diff) <= metric["bound"]
            disagree += not agree
            cells = [f"{m:.4g} [{q[0]:.4g}, {q[1]:.4g}]"
                     for m, q in ((ma, _quartiles(sa)), (mb, _quartiles(sb)))]
            print(f"{workload:16} {name:14} {cells[0]:>30} {cells[1]:>30} "
                  f"{diff:+7.1%} {metric['bound']:6.0%} {'ok' if agree else 'DISAGREE'}")
    print(f"\n{disagree} disagreement(s)")
    return 1 if disagree else 0


def record_reference(seeds: list[int], workloads: list[str]) -> None:
    """Record the serial scalar digests of *workloads* for *seeds* in
    ``reference.json``, keeping other workloads' recordings of the same
    code epoch."""
    workdir = _new_workdir(WORK_ROOT, "reference")
    try:
        recording: dict = {"code_epoch": None, "campaigns": {}, "digests": {}}
        if REFERENCE_PATH.is_file():
            recording = json.loads(REFERENCE_PATH.read_text())
        for workload in workloads:
            digests = recording["digests"][workload] = {}
            for seed in seeds:
                live = _run_child("reference", workload, seed, workdir, smoke=False)
                if live["code_epoch"] != recording["code_epoch"]:
                    recording = {"code_epoch": live["code_epoch"], "campaigns": {},
                                 "digests": {workload: digests}}
                recording["campaigns"][workload] = live["campaign_id"]
                digests[str(seed)] = combined_digest(live["digests"])
                print(f"{workload} seed {seed}: {digests[str(seed)][:16]}", flush=True)
        REFERENCE_PATH.write_text(json.dumps(recording, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- entry points ---------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(SRC))
    import campaigns

    if args.child == "unit":
        result = campaigns.run_unit(
            args.workload, args.seed, args.spawned_at, smoke=args.smoke,
            store_url=os.environ.get("REPRO_RESULT_STORE", ""),
            workdir=Path(args.workdir),
        )
    elif args.child == "trace":
        result = campaigns.run_trace(args.workload, args.seed, smoke=args.smoke)
    else:
        result = campaigns.run_reference(args.workload, args.seed, smoke=args.smoke)
    print(json.dumps(result))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="measure one workload for --seconds (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed S")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time for --workload (default: run_seconds)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="campaigns per workload when running all of them")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced run per workload")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write every sample to OUT (input of --compare)")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("A", "B"))
    parser.add_argument("--record-reference", default=None, metavar="FIRST-LAST",
                        help="record serial digests for a seed range "
                        "(of --workload, or of every workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="two points per campaign (smoke test only)")
    parser.add_argument("--child", choices=("unit", "trace", "reference"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.compare:
            return compare(spec, *args.compare)
        if args.record_reference:
            first, _, last = args.record_reference.partition("-")
            record_reference(list(range(int(first), int(last or first) + 1)),
                             [args.workload] if args.workload else names)
            return 0
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        runs: dict[str, WorkloadRun] = {}
        if args.workload is not None:
            seconds = spec["run_seconds"] if args.seconds is None else args.seconds
            runs[args.workload] = measure_workload(
                args.workload, args.seed, seconds, bool(args.trace), smoke=args.smoke
            )
        else:
            runs = measure_all(names, args.seed, args.repeats, bool(args.trace),
                               smoke=args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = {name: run.record(spec) for name, run in runs.items()}
    for name, record in records.items():
        print_summary(spec, name, record)
    if args.json:
        Path(args.json).write_text(json.dumps({"workloads": records}, indent=1) + "\n")
    failed = sum(r["failed"] for r in records.values())
    if args.workload is not None:
        print(driver_line(spec, records[args.workload], bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
