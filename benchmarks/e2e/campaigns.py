"""The four benchmark campaigns, run inside one child interpreter each.

``bench_e2e.py`` starts a fresh interpreter per measured run and calls
one of :func:`run_unit`, :func:`run_trace` or :func:`run_reference` here.
Everything this module reports is timed from the outside: spans around
the public calls it makes into the harness, public counters, and, in the
traced run, cProfile self time bucketed by module.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import pickle
import pstats
import statistics
import time
import urllib.request
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import repro
from repro.config import SimulationConfig
from repro.harness.backends import ExecutionBackend, SerialBackend, make_backend
from repro.harness.cache import CODE_EPOCH, RemoteResultStore, SweepCache
from repro.harness.pareto import pareto_configs, run_pareto
from repro.harness.resilience import FailureReport
from repro.harness.scales import DEFAULT_SCALE, SMOKE_SCALE, ExperimentScale
from repro.harness.sweep import named_sweeps, summarize_comparison

#: The paper's zero-load DVS latency penalty (+10.8%, Sec 4.4.1).
PAPER_ZERO_LOAD_INCREASE = 0.108

#: Every sweep pairs no DVS against the paper's history policy.
POLICIES = ("none", "history")


@dataclass(frozen=True)
class Campaign:
    """One workload: a closed batch of configs and the backend it runs on.

    ``backend`` is ``serial`` (SerialBackend), ``batched`` (the lockstep
    kernel over a 2-process pool) or ``fabric`` (2 loopback distributed
    workers plus a shared result store). Sweep campaigns run every
    :data:`POLICIES` x ``seeds`` base config over ``rates`` through
    ``named_sweeps``; the pareto campaign runs every registered policy's
    knob grid over ``rates`` through ``run_pareto``.
    """

    kind: str
    backend: str
    scale: ExperimentScale
    tasks: int
    rates: tuple[float, ...]
    seeds: int = 1
    smoke: bool = False

    def smoke_variant(self) -> "Campaign":
        """Two points: the lowest rate, one seed, without and with DVS."""
        return replace(self, rates=self.rates[:1], seeds=1, smoke=True)

    def bases(self, seed: int) -> dict[str, SimulationConfig]:
        """Named base configs; workload seeds are seed, seed+1, ..."""
        return {
            f"{policy}@{seed + i}": self.scale.simulation(
                self.rates[0],
                policy=policy,
                workload_overrides={"average_tasks": self.tasks, "seed": seed + i},
            )
            for policy in POLICIES
            for i in range(self.seeds)
        }

    def pareto_grid(self) -> dict:
        """``run_pareto`` arguments: every registered policy's knob grid,
        or just ``none`` and default ``history`` in the smoke variant."""
        if not self.smoke:
            return {}
        return {"policies": POLICIES, "grid_overrides": {"history": [{}]}}

    def configs(self, seed: int) -> list[SimulationConfig]:
        """The flat config list, in the order the harness submits it."""
        bases = self.bases(seed)
        if self.kind == "pareto":
            base = bases[f"none@{seed}"]
            return pareto_configs(base, self.rates, **self.pareto_grid())[1]
        return [base.with_rate(rate) for base in bases.values() for rate in self.rates]


#: Short windows, and each run cycles through fresh workload seeds: the
#: two-level traffic is self-similar, so the work in one point varies
#: widely with its seed, and a run's median over many independently
#: seeded campaigns stays steady from one --seed to the next.
CAMPAIGNS = {
    "sweep-lowload": Campaign(
        "sweep", "serial", DEFAULT_SCALE.shrink(0.1), 50, (0.05, 0.1, 0.2, 0.3), seeds=3
    ),
    "sweep-highload": Campaign(
        "sweep", "serial", DEFAULT_SCALE.shrink(0.1), 100, (1.1, 1.5, 1.9)
    ),
    "pareto-batched": Campaign(
        "pareto", "batched", SMOKE_SCALE.shrink(0.25), 100, (0.3, 1.2)
    ),
    "fabric-small": Campaign(
        "sweep", "fabric", SMOKE_SCALE.shrink(0.5), 100, (0.1, 0.4, 0.7, 1.0), seeds=4
    ),
}


def campaign(name: str, smoke: bool = False) -> Campaign:
    spec = CAMPAIGNS[name]
    return spec.smoke_variant() if smoke else spec


def _identity(spec: Campaign) -> dict:
    """What recorded reference digests are valid for: the simulated
    semantics and the exact configs the campaign submits (seed 0's)."""
    fingerprints = "\n".join(c.fingerprint() for c in spec.configs(0))
    return {
        "code_epoch": CODE_EPOCH,
        "campaign_id": hashlib.sha256(fingerprints.encode("utf-8")).hexdigest()[:16],
    }


# -- correctness -------------------------------------------------------------


def point_digest(result) -> str | None:
    """sha256 over canonical JSON of one point's simulated results."""
    if result is None:
        return None
    fields = {
        "offered_rate": result.offered_rate,
        "accepted_rate": result.accepted_rate,
        "offered_packets": result.offered_packets,
        "ejected_packets": result.ejected_packets,
        "latency": asdict(result.latency),
        "power": asdict(result.power),
        "mean_level": result.mean_level,
        "requests_dropped": result.requests_dropped,
    }
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_counts(configs, results) -> dict:
    """Simulated totals over the measurement windows of every point."""
    done = [(c, r) for c, r in zip(configs, results, strict=True) if r is not None]
    return {
        "points": len(configs),
        "flits": sum(r.ejected_packets * c.network.flits_per_packet for c, r in done),
        "packets_offered": sum(r.offered_packets for _, r in done),
        "transitions": sum(r.power.transition_count for _, r in done),
        "requests_dropped": sum(r.requests_dropped for _, r in done),
        "fidelity": _fidelity(done),
        "digests": [point_digest(r) for r in results],
    }


def _fidelity(done) -> float:
    """|DVS/no-DVS mean latency - 1 - 0.108| at the lowest offered rate.

    Pairs each workload seed's ``none`` point with its first ``history``
    point at the campaign's lowest rate, and averages the ratios.
    """
    low = min((c.workload.injection_rate for c, _ in done), default=None)
    first: dict = {}
    for c, r in done:
        if c.workload.injection_rate == low and r.latency.count:
            first.setdefault((c.dvs.policy, c.workload.seed), r)
    ratios = [
        first[("history", seed)].latency.mean / r.latency.mean
        for (policy, seed), r in first.items()
        if policy == "none" and ("history", seed) in first
    ]
    if not ratios:
        return float("nan")
    return abs(statistics.fmean(ratios) - 1.0 - PAPER_ZERO_LOAD_INCREASE)


# -- one measured run ---------------------------------------------------------


class _TimedBackend(ExecutionBackend):
    """Delegates to a real backend, timing ``run`` and keeping its results."""

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        self.span = (0.0, 0.0)
        self.results: list = []

    def run(self, configs):
        start = time.monotonic()
        self.results, report = self.inner.run(configs)
        self.span = (start, time.monotonic())
        return self.results, report


def _build_backend(spec: Campaign, progress) -> ExecutionBackend:
    if spec.backend == "batched":
        return make_backend(2, kernel="batched")
    if spec.backend == "fabric":
        return make_backend(backend="distributed", workers=2, progress=progress)
    return SerialBackend()


def _quantile_ms(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1e3 if samples else 0.0
    return statistics.quantiles(samples, n=10, method="inclusive")[q - 1] * 1e3


def _read_back(configs, store_url: str, workdir: Path) -> dict:
    """Load every point from the store into an empty local cache, twice."""
    with urllib.request.urlopen(f"{store_url}/stats", timeout=10) as response:
        stats = json.load(response)
    cache = SweepCache(workdir / "readback", remote=RemoteResultStore(store_url))
    remote, local, digests = [], [], []
    for samples in (remote, local):
        digests.append([])
        for config in configs:
            start = time.monotonic()
            results, _, _ = cache.partition([config])
            samples.append(time.monotonic() - start)
            digests[-1].append(point_digest(results[0]))
    return {
        "store.entries": stats["entries"],
        "store.kib": stats["bytes"] / 1024,
        "store.get_ms.p50": _quantile_ms(remote, 5),
        "store.get_ms.p90": _quantile_ms(remote, 9),
        "cache.load_ms.p50": _quantile_ms(local, 5),
        "cache.load_ms.p90": _quantile_ms(local, 9),
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "readback_digests": digests,
    }


def run_unit(name: str, seed: int, spawned_at: float, *, smoke: bool,
             store_url: str, workdir: Path) -> dict:
    """One measured campaign: setup, submit, wait for and fold every point.

    Times are ``time.monotonic()``, the clock the parent stamped
    *spawned_at* with, so setup includes interpreter start and imports.
    Spans are ``[name, start, end, parent]``.
    """
    spec = campaign(name, smoke)
    plan_start = time.monotonic()
    configs = spec.configs(seed)
    plan_end = time.monotonic()
    registered: list[float] = []

    def progress(line: str) -> None:
        if " registered " in line:
            registered.append(time.monotonic())

    backend = _TimedBackend(_build_backend(spec, progress))
    failures = FailureReport()
    submitted = time.monotonic()
    if spec.kind == "pareto":
        run_pareto(spec.bases(seed)[f"none@{seed}"], spec.rates, backend=backend,
                   failures=failures, **spec.pareto_grid())
    else:
        sweeps = named_sweeps(spec.bases(seed), spec.rates, backend=backend,
                              failures=failures)
        for i in range(spec.seeds):
            baseline, dvs = sweeps[f"none@{seed + i}"], sweeps[f"history@{seed + i}"]
            # The paper's summary needs both zero-load points to have
            # delivered packets; a near-idle seed may deliver none.
            if len(baseline) == len(dvs) == len(spec.rates) and not any(
                math.isnan(p.mean_latency) for p in (baseline[0], dvs[0])
            ):
                summarize_comparison(baseline, dvs)
    folded = time.monotonic()

    exec_start, exec_end = backend.span
    spans = [
        ["campaign", spawned_at, folded, None],
        ["setup", spawned_at, submitted, "campaign"],
        ["plan", plan_start, plan_end, "setup"],
        ["execute", exec_start, exec_end, "campaign"],
        ["fold", exec_end, folded, "campaign"],
    ]
    results = backend.results
    sizes = [
        len(pickle.dumps(c)) + len(pickle.dumps(r))
        for c, r in zip(configs, results, strict=True)
    ]
    out = {
        **_identity(spec),
        "seeds_per_campaign": spec.seeds,
        "setup_s": submitted - spawned_at,
        "wall_s": folded - submitted,
        "harness.plan_s": plan_end - plan_start,
        "harness.execute_s": exec_end - exec_start,
        "harness.fold_s": folded - exec_end,
        "harness.payload_kib": statistics.fmean(sizes) / 1024,
        "resilience.incidents": len(failures.incidents),
        "resilience.failures": len(failures.failures),
        **_result_counts(configs, results),
        "spans": spans,
    }
    inner = backend.inner
    kernel = getattr(inner, "kernel_stats", None)
    if kernel is not None:
        out.update({f"batched.{key}": value for key, value in kernel.items()})
    fabric = getattr(inner, "stats", None)
    if fabric is not None:
        out.update({f"fabric.{key}": value for key, value in fabric.items()})
        if registered:
            out["fabric.register_s"] = registered[-1] - exec_start
            spans.append(["register", exec_start, registered[-1], "execute"])
        readback_start = time.monotonic()
        out.update(_read_back(configs, store_url, workdir))
        spans.append(["readback", readback_start, time.monotonic(), None])
    return out


# -- the traced run -------------------------------------------------------------

_TRANSPORT = {"channel", "vc", "buffers", "flowcontrol", "routing", "arbiters", "packet"}

BUCKETS = (
    "network.engine_s", "network.router_s", "network.transport_s",
    "network.batched_s", "core.policy_s", "traffic.gen_s",
    "instrument.observe_s", "harness.inproc_s",
)


def _module_bucket(filename: str, package: str) -> str | None:
    """The bucket of a repro source file, ``None`` outside the package."""
    if not filename.startswith(package):
        return None
    rel = filename[len(package):]
    layer, _, module = rel.partition("/")
    module = module.removesuffix(".py")
    if layer == "network":
        if module == "router":
            return "network.router_s"
        if module in _TRANSPORT:
            return "network.transport_s"
        if module in ("batched", "snapshot"):
            return "network.batched_s"
        return "network.engine_s"
    if layer == "core":
        return "core.policy_s"
    if layer == "traffic":
        return "traffic.gen_s"
    if layer in ("instrument", "power", "metrics"):
        return "instrument.observe_s"
    return "harness.inproc_s"


def attribute(stats: dict, package: str) -> dict[str, float]:
    """Bucket every function's self time by module.

    Functions outside the package (C builtins, the standard library) are
    charged to their callers in proportion to the self time each caller
    incurred in them; uncalled roots count as in-process harness time.
    """
    shares: dict = {}

    def resolve(func, active: set) -> dict[str, float]:
        if func in shares:
            return shares[func]
        own = _module_bucket(func[0], package)
        if own is not None:
            share = {own: 1.0}
        else:
            callers = {c: v for c, v in stats[func][4].items() if c in stats}
            total = sum(v[2] for v in callers.values())
            if total <= 0 or func in active:
                share = {"harness.inproc_s": 1.0}
            else:
                share = {}
                active.add(func)
                for caller, v in callers.items():
                    for bucket, part in resolve(caller, active).items():
                        share[bucket] = share.get(bucket, 0.0) + part * v[2] / total
                active.discard(func)
        shares[func] = share
        return share

    buckets = dict.fromkeys(BUCKETS, 0.0)
    for func, (_, _, tt, _, _) in stats.items():
        for bucket, part in resolve(func, set()).items():
            buckets[bucket] += tt * part
    return buckets


def _profile_entry(stats: dict, package: str, module: str, name: str) -> tuple:
    """cProfile's ``(cc, nc, tt, ct, callers)`` for one repro function."""
    path = package + module
    for (filename, _, func), entry in stats.items():
        if filename == path and func == name:
            return entry
    return (0, 0, 0.0, 0.0, {})


def _replay(spec: Campaign, configs) -> list:
    """The campaign's configs, in process, with the campaign's kernel."""
    if spec.backend == "batched":
        backend = make_backend(1, kernel="batched")
    else:
        backend = SerialBackend()
    return backend.run(configs)[0]


def run_trace(name: str, seed: int, *, smoke: bool) -> dict:
    """In-process replay, untraced then under cProfile, plus exact counts."""
    spec = campaign(name, smoke)
    configs = spec.configs(seed)
    start = time.monotonic()
    results = _replay(spec, configs)
    untraced_end = time.monotonic()

    profiler = cProfile.Profile()
    profiler.enable()
    traced = _replay(spec, configs)
    profiler.disable()
    end = time.monotonic()
    serial_s, traced_s = untraced_end - start, end - untraced_end

    package = str(Path(repro.__file__).resolve().parent) + "/"
    stats = pstats.Stats(profiler).stats
    buckets = attribute(stats, package)
    step = _profile_entry(stats, package, "network/engine.py", "step")
    boundary = _profile_entry(stats, package, "network/engine.py", "finish_boundary_step")
    advances = _profile_entry(stats, package, "network/engine.py", "_advance_chunk")
    stepped_by_advance = sum(v[0] for c, v in step[4].items() if c[2] == "_advance_chunk")
    close = _profile_entry(stats, package, "core/controller.py", "close_window")
    counts = _result_counts(configs, results)
    sim_cycles = sum(c.warmup_cycles + c.measure_cycles for c in configs)
    stepped = step[1] + boundary[1]
    metrics = {
        **buckets,
        "harness.serial_compute_s": serial_s,
        "trace.coverage": sum(buckets.values()) / traced_s,
        "trace.overhead": traced_s / serial_s,
        "network.sim_cycles": sim_cycles,
        "network.stepped_cycles": stepped,
        "network.step_ratio": stepped / sim_cycles,
        "network.idle_spans": advances[1] - stepped_by_advance,
        "network.router_steps": _profile_entry(stats, package, "network/router.py", "step")[1],
        "network.flits_delivered": counts["flits"],
        "network.host_us_per_flit": serial_s * 1e6 / max(counts["flits"], 1),
        "core.window_closes": close[1],
        "core.us_per_window_close": close[3] * 1e6 / close[1] if close[1] else 0.0,
        "core.transitions": counts["transitions"],
        "core.requests_dropped": counts["requests_dropped"],
        "traffic.packets_offered": counts["packets_offered"],
        "fidelity.zero_load_latency_err": counts["fidelity"],
    }
    return {
        **_identity(spec),
        "metrics": metrics,
        "digests": counts["digests"],
        "traced_digests": [point_digest(r) for r in traced],
        "spans": [
            ["replay", start, untraced_end, None],
            ["traced_replay", untraced_end, end, None],
        ],
    }


def run_reference(name: str, seed: int, *, smoke: bool) -> dict:
    """Per-point digests from the serial scalar path: the correctness oracle."""
    spec = campaign(name, smoke)
    configs = spec.configs(seed)
    results, _ = SerialBackend().run(configs)
    return {**_identity(spec), "digests": [point_digest(r) for r in results]}
