"""Shared plumbing for the benchmark suite.

Every figure benchmark builds one registry artifact
(:data:`repro.harness.experiments.FIGURES`) at the scale selected by
``REPRO_SCALE`` (smoke / default / paper; see
:mod:`repro.harness.scales`), times it once via pytest-benchmark's pedantic
mode (these are experiments, not microbenchmarks — re-running them for
statistics would multiply the suite's cost for no insight), prints the
rendered rows, archives them as ``benchmarks/results/<name>.{txt,json}``
and asserts the paper's shape on them. The benchmarks pass no figure
parameters: the registry's defaults are the archived ones.

Artifacts that later checks read again (Figures 10 and 11) and the
expensive inputs several artifacts share (the utilization profiles behind
Figures 3-5, the Table 2 threshold sweeps behind Figures 13 and 14) are
computed once per process and cached here.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from repro.harness.experiments import (
    FIGURES,
    FigureResult,
    threshold_sweeps,
    utilization_profiles,
)
from repro.harness.scales import ExperimentScale, get_scale

RESULTS_DIR = Path(__file__).parent / "results"


def add_profile_argument(parser) -> None:
    """Attach the suite's shared ``--profile`` flag to an argparse parser."""
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 20 functions by "
             "cumulative time when the benchmark finishes",
    )


@contextmanager
def maybe_profile(enabled: bool | None = None, *, limit: int = 20):
    """Profile the enclosed block when *enabled* (or ``REPRO_PROFILE=1``).

    Standalone scripts pass their ``--profile`` flag; the pytest-benchmark
    figure benchmarks can leave *enabled* as None and opt in through the
    ``REPRO_PROFILE`` environment variable instead. Prints cProfile's top
    *limit* entries sorted by cumulative time.
    """
    if enabled is None:
        enabled = os.environ.get("REPRO_PROFILE", "") not in ("", "0")
    if not enabled:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        print()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(limit)


def scale() -> ExperimentScale:
    """The suite's active scale preset (env-selectable)."""
    return get_scale()


def archive(benchmark, name: str, build=None) -> FigureResult:
    """Build artifact *name* once under the timer, print it, and archive
    it under its registry name: the text ``repro figure NAME`` prints and
    the JSON its ``--json`` writes.

    *build* defaults to the registry entry at the suite's scale; an
    artifact that shares a memoised input passes a builder that hands it
    that input.
    """
    figure = run_once(benchmark, build or (lambda: FIGURES[name](scale())))
    RESULTS_DIR.mkdir(exist_ok=True)
    text = figure.render()
    print()
    print(text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    figure.write_json(RESULTS_DIR / f"{name}.json")
    return figure


def run_once(benchmark, func):
    """Time *func* exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


@lru_cache(maxsize=4)
def cached_figure(name: str, scale_name: str) -> FigureResult:
    return FIGURES[name](get_scale(scale_name))


@lru_cache(maxsize=4)
def cached_threshold_sweeps(scale_name: str):
    return threshold_sweeps(get_scale(scale_name))


@lru_cache(maxsize=4)
def cached_profiles(scale_name: str):
    return utilization_profiles(get_scale(scale_name))
