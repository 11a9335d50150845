"""Experiment harness: per-figure reproductions of the paper's evaluation.

Every table and figure in the paper's Section 4 has a function in
:mod:`repro.harness.experiments` that regenerates it (workload, sweep,
baseline and the reported rows/series), at a configurable scale
(:class:`~repro.harness.scales.ExperimentScale`). ``benchmarks/`` wraps
each one in a pytest-benchmark target.
"""

from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_backend,
    make_backend,
)
from .chaos import ChaosPlan
from .resilience import FailureReport, PointFailure, RetryPolicy, run_point
from .runner import build_simulator, run_simulation
from .scales import DEFAULT_SCALE, PAPER_SCALE, SMOKE_SCALE, ExperimentScale, get_scale
from .serialization import to_json, write_json
from .sweep import (
    SweepPoint,
    compare_policies,
    named_sweeps,
    rate_sweep,
    resume_preview,
)
from .tables import render_table

__all__ = [
    "build_simulator",
    "run_simulation",
    "run_point",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "default_backend",
    "RetryPolicy",
    "PointFailure",
    "FailureReport",
    "ChaosPlan",
    "ExperimentScale",
    "SMOKE_SCALE",
    "DEFAULT_SCALE",
    "PAPER_SCALE",
    "get_scale",
    "SweepPoint",
    "rate_sweep",
    "compare_policies",
    "named_sweeps",
    "resume_preview",
    "render_table",
    "to_json",
    "write_json",
]
