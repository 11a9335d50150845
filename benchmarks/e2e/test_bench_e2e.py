"""Smoke test of the end-to-end benchmark: two points per workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py``.
Every child interpreter, cache directory and result store lives under
``tmp_path``; each child (and the cache-server and fabric workers it
starts) is reaped before its call returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_e2e  # noqa: E402

SPEC = bench_e2e.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    run = bench_e2e.measure_workload(
        workload, 1, 0.0, True, smoke=True, min_units=1, work_root=tmp_path
    )
    record = run.record(SPEC)
    assert run.attempted > 0 and run.failed == 0
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(bench_e2e.driver_line(SPEC, record, trace))
        assert line["correct"] is True
        for metric in SPEC[group]:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    assert record["end_to_end"]["wall_s"][0] > 0
    assert record["per_layer"]["trace.coverage"] >= 0.9


def test_tampered_result_trips_the_digest_check(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    unit = bench_e2e.run_unit("sweep-lowload", 1, workdir, smoke=True)
    reference = bench_e2e.Reference("sweep-lowload", workdir, smoke=True, work_root=tmp_path)
    expected = reference.get(1, unit)
    digests = unit["digests"]
    assert bench_e2e.failed_points(digests, expected) == 0

    tampered = ["0" * 64] + digests[1:]
    assert bench_e2e.failed_points(tampered, expected) == 1
    assert bench_e2e.failed_points([None] + digests[1:], expected) == 1
    recorded = bench_e2e.combined_digest(digests)
    assert bench_e2e.failed_points(digests, recorded) == 0
    assert bench_e2e.failed_points(tampered, recorded) == len(digests)
