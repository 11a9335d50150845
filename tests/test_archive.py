"""The archive under ``benchmarks/results/`` and the figure registry name the
same artifacts, and the analytical ones match what the code computes.

The simulated artifacts are rebuilt by the benchmark suite at default
scale (minutes); the scale-independent ones cost nothing, so they are
compared here byte for byte.
"""

from pathlib import Path

import pytest

from repro.harness.experiments import FIGURES, SCALE_INDEPENDENT
from repro.harness.scales import DEFAULT_SCALE

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The perf smoke's output, archived beside the figures but not one.
NOT_FIGURES = {"step_throughput"}


def test_every_archived_artifact_is_a_registry_entry():
    archived = {path.stem for path in RESULTS.glob("*.json")} - NOT_FIGURES
    assert archived, f"no archive under {RESULTS}"
    assert archived <= set(FIGURES), sorted(archived - set(FIGURES))
    assert {path.stem for path in RESULTS.glob("*.txt")} == archived


@pytest.mark.parametrize("name", sorted(SCALE_INDEPENDENT))
def test_scale_independent_artifact_matches_its_archive(name, tmp_path):
    figure = FIGURES[name](DEFAULT_SCALE)
    path = figure.write_json(tmp_path / f"{name}.json")
    assert path.read_bytes() == (RESULTS / f"{name}.json").read_bytes()
    assert figure.render() + "\n" == (RESULTS / f"{name}.txt").read_text()
