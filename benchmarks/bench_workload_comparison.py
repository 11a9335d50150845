"""Beyond the paper: the same DVS policy under different workload models.

Motivates the paper's Section 4.3 workload design: uniform random traffic
(no spatial or temporal variance) and permutations (no temporal variance)
exercise the history-based policy differently from the two-level
self-similar model.
"""

from .common import archive


def test_workload_comparison(benchmark):
    figure = archive(benchmark, "workloads")
    points = figure.extras["points"]
    # Every workload still saves power under DVS.
    for name, point in points.items():
        assert point.normalized_power < 0.9, name
    # The flow-structured workloads (two-level, permutation) leave more
    # links idle than uniform traffic at equal offered load, so they save
    # at least as much power.
    assert (
        points["two_level"].normalized_power
        <= points["uniform"].normalized_power * 1.25
    )
