"""Figure 12: power and throughput as congestion deepens.

Paper shape: as offered load climbs past saturation, accepted throughput
first rises then falls, and network power under the history DVS policy
*tracks throughput* — it rises while throughput rises and dips once the
whole network congests (stalled links show low utilization and get
down-scaled).
"""

from .common import archive


def test_fig12_congestion_power(benchmark):
    figure = archive(benchmark, "fig12")
    throughput = [row[2] for row in figure.rows]
    power = [row[3] for row in figure.rows]

    # Power rises from light load toward the throughput peak...
    peak = throughput.index(max(throughput))
    assert power[peak] > power[0]
    # ...and does not keep rising once throughput has collapsed: the
    # deepest-congestion point burns less than the peak point.
    assert power[-1] <= power[peak] * 1.05

    # Throughput is non-monotone (rises then saturates/dips).
    assert max(throughput) >= throughput[-1]
