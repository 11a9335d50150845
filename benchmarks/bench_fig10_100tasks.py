"""Figure 10: DVS vs non-DVS latency/throughput and power, 100 tasks.

Paper shape: history-based DVS saves a large factor of link power
(normalized power well below 1, biggest at light load), costs extra
latency at every load, and gives up only a small slice of throughput.
"""

from .common import archive, cached_figure, scale


def test_fig10_dvs_vs_nodvs_100tasks(benchmark):
    figure = archive(benchmark, "fig10", lambda: cached_figure("fig10", scale().name))
    summary = figure.extras["summary"]
    print(f"\nFigure 10 summary: {summary.describe()}")

    # Power savings large and biggest at light load.
    savings = [row[7] for row in figure.rows]
    assert max(savings) > 2.5
    assert savings[0] >= savings[-1] * 0.8

    # DVS latency above baseline at every measured rate.
    for row in figure.rows:
        lat_nodvs, lat_dvs = row[2], row[3]
        if lat_nodvs == lat_nodvs and lat_dvs == lat_dvs:  # skip NaN
            assert lat_dvs > lat_nodvs

    # Throughput loss bounded.
    assert summary.throughput_change > -0.15
