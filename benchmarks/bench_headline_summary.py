"""The paper's abstract numbers, recomputed from the Figure 10 sweep.

Paper: up to 6.3X power savings (4.6X average), +10.8% zero-load latency,
+15.2% average pre-saturation latency, -2.5% throughput. We reproduce the
savings and throughput shape; the latency penalty is larger at our scales
(EXPERIMENTS.md discusses why).
"""

from repro.harness.experiments import headline_summary

from .common import archive, cached_figure, scale


def test_headline_summary(benchmark):
    figure = archive(
        benchmark,
        "headline",
        lambda: headline_summary(scale(), fig10=cached_figure("fig10", scale().name)),
    )
    summary = figure.extras["summary"]
    print(f"\nHeadline: {summary.describe()}")

    # The shape bar: large savings, small throughput loss, positive
    # latency cost.
    assert summary.max_savings > 2.0
    assert summary.average_savings > 1.8
    assert summary.throughput_change > -0.15
    assert summary.zero_load_increase > 0.0
