"""Figures 8 and 9: spatial and temporal variance of the injected workload.

Paper shape: the two-level task model produces strongly non-uniform
per-node load (Figure 8) and a bursty, long-range-dependent time series at
a single router (Figure 9) — unlike uniform/Poisson reference traffic.
"""

from repro.harness.experiments import fig9_temporal_variance
from repro.traffic.selfsim import hurst_variance_time

from .common import archive, run_once, scale


def test_fig8_spatial_variance(benchmark):
    figure = archive(benchmark, "fig8")
    mean = figure.extras["mean"]
    variance = figure.extras["variance"]
    # Uniform traffic would give a coefficient of variation near zero; the
    # task model concentrates load on session sources.
    assert variance > (mean**2) * 0.1


def test_fig9_temporal_variance(benchmark):
    figure = archive(benchmark, "fig9")
    series = [row[1] for row in figure.rows]
    mean = figure.extras["mean"]
    assert figure.extras["variance"] > 0.0
    # Bursty: some windows far above the mean, some silent.
    assert max(series) > 2.0 * mean
    if all(v == series[0] for v in series):
        raise AssertionError("temporal series is flat")


def test_fig9_series_is_long_range_dependent(benchmark):
    figure = run_once(
        benchmark,
        lambda: fig9_temporal_variance(scale(), window=100, windows=600),
    )
    series = [row[1] for row in figure.rows]
    hurst = hurst_variance_time(series)
    print(f"\nFigure 9 LRD check: variance-time Hurst estimate = {hurst:.3f}")
    assert hurst > 0.5
