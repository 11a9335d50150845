"""Measurement machinery: latency, throughput, utilization profiles.

These collectors implement the paper's metrics (Section 4.2): packet
latency from first-flit creation (source queueing included) to last-flit
ejection; throughput as accepted packets per cycle; the 2x-zero-load
saturation rule; and the LU/BU/BA window profiles of Figures 3-5.
"""

from .histogram import Histogram
from .latency import LatencyCollector, LatencyStats
from .throughput import saturation_point, saturation_throughput
from .timeseries import WindowedSeries
from .utilization import UtilizationProbe

__all__ = [
    "Histogram",
    "LatencyCollector",
    "LatencyStats",
    "saturation_point",
    "saturation_throughput",
    "WindowedSeries",
    "UtilizationProbe",
]
