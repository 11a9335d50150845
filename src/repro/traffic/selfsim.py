"""Self-similarity validation: Hurst exponent estimators.

The paper defines self-similar (long-range dependent) traffic by a
polynomially decaying autocorrelation (Eq. (6)); the standard scalar
summary is the Hurst exponent ``H = 1 - beta/2``: ``H = 0.5`` for
short-range-dependent processes (Poisson), ``0.5 < H < 1`` for LRD
traffic. Two classical estimators over a per-cycle (or per-bin) count
series are provided:

* rescaled-range (R/S) analysis — slope of ``log E[R/S]`` vs ``log n``;
* variance-time analysis — aggregated series variance decays like
  ``m^(2H-2)``.

Both are block estimators with the usual small-sample bias; the test suite
checks *separation* (ON/OFF traffic scores clearly above Poisson), not
absolute values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import WorkloadError

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, so importing the
# traffic package (which every simulation does) never loads it.


def _as_series(counts) -> np.ndarray:
    import numpy as np

    series = np.asarray(counts, dtype=float)
    if series.ndim != 1 or series.size < 32:
        raise WorkloadError("need a 1-D series of at least 32 samples")
    if np.all(series == series[0]):
        raise WorkloadError("series is constant; Hurst exponent undefined")
    return series


def _log_block_sizes(n: int, minimum: int = 8, points: int = 12) -> np.ndarray:
    import numpy as np

    sizes = np.unique(
        np.logspace(np.log10(minimum), np.log10(n // 4), points).astype(int)
    )
    return sizes[sizes >= minimum]


def hurst_rs(counts) -> float:
    """Rescaled-range (R/S) estimate of the Hurst exponent."""
    import numpy as np

    series = _as_series(counts)
    n = series.size
    sizes = _log_block_sizes(n)
    log_sizes = []
    log_rs = []
    for size in sizes:
        blocks = n // size
        if blocks < 1:
            continue
        rs_values = []
        for b in range(blocks):
            block = series[b * size : (b + 1) * size]
            deviations = np.cumsum(block - block.mean())
            spread = deviations.max() - deviations.min()
            scale = block.std()
            if scale > 0.0 and spread > 0.0:
                rs_values.append(spread / scale)
        if rs_values:
            log_sizes.append(np.log(size))
            log_rs.append(np.log(np.mean(rs_values)))
    if len(log_sizes) < 3:
        raise WorkloadError("series too short or too sparse for R/S analysis")
    slope, _ = np.polyfit(log_sizes, log_rs, 1)
    return float(slope)


def hurst_variance_time(counts) -> float:
    """Variance-time estimate of the Hurst exponent.

    Aggregating an LRD series over blocks of size ``m`` shrinks the sample
    variance like ``m^(2H-2)``; the slope of the log-log variance-vs-m line
    gives ``H = 1 + slope/2``.
    """
    import numpy as np

    series = _as_series(counts)
    n = series.size
    sizes = _log_block_sizes(n, minimum=2)
    log_sizes = []
    log_vars = []
    for size in sizes:
        blocks = n // size
        if blocks < 4:
            continue
        aggregated = series[: blocks * size].reshape(blocks, size).mean(axis=1)
        variance = aggregated.var()
        if variance > 0.0:
            log_sizes.append(np.log(size))
            log_vars.append(np.log(variance))
    if len(log_sizes) < 3:
        raise WorkloadError("series too short for variance-time analysis")
    slope, _ = np.polyfit(log_sizes, log_vars, 1)
    return float(1.0 + slope / 2.0)
