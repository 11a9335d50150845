"""Windowed time series: the series a ``Simulator`` built with a
``series_window`` records (no figure reads them)."""

from __future__ import annotations

from ..errors import ConfigError


class WindowedSeries:
    """Per-window scalar samples at a fixed window size."""

    __slots__ = ("window_cycles", "values", "_window_start")

    def __init__(self, window_cycles: int):
        if window_cycles <= 0:
            raise ConfigError("window must be positive")
        self.window_cycles = window_cycles
        self.values: list[float] = []
        self._window_start = 0

    def append(self, value: float) -> None:
        self.values.append(value)
        self._window_start += self.window_cycles

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> list[int]:
        """Window-end cycles aligned with :attr:`values`."""
        return [
            (i + 1) * self.window_cycles for i in range(len(self.values))
        ]

    def mean(self) -> float:
        if not self.values:
            raise ConfigError("series is empty")
        return sum(self.values) / len(self.values)

    def variance(self) -> float:
        if len(self.values) < 2:
            raise ConfigError("need at least two samples for variance")
        m = self.mean()
        return sum((v - m) ** 2 for v in self.values) / (len(self.values) - 1)
