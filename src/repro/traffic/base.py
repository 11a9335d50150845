"""Traffic source interface, the shared Poisson arrival process, factory.

A :class:`TrafficSource` is polled once per router cycle by the simulator:
:meth:`~TrafficSource.injections` returns the ``(src, dst)`` pairs of
packets created that cycle (usually an empty list). Implementations keep
their next arrival time (or a heap of them) at hand, so the common
no-arrival case costs one comparison.

The reference workloads (uniform, permutation, hotspot) share one
network-wide Poisson arrival process, :class:`PoissonTraffic`, and differ
only in how each packet picks its ``(src, dst)`` pair. The two-level task
workload keeps one heap entry per session with packets left, and each
session's ON/OFF source bank one heap entry per live burst, whichever of
its two modes it runs in.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from ..config import WorkloadConfig
from ..errors import WorkloadError
from ..network.topology import Topology


class TrafficSource(ABC):
    """Generates packet creations for the whole network."""

    def __init__(self, topology: Topology, config: WorkloadConfig):
        self.topology = topology
        self.config = config
        self.rng = random.Random(config.seed)
        self.packets_offered = 0

    @abstractmethod
    def injections(self, now: int) -> list[tuple[int, int]]:
        """``(src, dst)`` pairs of packets created at router cycle *now*.

        Called with strictly increasing *now*; implementations may assume
        monotonicity.
        """

    def pending_injections(self) -> int:
        """Known future injections, for drain detection.

        Open-ended generators return 0 (the default) — they cannot know;
        finite sources (trace replay) report their remaining entries so
        :meth:`repro.network.simulator.Simulator.drain` waits for them.
        """
        return 0

    def next_injection_cycle(self, now: int) -> int | float | None:
        """Earliest cycle >= *now* at which :meth:`injections` may act.

        The kernel's quiescence fast-forward skips polling this source for
        every cycle strictly before the returned value, so the contract is
        strict: for any cycle ``t`` with ``now <= t < next_injection_cycle
        (now)``, ``injections(t)`` must return ``[]`` *and* be free of
        side effects (no RNG draws, no internal state advance) — skipping
        those calls must be bit-identical to making them.

        Return ``math.inf`` when the source will never inject again, or
        ``None`` (the conservative default) when the source cannot
        predict, which disables fast-forward entirely.
        """
        return None

    def checkpoint(self) -> tuple[object, ...]:
        """An equality-comparable token over all mutable source state.

        The network sanitizer snapshots this around
        :meth:`next_injection_cycle` calls to verify the method's
        side-effect-freedom contract. Subclasses with mutable state beyond
        the base RNG and counter should extend the tuple.
        """
        return (self.packets_offered, self.rng.getstate())

    def _count(self, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Bookkeeping helper for subclasses: tally and pass through."""
        self.packets_offered += len(pairs)
        return pairs


class PoissonTraffic(TrafficSource):
    """Network-wide Poisson packet arrivals at the configured rate.

    The first arrival time is drawn at construction. Each arrival then
    draws its packet's pair through :meth:`_pair` before the next
    exponential inter-arrival gap, so a subclass supplies only its
    ``(src, dst)`` rule. A rate of zero never injects and draws nothing.
    """

    def __init__(self, topology: Topology, config: WorkloadConfig):
        super().__init__(topology, config)
        self._next_time = 0.0
        if config.injection_rate > 0.0:
            self._next_time = self.rng.expovariate(config.injection_rate)

    @abstractmethod
    def _pair(self) -> tuple[int, int]:
        """The ``(src, dst)`` pair of one new packet, drawn from ``rng``."""

    def injections(self, now: int) -> list[tuple[int, int]]:
        rate = self.config.injection_rate
        if rate <= 0.0 or self._next_time > now:
            return []
        pairs: list[tuple[int, int]] = []
        pair = self._pair
        expovariate = self.rng.expovariate
        while self._next_time <= now:
            pairs.append(pair())
            self._next_time += expovariate(rate)
        return self._count(pairs)

    def next_injection_cycle(self, now: int) -> int | float:
        if self.config.injection_rate <= 0.0:
            return math.inf
        # First integer cycle where `_next_time <= now` holds; injections()
        # is a pure no-op (no RNG draws) at every cycle before it.
        next_cycle = math.ceil(self._next_time)
        return next_cycle if next_cycle > now else now


def make_traffic(topology: Topology, config: WorkloadConfig) -> TrafficSource:
    """Build the traffic source described by *config*."""
    # Imports are local to avoid a cycle: concrete sources import this
    # module for the base class.
    from .permutation import PermutationTraffic
    from .tasks import TwoLevelWorkload
    from .uniform import UniformRandomTraffic

    if config.kind == "two_level":
        return TwoLevelWorkload(topology, config)
    if config.kind == "uniform":
        return UniformRandomTraffic(topology, config)
    if config.kind == "permutation":
        return PermutationTraffic(topology, config)
    raise WorkloadError(f"unknown workload kind {config.kind!r}")
