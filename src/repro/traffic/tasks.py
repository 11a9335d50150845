"""The paper's two-level task workload (Section 4.3).

Level one: communication task sessions arrive as a Poisson process over
the whole network. Each session binds a random source node to a
destination chosen with a sphere of locality, and lives for a uniformly
jittered duration around the configured average (1 us to 1 ms in the
paper). The arrival rate is set by Little's law so the expected number of
concurrent sessions equals ``average_tasks`` (the paper's 50/100 knob).

Level two: within a session, packet injections are self-similar — a bank
of Pareto ON/OFF sources (:class:`~repro.traffic.onoff.OnOffSourceSet`).
Each session's average rate is drawn uniformly within +/-50% of the fair
share ``injection_rate / average_tasks``, per the paper's "average packet
injection rate across different communication task sessions is uniformly
distributed within a specified range".

In both of its modes a source bank keeps one heap entry per live burst.
The workload queues each session that has packets left exactly once,
keyed by its bank's next packet time, and drops it after its last packet.
"""

from __future__ import annotations

import heapq
import math

from ..config import WorkloadConfig
from ..errors import WorkloadError
from ..network.topology import Topology
from ..units import seconds_to_cycles
from .base import TrafficSource
from .locality import SphereOfLocality
from .onoff import OnOffSourceSet


class _TaskSession:
    """One live communication session."""

    __slots__ = ("src", "dst", "sources")

    def __init__(self, src: int, dst: int, sources: OnOffSourceSet):
        self.src = src
        self.dst = dst
        self.sources = sources


class TwoLevelWorkload(TrafficSource):
    """Poisson task sessions emitting self-similar packet traffic."""

    def __init__(
        self,
        topology: Topology,
        config: WorkloadConfig,
        *,
        router_clock_hz: float = 1.0e9,
    ):
        super().__init__(topology, config)
        if config.injection_rate <= 0.0:
            raise WorkloadError("two-level workload needs a positive rate")
        self.router_clock_hz = router_clock_hz
        self.duration_cycles = seconds_to_cycles(
            config.average_task_duration_s, router_clock_hz
        )
        if self.duration_cycles < 1:
            raise WorkloadError("task duration is under one router cycle")
        #: Little's law: arrivals per cycle for the target concurrency.
        self.task_arrival_rate = config.average_tasks / self.duration_cycles
        self.per_task_rate = config.injection_rate / config.average_tasks
        self.locality = SphereOfLocality(
            topology, config.locality_radius, config.locality_probability
        )

        #: Min-heap of (next packet time, tie-break, session), one entry
        #: per session with packets left.
        self._queue: list[tuple[float, int, _TaskSession]] = []
        self._tie = 0
        self._next_task_time = 0.0
        self.tasks_started = 0
        self.tasks_finished = 0
        self._prime_initial_sessions()

    # ------------------------------------------------------------------

    def _prime_initial_sessions(self) -> None:
        """Start the system in steady state: ~average_tasks live sessions.

        Each primed session has already run for a random fraction of its
        duration, so the session population neither ramps from zero nor
        expires in lockstep.
        """
        for _ in range(self.config.average_tasks):
            elapsed = self.rng.random()
            self._start_session(now=0, elapsed_fraction=elapsed)
        self._next_task_time = self.rng.expovariate(self.task_arrival_rate)

    def _draw_duration(self) -> int:
        jitter = self.config.task_duration_jitter
        factor = 1.0 + jitter * (2.0 * self.rng.random() - 1.0)
        return max(1, int(round(self.duration_cycles * factor)))

    def _start_session(self, now: int, elapsed_fraction: float = 0.0) -> None:
        src = self.rng.randrange(self.topology.node_count)
        dst = self.locality.choose(src, self.rng)
        duration = self._draw_duration()
        remaining = max(1, int(round(duration * (1.0 - elapsed_fraction))))
        rate = self.per_task_rate * (0.5 + self.rng.random())
        sources = OnOffSourceSet(
            self.rng,
            sources=self.config.onoff_sources_per_task,
            target_rate=rate,
            start=now,
            end=now + remaining,
            on_shape=self.config.on_shape,
            off_shape=self.config.off_shape,
            on_location=self.config.on_location_cycles,
            peak_interval=self.config.peak_interval_cycles,
        )
        session = _TaskSession(src, dst, sources)
        self.tasks_started += 1
        if not sources.exhausted:
            self._push(session)

    def _push(self, session: _TaskSession) -> None:
        self._tie += 1
        heapq.heappush(self._queue, (session.sources.next_time, self._tie, session))

    # ------------------------------------------------------------------

    @property
    def live_sessions(self) -> int:
        """Sessions with packets left to emit."""
        return len(self._queue)

    def injections(self, now: int) -> list[tuple[int, int]]:
        # Level one: new task sessions.
        while self._next_task_time <= now:
            self._start_session(now)
            self._next_task_time += self.rng.expovariate(self.task_arrival_rate)

        # Level two: packets due this cycle.
        if not self._queue or self._queue[0][0] > now:
            return []
        pairs: list[tuple[int, int]] = []
        queue = self._queue
        while queue and queue[0][0] <= now:
            _, _, session = heapq.heappop(queue)
            count = session.sources.advance(now)
            pairs.extend((session.src, session.dst) for _ in range(count))
            if not session.sources.exhausted:
                self._push(session)
            else:
                self.tasks_finished += 1
        return self._count(pairs)

    def next_injection_cycle(self, now: int) -> int | float:
        # Earliest of the next session arrival (level one) and the next
        # due packet across the live session heap (level two); before
        # that, injections() touches neither the RNG nor the heap.
        horizon = self._next_task_time
        if self._queue and self._queue[0][0] < horizon:
            horizon = self._queue[0][0]
        next_cycle = math.ceil(horizon)
        return next_cycle if next_cycle > now else now

    def spatial_snapshot(self, pairs: list[tuple[int, int]]) -> list[int]:
        """Per-node injection counts for a batch of pairs (Figure 8 aid)."""
        counts = [0] * self.topology.node_count
        for src, _ in pairs:
            counts[src] += 1
        return counts
