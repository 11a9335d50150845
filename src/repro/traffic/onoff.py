"""Multiplexed Pareto ON/OFF sources — the self-similar packet process.

The paper's second workload level: "self-similar traffic can be generated
by multiplexing ON/OFF sources that have Pareto-distributed ON and OFF
periods" [Leland et al.], with ON shape 1.4 and OFF shape 1.2. During an
ON period a source emits packets at a fixed peak spacing; OFF periods are
silent. Because the period distributions are heavy-tailed (infinite
variance), the superposition of many such sources is long-range dependent.

Calibration: the paper specifies the two shapes and the per-task average
rate but not the location parameters. We fix the ON location (hence the
mean burst length) and the peak packet spacing, then solve the OFF
location so the source's renewal-reward rate matches the requested
average:

    rate = E[packets per burst] / (E[on] + E[off])

All expectations use Pareto means **truncated at the source's lifetime**:
with 1 < shape < 2 the untruncated mean is dominated by rare huge samples
that a finite task session never observes, and calibrating against it
over-delivers by 2x or more on realistic horizons. If the requested rate
is too high for the configured spacing, the spacing is tightened so the
duty cycle stays below 0.9.

Emission is lazy in both modes. A renewal source draws each OFF and ON
period when its previous burst runs out. A Poisson-burst set makes all
its draws when it is built (each source's burst count, then each burst's
start and ON length) but keeps only every burst's next packet time and
bound; :meth:`OnOffSourceSet.advance` adds the peak spacing once per
emitted packet. A set therefore costs memory per burst rather than per
packet time, and nothing for packets due after the simulation stops.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Iterator

from ..errors import WorkloadError
from .pareto import (
    pareto_location_for_mean,
    pareto_location_for_truncated_mean,
    pareto_sample,
    pareto_truncated_mean,
)


class _RenewalPacketStream:
    """Unbounded stream of one renewal-mode source's packet times.

    Each source starts mid-OFF at a random phase so the bank does not
    fire in lockstep at task start. This used to be a generator function,
    but live generators cannot be pickled or deepcopied (lint R11 flags
    generator state in traffic classes), so the stream state lives in
    plain attributes instead. The RNG draw order is
    identical to the old generator's, including performing the initial
    phase draw lazily at the first ``__next__`` (a generator body does
    not run until first resumed), which the golden determinism tests pin.
    """

    __slots__ = ("owner", "t", "burst_end", "started")

    def __init__(self, owner: "OnOffSourceSet"):
        self.owner = owner
        self.t = 0.0
        self.burst_end = 0.0
        self.started = False

    def __iter__(self) -> "_RenewalPacketStream":
        return self

    def __next__(self) -> float:
        owner = self.owner
        rng = owner.rng
        if not self.started:
            self.started = True
            phase = rng.random()
            self.t = owner.start + phase * pareto_sample(
                rng, owner.off_shape, owner.off_location
            )
            self.burst_end = self.t + pareto_sample(
                rng, owner.on_shape, owner.on_location
            )
        while self.t >= self.burst_end:
            self.t = self.burst_end + pareto_sample(
                rng, owner.off_shape, owner.off_location
            )
            self.burst_end = self.t + pareto_sample(
                rng, owner.on_shape, owner.on_location
            )
        time = self.t
        self.t += owner.peak_interval
        return time


class OnOffSourceSet:
    """A bank of multiplexed ON/OFF sources for one traffic flow.

    Emits absolute packet times in ``[start, end)``. The owner polls
    :attr:`next_time` and calls :meth:`advance` to collect the packets due
    by the current cycle.
    """

    __slots__ = (
        "rng",
        "start",
        "end",
        "on_shape",
        "off_shape",
        "on_location",
        "peak_interval",
        "off_location",
        "mode",
        "bursts_per_source",
        "_heap",
        "packets_emitted",
    )

    def __init__(
        self,
        rng: random.Random,
        *,
        sources: int,
        target_rate: float,
        start: int,
        end: int,
        on_shape: float = 1.4,
        off_shape: float = 1.2,
        on_location: float = 60.0,
        peak_interval: float = 20.0,
    ):
        if sources < 1:
            raise WorkloadError("need at least one ON/OFF source")
        if target_rate <= 0.0:
            raise WorkloadError("target rate must be positive")
        if end <= start:
            raise WorkloadError("source set must have a positive lifetime")
        self.rng = rng
        self.start = start
        self.end = end
        self.on_shape = on_shape
        self.off_shape = off_shape
        self.on_location = on_location

        per_source_rate = target_rate / sources
        peak_interval = float(peak_interval)
        duty = per_source_rate * peak_interval
        if duty >= 0.9:
            # Requested rate too high for the configured spacing; emit
            # faster during bursts instead of saturating the duty cycle.
            peak_interval = 0.9 / per_source_rate
            duty = 0.9
        self.peak_interval = peak_interval

        # Renewal-reward calibration with lifetime-truncated means: a burst
        # of duration `on` emits floor(on / interval) + 1 packets, so
        #   rate = (E[on]/interval + 1) / (E[on] + E[off])
        # and we solve the truncated E[off] that hits per_source_rate.
        lifetime = float(end - start)
        mean_on = pareto_truncated_mean(on_shape, on_location, lifetime)
        packets_per_burst = mean_on / peak_interval + 1.0
        mean_off = packets_per_burst / per_source_rate - mean_on
        if mean_off <= 0.0:
            raise WorkloadError(
                "per-source rate exceeds the burst rate; add sources or "
                "lower the rate"
            )
        # A session of finite lifetime cannot realize OFF periods much
        # longer than itself — with fewer than about one ON/OFF cycle per
        # lifetime, renewal-reward calibration is dominated by edge
        # effects. Below that point each source switches to Poisson-burst
        # mode: a Poisson number of Pareto-long bursts placed uniformly in
        # the lifetime, which hits the rate exactly in expectation while
        # keeping burst lengths heavy-tailed.
        mean_off_cap = 0.5 * lifetime
        if mean_off <= mean_off_cap:
            self.mode = "renewal"
            self.off_location = pareto_location_for_truncated_mean(
                off_shape, mean_off, lifetime
            )
            self.bursts_per_source = lifetime / (mean_on + mean_off)
        else:
            self.mode = "poisson_burst"
            self.off_location = pareto_location_for_mean(off_shape, mean_off)
            self.bursts_per_source = per_source_rate * lifetime / packets_per_burst

        # Renewal mode: one (next time, source index, stream) entry per
        # source. Poisson-burst mode: one (next time, burst index, bound)
        # entry per burst.
        self._heap: list[tuple[float, int, Any]]
        if self.mode == "renewal":
            self._heap = []
            for index in range(sources):
                gen = _RenewalPacketStream(self)
                first = self._next_within_lifetime(gen)
                if first is not None:
                    self._heap.append((first, index, gen))
        else:
            self._heap = self._poisson_bursts(sources)
        heapq.heapify(self._heap)
        self.packets_emitted = 0

    @property
    def next_time(self) -> float:
        """Absolute cycle of the next packet, or +inf when exhausted."""
        return self._heap[0][0] if self._heap else math.inf

    @property
    def exhausted(self) -> bool:
        return not self._heap

    def advance(self, now: int) -> int:
        """Count of packets due at cycles <= *now*; removes them."""
        count = 0
        heap = self._heap
        if self.mode == "renewal":
            while heap and heap[0][0] <= now:
                _, index, gen = heapq.heappop(heap)
                count += 1
                nxt = self._next_within_lifetime(gen)
                if nxt is not None:
                    heapq.heappush(heap, (nxt, index, gen))
        else:
            interval = self.peak_interval
            while heap and heap[0][0] <= now:
                time, index, bound = heap[0]
                count += 1
                time += interval
                if time < bound:
                    heapq.heapreplace(heap, (time, index, bound))
                else:
                    heapq.heappop(heap)
        self.packets_emitted += count
        return count

    # ------------------------------------------------------------------

    def _next_within_lifetime(self, gen: Iterator[float]) -> float | None:
        time = next(gen, None)
        if time is None or time >= self.end:
            return None
        return time

    def _poisson_bursts(self, sources: int) -> list[tuple[float, int, float]]:
        """One ``(first time, index, bound)`` entry per Poisson-mode burst.

        Draws what the sources need, in source order: each source's
        Poisson burst count, then every burst's start and ON length. A
        burst emits at ``start``, ``start + interval``, ... while the time
        stays below ``bound = min(start + on, end)``; :meth:`advance`
        makes those additions one packet at a time, so a burst costs the
        same whatever its length. The index breaks ties between bursts
        due at the same time.
        """
        rng = self.rng
        draw = rng.random
        start = self.start
        end = self.end
        lifetime = end - start
        on_shape = self.on_shape
        on_location = self.on_location
        # Knuth Poisson sampler; bursts_per_source is <= ~2 in this mode.
        threshold = math.exp(-self.bursts_per_source)
        bursts: list[tuple[float, int, float]] = []
        for _ in range(sources):
            count = 0
            product = draw()
            while product > threshold:
                count += 1
                product *= draw()
            for _ in range(count):
                burst_start = start + draw() * lifetime
                bound = burst_start + pareto_sample(rng, on_shape, on_location)
                if bound > end:
                    bound = end
                if burst_start < bound:
                    bursts.append((burst_start, len(bursts), bound))
        return bursts
