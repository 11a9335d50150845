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

Emission is lazy, and both modes share one representation: a heap with
one ``(next packet time, index, bound)`` entry per live burst, where
:meth:`OnOffSourceSet.advance` adds the peak spacing once per emitted
packet. A Poisson-burst set makes all its draws when it is built (each
source's burst count, then each burst's start and ON length) and cuts
each bound at the set's end. A renewal set keeps one entry per source
whose bound is the current burst's ON end; when a packet time reaches it,
``advance`` draws that source's next OFF and ON periods. A set therefore
costs memory per burst rather than per packet time, and nothing for
packets due after the simulation stops.
"""

from __future__ import annotations

import heapq
import math
import random

from ..errors import WorkloadError
from .pareto import (
    pareto_location_for_mean,
    pareto_location_for_truncated_mean,
    pareto_sample,
    pareto_truncated_mean,
)


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
        if per_source_rate * peak_interval >= 0.9:
            # Requested rate too high for the configured spacing; emit
            # faster during bursts instead of saturating the duty cycle.
            peak_interval = 0.9 / per_source_rate
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

        self._heap = (
            self._renewal_bursts(sources)
            if self.mode == "renewal"
            else self._poisson_bursts(sources)
        )
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
        interval = self.peak_interval
        end = self.end
        renewal = self.mode == "renewal"
        while heap and heap[0][0] <= now:
            time, index, bound = heap[0]
            count += 1
            time += interval
            if time >= bound:
                # A Poisson burst is over; a renewal source moves on to
                # its next ON period, which may start after the end.
                if not renewal:
                    heapq.heappop(heap)
                    continue
                time, bound = self._next_on_period(time, bound)
            if time < end:
                heapq.heapreplace(heap, (time, index, bound))
            else:
                heapq.heappop(heap)
        self.packets_emitted += count
        return count

    # ------------------------------------------------------------------

    def _renewal_bursts(self, sources: int) -> list[tuple[float, int, float]]:
        """One ``(first time, source index, ON end)`` entry per renewal source.

        Each source starts mid-OFF at a random phase so the bank does not
        fire in lockstep at task start; in source order it draws the
        phase, an OFF length and an ON length. The bound is the burst's ON
        end, not cut at the set's end: :meth:`advance` draws the source's
        next OFF and ON periods once a packet time reaches it. A source
        whose first packet falls at or after the end emits nothing.
        """
        rng = self.rng
        heap: list[tuple[float, int, float]] = []
        for index in range(sources):
            phase = rng.random()
            time = self.start + phase * pareto_sample(
                rng, self.off_shape, self.off_location
            )
            bound = time + pareto_sample(rng, self.on_shape, self.on_location)
            time, bound = self._next_on_period(time, bound)
            if time < self.end:
                heap.append((time, index, bound))
        return heap

    def _next_on_period(self, time: float, bound: float) -> tuple[float, float]:
        """A renewal source's next packet time and ON end from *time*.

        While *time* is at or past the ON end *bound*, the source draws
        an OFF period starting at the bound and then the ON period after
        it, and emits first at that ON period's start.
        """
        rng = self.rng
        while time >= bound:
            time = bound + pareto_sample(rng, self.off_shape, self.off_location)
            bound = time + pareto_sample(rng, self.on_shape, self.on_location)
        return time, bound

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
                    bound = float(end)
                if burst_start < bound:
                    bursts.append((burst_start, len(bursts), bound))
        return bursts
