"""Tests for the multiplexed Pareto ON/OFF source bank."""

import bisect
import copy
import heapq
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import WorkloadError
from repro.harness.scales import PAPER_SCALE
from repro.network.topology import Topology
from repro.traffic.base import make_traffic
from repro.traffic.onoff import OnOffSourceSet
from repro.traffic.pareto import pareto_sample, pareto_truncated_mean


def collect_rate(source_set, horizon):
    total = 0
    for now in range(horizon):
        if source_set.next_time <= now:
            total += source_set.advance(now)
    return total / horizon


class TestConstruction:
    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(WorkloadError):
            OnOffSourceSet(rng, sources=0, target_rate=0.1, start=0, end=100)
        with pytest.raises(WorkloadError):
            OnOffSourceSet(rng, sources=4, target_rate=0.0, start=0, end=100)
        with pytest.raises(WorkloadError):
            OnOffSourceSet(rng, sources=4, target_rate=0.1, start=100, end=100)

    def test_high_rate_tightens_spacing(self):
        rng = random.Random(1)
        source_set = OnOffSourceSet(
            rng, sources=1, target_rate=0.5, start=0, end=50_000, peak_interval=40.0
        )
        # duty = 0.5 * 40 = 20 >= 0.9 -> spacing tightened to 0.9 / rate.
        assert source_set.peak_interval == pytest.approx(0.9 / 0.5)

    def test_modes(self):
        rng = random.Random(2)
        dense = OnOffSourceSet(
            rng, sources=2, target_rate=0.05, start=0, end=200_000
        )
        assert dense.mode == "renewal"
        sparse = OnOffSourceSet(
            rng, sources=64, target_rate=0.001, start=0, end=20_000
        )
        assert sparse.mode == "poisson_burst"


class TestRateCalibration:
    @pytest.mark.parametrize("target", [0.02, 0.1])
    def test_renewal_mode_rate(self, target):
        rates = []
        for seed in range(8):
            rng = random.Random(seed)
            source_set = OnOffSourceSet(
                rng, sources=16, target_rate=target, start=0, end=150_000
            )
            rates.append(collect_rate(source_set, 150_000))
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(target, rel=0.35)

    def test_poisson_burst_mode_rate(self):
        rates = []
        for seed in range(12):
            rng = random.Random(seed)
            source_set = OnOffSourceSet(
                rng, sources=32, target_rate=0.005, start=0, end=30_000
            )
            rates.append(collect_rate(source_set, 30_000))
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(0.005, rel=0.4)


class TestLifetime:
    def test_no_packets_after_end(self):
        rng = random.Random(3)
        source_set = OnOffSourceSet(
            rng, sources=8, target_rate=0.05, start=100, end=5_000
        )
        last = -1.0
        while not source_set.exhausted:
            t = source_set.next_time
            source_set.advance(int(math.ceil(t)))
            last = t
        assert last < 5_000

    def test_no_packets_before_start(self):
        rng = random.Random(4)
        source_set = OnOffSourceSet(
            rng, sources=8, target_rate=0.05, start=1_000, end=50_000
        )
        assert source_set.next_time >= 1_000

    def test_exhaustion(self):
        rng = random.Random(5)
        source_set = OnOffSourceSet(
            rng, sources=2, target_rate=0.01, start=0, end=2_000
        )
        source_set.advance(2_000)
        assert source_set.exhausted
        assert source_set.next_time == math.inf


class TestBurstiness:
    def test_traffic_is_overdispersed(self):
        """ON/OFF traffic is far burstier than Poisson: the per-window
        index of dispersion (variance/mean) is well above 1."""
        rng = random.Random(6)
        horizon = 100_000
        source_set = OnOffSourceSet(
            rng, sources=4, target_rate=0.05, start=0, end=horizon
        )
        window = 100
        counts = [0] * (horizon // window)
        for now in range(horizon):
            if source_set.next_time <= now:
                counts[now // window] += source_set.advance(now)
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        assert mean > 0
        assert variance / mean > 2.0


# -- lazy Poisson bursts against the eager reference -------------------------


def eager_poisson_burst_times(source_set):
    """Reference: the eager body Poisson-burst sets used to run per source.

    It built one source's whole sorted list of packet times at
    construction; the set now keeps each burst's bounds and emits lazily.
    Also returns the source's bursts as ``(start, start + on)`` so tests
    can see what the drawn cases cover.
    """
    rng = source_set.rng
    threshold = math.exp(-source_set.bursts_per_source)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    times = []
    bursts = []
    lifetime = source_set.end - source_set.start
    for _ in range(count):
        burst_start = source_set.start + rng.random() * lifetime
        on = pareto_sample(rng, source_set.on_shape, source_set.on_location)
        t = burst_start
        burst_end = burst_start + on
        bursts.append((burst_start, burst_end))
        while t < burst_end and t < source_set.end:
            times.append(t)
            t += source_set.peak_interval
    times.sort()
    return times, bursts


def emit(source_set, limit=math.inf):
    """Packet times as advance() hands them out, earliest first."""
    emitted = []
    while not source_set.exhausted and len(emitted) < limit:
        due = source_set.next_time
        emitted.extend([due] * source_set.advance(due))
    return emitted


def build(seed, sources, bursts, lifetime, on_shape, on_location, interval):
    """A Poisson-burst set expecting about *bursts* bursts per source, or
    None when the parameters select renewal mode or no set at all."""
    start = 1_000
    packets_per_burst = (
        pareto_truncated_mean(on_shape, on_location, lifetime) / interval + 1.0
    )
    try:
        source_set = OnOffSourceSet(
            random.Random(seed),
            sources=sources,
            target_rate=sources * bursts * packets_per_burst / lifetime,
            start=start,
            end=start + lifetime,
            on_shape=on_shape,
            on_location=on_location,
            peak_interval=interval,
        )
    except WorkloadError:
        return None
    return source_set if source_set.mode == "poisson_burst" else None


def assert_plain_entries(source_set):
    """Every heap entry is a ``(time, index, bound)`` tuple of plain
    numbers, in either mode."""
    assert all(
        tuple(map(type, entry)) == (float, int, float)
        for entry in source_set._heap
    )


def check_lazy_against_eager(source_set, seed, sources, split):
    """Lazy emission from *source_set* (*sources* sources, built from
    ``Random(seed)``) equals the eager reference's; returns each source's
    reference bursts."""
    built_state = source_set.rng.getstate()
    assert_plain_entries(source_set)

    # The reference replays construction's draws from the same seed.
    replay = copy.copy(source_set)
    replay.rng = random.Random(seed)
    per_source = [eager_poisson_burst_times(replay) for _ in range(sources)]
    assert replay.rng.getstate() == built_state
    expected = list(heapq.merge(*(times for times, _ in per_source)))

    # Integer cycles, as the workload polls it: the same count by each cycle.
    polled = copy.deepcopy(source_set)
    for cycle in sorted({math.ceil(t) for t in expected}):
        polled.advance(cycle)
        assert polled.packets_emitted == bisect.bisect_right(expected, cycle)
    assert polled.exhausted

    # Exact times; cut mid-stream, round-trip through pickle, go on with both.
    head = emit(source_set, limit=int(split * len(expected)))
    assert_plain_entries(source_set)
    clone = pickle.loads(pickle.dumps(source_set))
    assert head + emit(source_set) == expected
    assert head + emit(clone) == expected
    for done in (source_set, clone, polled):
        assert done.rng.getstate() == built_state
        assert done.packets_emitted == len(expected)
    return [bursts for _, bursts in per_source]


#: Cases the property always runs: between them, bursts of one source that
#: overlap in time, and bursts whose ON period runs past the set's end.
COVERED_CASES = [
    dict(seed=3, sources=16, bursts=1.2, lifetime=2_000, on_shape=1.05,
         on_location=20.0, interval=7.0, split=0.5),
    dict(seed=11, sources=32, bursts=1.5, lifetime=500, on_shape=1.1,
         on_location=5.0, interval=3.0, split=0.3),
]


class TestLazyBursts:
    @settings(max_examples=100, deadline=None)
    @example(**COVERED_CASES[0])
    @example(**COVERED_CASES[1])
    @given(
        seed=st.integers(0, 2**32 - 1),
        sources=st.integers(1, 48),
        bursts=st.floats(0.05, 1.8),
        lifetime=st.integers(50, 20_000),
        on_shape=st.floats(1.05, 1.95),
        on_location=st.floats(1.0, 500.0),
        interval=st.floats(0.5, 60.0),
        split=st.floats(0.0, 1.0),
    )
    def test_emission_and_draws_match_eager_reference(
        self, seed, sources, bursts, lifetime, on_shape, on_location,
        interval, split,
    ):
        source_set = build(
            seed, sources, bursts, lifetime, on_shape, on_location, interval
        )
        assume(source_set is not None)
        check_lazy_against_eager(source_set, seed, sources, split)

    @pytest.mark.parametrize("case", COVERED_CASES)
    def test_pinned_cases_overlap_and_cross_the_end(self, case):
        """The pinned cases are not vacuous: a source has bursts that
        overlap, and a burst is cut short by the end."""
        params = dict(case)
        seed, split = params.pop("seed"), params.pop("split")
        source_set = build(seed, **params)
        assert source_set is not None
        per_source = check_lazy_against_eager(
            source_set, seed, params["sources"], split
        )
        end = source_set.end
        overlapping = any(
            later[0] < earlier[1]
            for bursts in per_source
            for earlier, later in itertools.pairwise(sorted(bursts))
        )
        crossing = any(
            burst_end > end for bursts in per_source for _, burst_end in bursts
        )
        assert overlapping and crossing

    @pytest.mark.parametrize(
        "end, expected",
        [(20_000, [0.0, 20.0, 40.0]), (1_000 + 40, [0.0, 20.0])],
        ids=["on-period-end", "lifetime-end"],
    )
    def test_a_burst_stops_before_its_bound(self, end, expected):
        """A packet due exactly at the burst's ON end, or at the set's end,
        is not emitted. Scripted draws: one burst, starting at the set's
        start, ON for exactly the 60-cycle location, 20 cycles apart."""

        class Scripted(random.Random):
            draws = iter([0.999999, 0.0, 0.0, 0.0])

            def random(self):
                return next(self.draws)

        source_set = OnOffSourceSet(
            Scripted(0), sources=1, target_rate=1e-4, start=1_000, end=end,
            on_location=60.0, peak_interval=20.0,
        )
        assert source_set.mode == "poisson_burst"
        assert emit(source_set) == [1_000 + t for t in expected]

    def test_source_without_bursts_draws_once(self):
        """A source whose Poisson count is zero costs exactly one draw."""
        source_set = build(7, 1, 0.001, 10_000, 1.4, 60.0, 20.0)
        assert source_set is not None and source_set.exhausted
        rng = random.Random(7)
        rng.random()
        assert source_set.rng.getstate() == rng.getstate()


# -- renewal sources against the stream reference ---------------------------


class _RenewalPacketStream:
    """Reference: one renewal-mode source's packet times as a stream.

    Renewal sets used to keep one such stream per source in their heap
    (each pointing back at its set); they now keep a plain ``(time,
    index, ON end)`` entry and draw the next OFF and ON periods in
    ``advance``. The source starts mid-OFF at a random phase, drawn at the
    first ``__next__``.
    """

    __slots__ = ("owner", "t", "burst_end", "started")

    def __init__(self, owner):
        self.owner = owner
        self.t = 0.0
        self.burst_end = 0.0
        self.started = False

    def __iter__(self):
        return self

    def __next__(self):
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


class ReferenceRenewalSet:
    """Reference: a renewal-mode set built from per-source streams.

    Copies its parameters from the set under test and replays its
    construction from ``Random(seed)``. It also counts how sources end,
    so tests can see what a case covers: a first packet at or after the
    end (``late_sources``), an ON period the end cuts short
    (``cut_bursts``), or a next ON period drawn to start at or after the
    end (``late_bursts``).
    """

    def __init__(self, template, seed, sources):
        self.rng = random.Random(seed)
        for name in ("start", "end", "on_shape", "off_shape", "on_location",
                     "off_location", "peak_interval"):
            setattr(self, name, getattr(template, name))
        self.late_sources = 0
        self.cut_bursts = 0
        self.late_bursts = 0
        self.packets_emitted = 0
        self._heap = []
        for index in range(sources):
            stream = _RenewalPacketStream(self)
            first = self._next_within_lifetime(stream)
            if first is not None:
                self._heap.append((first, index, stream))
        heapq.heapify(self._heap)

    @property
    def next_time(self):
        return self._heap[0][0] if self._heap else math.inf

    @property
    def exhausted(self):
        return not self._heap

    def advance(self, now):
        count = 0
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, index, stream = heapq.heappop(heap)
            count += 1
            nxt = self._next_within_lifetime(stream)
            if nxt is not None:
                heapq.heappush(heap, (nxt, index, stream))
        self.packets_emitted += count
        return count

    def _next_within_lifetime(self, stream):
        started = stream.started
        burst_end = stream.burst_end
        time = next(stream)
        if time < self.end:
            return time
        if not started:
            self.late_sources += 1
        elif stream.burst_end == burst_end:
            self.cut_bursts += 1  # no new ON period: the end fell inside one
        else:
            self.late_bursts += 1
        return None


def build_renewal(seed, sources, rate, lifetime, on_shape, off_shape,
                  on_location, interval):
    """A renewal-mode set of *sources* sources at *rate* packets per cycle
    each, or None when the parameters select Poisson-burst mode or no set
    at all."""
    start = 1_000
    try:
        source_set = OnOffSourceSet(
            random.Random(seed),
            sources=sources,
            target_rate=sources * rate,
            start=start,
            end=start + lifetime,
            on_shape=on_shape,
            off_shape=off_shape,
            on_location=on_location,
            peak_interval=interval,
        )
    except WorkloadError:
        return None
    return source_set if source_set.mode == "renewal" else None


def check_heap_against_streams(source_set, seed, sources, split):
    """Emission from renewal *source_set* (*sources* sources, built from
    ``Random(seed)``) equals the stream reference's, draw for draw;
    returns the exhausted reference."""
    built_state = source_set.rng.getstate()
    assert_plain_entries(source_set)
    reference = ReferenceRenewalSet(source_set, seed, sources)
    assert reference.rng.getstate() == built_state

    # Integer cycles, as the workload polls it: the same count each cycle.
    polled = copy.deepcopy(source_set)
    polled_reference = copy.deepcopy(reference)
    expected = emit(reference)
    for cycle in sorted({math.ceil(t) for t in expected}):
        assert polled.advance(cycle) == polled_reference.advance(cycle)
    assert polled.exhausted and polled_reference.exhausted

    # Exact times; cut mid-stream, round-trip through pickle, go on with both.
    head = emit(source_set, limit=int(split * len(expected)))
    assert_plain_entries(source_set)
    clone = pickle.loads(pickle.dumps(source_set))
    assert head + emit(source_set) == expected
    assert head + emit(clone) == expected
    final_state = reference.rng.getstate()
    for done in (source_set, clone, polled, polled_reference):
        assert done.rng.getstate() == final_state
        assert done.packets_emitted == len(expected)
    return reference


#: Cases the renewal property always runs: the first has a source whose
#: first packet falls at or after the end, the second a burst cut short by
#: the end and sources whose next ON period starts after it.
RENEWAL_CASES = [
    dict(seed=226, sources=8, rate=0.009, lifetime=1_319, on_shape=1.9,
         off_shape=1.43, on_location=46.9, interval=19.2, split=0.5),
    dict(seed=289, sources=12, rate=0.022, lifetime=258, on_shape=1.08,
         off_shape=1.17, on_location=22.0, interval=21.2, split=0.3),
]


class TestRenewalHeap:
    @settings(max_examples=100, deadline=None)
    @example(**RENEWAL_CASES[0])
    @example(**RENEWAL_CASES[1])
    @given(
        seed=st.integers(0, 2**32 - 1),
        sources=st.integers(1, 16),
        rate=st.floats(0.001, 0.3),
        lifetime=st.integers(50, 5_000),
        on_shape=st.floats(1.05, 1.95),
        off_shape=st.floats(1.05, 1.95),
        on_location=st.floats(1.0, 200.0),
        interval=st.floats(0.5, 60.0),
        split=st.floats(0.0, 1.0),
    )
    def test_emission_and_draws_match_stream_reference(
        self, seed, sources, rate, lifetime, on_shape, off_shape,
        on_location, interval, split,
    ):
        source_set = build_renewal(
            seed, sources, rate, lifetime, on_shape, off_shape, on_location,
            interval,
        )
        assume(source_set is not None)
        check_heap_against_streams(source_set, seed, sources, split)

    @pytest.mark.parametrize(
        "case, covers",
        zip(RENEWAL_CASES, [("late_sources",), ("cut_bursts", "late_bursts")]),
        ids=["first-burst-after-end", "burst-cut-by-end"],
    )
    def test_pinned_cases_reach_the_end(self, case, covers):
        """The pinned cases are not vacuous."""
        params = dict(case)
        seed, split = params.pop("seed"), params.pop("split")
        source_set = build_renewal(seed, **params)
        assert source_set is not None
        reference = check_heap_against_streams(
            source_set, seed, params["sources"], split
        )
        for outcome in covers:
            assert getattr(reference, outcome) > 0, outcome


class TestSetupMemory:
    def test_paper_scale_workload_setup_stays_small(self):
        """Setting up the paper's 100-task workload at 1.5 pkt/cycle holds
        per-burst state, not every session's packet times (about 19 MiB
        when those were built eagerly)."""
        topology = Topology(PAPER_SCALE.radix, 2)
        config = PAPER_SCALE.workload(1.5, average_tasks=100)
        tracemalloc.start()
        try:
            workload = make_traffic(topology, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert workload.tasks_started == 100
        assert peak < 6 * 2**20

