"""Bit-identity tests for the event-horizon fast-forward.

Every test here runs the same configuration twice — once with quiescence
skipping enabled (the default) and once stepping every cycle — and
compares the *complete* ``SimulationResult`` with ``==`` semantics via
canonical JSON. The edge cases target each horizon component: DVS
history-window boundaries, pending ``EVENT_PHASE`` events, series window
boundaries, and exhausted traffic sources on the drain path.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.harness.serialization import to_json
from repro.instrument.bus import Observer
from repro.network.simulator import Simulator
from repro.network.topology import Topology
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.permutation import PermutationTraffic
from repro.traffic.tasks import TwoLevelWorkload
from repro.traffic.trace import TraceReplaySource
from repro.traffic.uniform import UniformRandomTraffic

from .conftest import small_config


def _comparable(result) -> dict:
    """A SimulationResult as plain data, series expanded to their samples
    (to_json's repr fallback would otherwise compare object identities)."""
    data = to_json(result)
    data["series"] = {
        name: (series.window_cycles, series.values)
        for name, series in result.series.items()
    }
    return data


def run_pair(
    config: SimulationConfig, *, series_window: int = 0
) -> tuple[Simulator, Simulator, dict, dict]:
    """Run *config* with and without fast-forward; return both results."""
    fast = Simulator(config, series_window=series_window)
    slow = Simulator(config, series_window=series_window, fast_forward=False)
    result_fast = _comparable(fast.run())
    result_slow = _comparable(slow.run())
    return fast, slow, result_fast, result_slow


class TestEdgeCases:
    def test_idle_spans_straddle_dvs_history_windows(self):
        """Sparse two-level traffic under the history policy: idle gaps are
        longer than the 200-cycle history window, so naive skipping would
        jump over controller window closes. The horizon must split spans
        at every boundary and reproduce the EWMA state bit-for-bit."""
        config = small_config(
            policy="history",
            workload_kind="two_level",
            rate=0.005,
            measure=4_000,
            average_tasks=4,
            average_task_duration_s=3.0e-6,
        )
        fast, slow, result_fast, result_slow = run_pair(config)
        history_window = config.dvs.history_window
        assert fast.idle_cycles_skipped > history_window
        assert slow.idle_cycles_skipped == 0
        assert result_fast == result_slow

    def test_pending_phase_event_inside_span(self):
        """A static policy walking the links down to level 0 schedules
        voltage/frequency phase boundaries that land in otherwise dead
        air. The bucket-map horizon must stop exactly on them."""
        config = small_config(
            policy="static", rate=0.002, warmup=200, measure=4_000
        )
        fast, slow, result_fast, result_slow = run_pair(config)
        assert fast.idle_cycles_skipped > 0
        # Transitions happened, and their timing/energy is unchanged.
        assert result_fast["power"]["transition_count"] > 0
        assert result_fast == result_slow

    def test_series_window_boundary_inside_span(self):
        """Windowed series observers must see every window close at its
        exact cycle even when the close falls inside a quiescent gap."""
        config = small_config(rate=0.01, measure=3_000)
        fast, slow, result_fast, result_slow = run_pair(
            config, series_window=500
        )
        assert fast.idle_cycles_skipped > 0
        assert result_fast["series"] == result_slow["series"]
        assert result_fast == result_slow

    def test_exhausted_source_drain_path(self):
        """drain() with a finished trace source fast-forwards through the
        tail and reports the same elapsed cycle count."""
        trace = [(0, 0, 8), (1, 4, 2), (40, 3, 5), (700, 2, 6)]
        config = small_config(rate=0.0001)
        elapsed = {}
        for fast_forward in (True, False):
            simulator = Simulator(config, fast_forward=fast_forward)
            simulator.traffic = TraceReplaySource(
                simulator.topology, config.workload, trace
            )
            elapsed[fast_forward] = simulator.drain(max_cycles=5_000)
            assert simulator.flits_in_network() == 0
            assert simulator.pending_source_packets() == 0
            if fast_forward:
                assert simulator.idle_cycles_skipped > 0
        assert elapsed[True] == elapsed[False]

    def test_saturated_run_is_bit_identical_too(self):
        """At saturation the active set pins fast-forward off on its own;
        results still match exactly."""
        config = small_config(policy="history", rate=1.2, measure=1_500)
        _, _, result_fast, result_slow = run_pair(config)
        assert result_fast == result_slow

    def test_run_until_saturated_matches_cycle_by_cycle_stepping(self):
        """run_until with fast_forward=True and False walk bit-identical
        kernel states through a saturated run: same per-router counters,
        same drain counters, same pending event population at every
        checkpoint."""
        config = small_config(policy="history", rate=1.2, measure=1_500)
        fast = Simulator(config)
        slow = Simulator(config, fast_forward=False)
        for target in (120, 450, 900, 1_600):
            fast.run_until(target)
            slow.run_until(target)
            assert fast.now == slow.now == target
            assert fast._active_list == slow._active_list
            assert [r.flits_launched for r in fast.routers] == [
                r.flits_launched for r in slow.routers
            ]
            assert [r.packets_ejected for r in fast.routers] == [
                r.packets_ejected for r in slow.routers
            ]
            assert fast._pending_transport == slow._pending_transport
            assert fast.pending_source_packets() == slow.pending_source_packets()
            fast_events = sorted(
                (cycle, event[0]) for cycle, event in fast.iter_scheduled_events()
            )
            slow_events = sorted(
                (cycle, event[0]) for cycle, event in slow.iter_scheduled_events()
            )
            assert fast_events == slow_events

    def test_drain_deadline_failure_reports_the_cycle_budget(self):
        """A network that cannot empty (saturated source still injecting)
        trips drain()'s deadline and the error names the budget."""
        config = small_config(policy="history", rate=1.2, measure=1_500)
        simulator = Simulator(config)
        simulator.run_until(400)
        assert simulator.flits_in_network() > 0
        with pytest.raises(SimulationError, match="within 64 cycles"):
            simulator.drain(max_cycles=64)


class TestActiveRouterSet:
    def test_active_list_is_exactly_the_nonidle_routers(self):
        config = small_config(rate=0.3)
        simulator = Simulator(config)
        checkpoints = (10, 57, 200, 641)
        for target in checkpoints:
            simulator.run_until(target)
            expected = [
                node
                for node, router in enumerate(simulator.routers)
                if not router.is_idle
            ]
            assert simulator._active_list == expected
            flagged = [
                node
                for node, flag in enumerate(simulator._active_flags)
                if flag
            ]
            assert flagged == expected

    def test_iter_active_routers_yields_ascending_node_order_midrun(self):
        """The zero-copy active view stays sorted while the network is
        busy — the order every consumer (sanitizer sweeps, the stepping
        loop itself) relies on."""
        config = small_config(policy="history", rate=0.9, measure=1_200)
        simulator = Simulator(config)
        seen_nonempty = 0
        for target in (40, 150, 420, 700, 1_100):
            simulator.run_until(target)
            nodes = [router.node for router in simulator.iter_active_routers()]
            assert nodes == sorted(nodes)
            assert nodes == simulator._active_list
            if nodes:
                seen_nonempty += 1
        assert seen_nonempty > 0

    def test_pending_source_counter_matches_brute_force(self):
        config = small_config(rate=0.8, measure=1_000)
        simulator = Simulator(config)
        for target in (25, 120, 400, 900):
            simulator.run_until(target)
            queued = sum(len(r.inj_queue) for r in simulator.routers)
            partial = sum(1 for r in simulator.routers if r.inj_flits)
            assert simulator.pending_source_packets() == queued + partial


class _EveryCycleCounter(Observer):
    """Needs every cycle: overriding on_cycle alone blocks skipping."""

    unskippable = True

    def __init__(self):
        self.cycles = 0

    def on_cycle(self, now: int) -> None:
        self.cycles += 1


class _SpanAwareCounter(Observer):
    """Opts back in: accounts skipped spans in closed form."""

    def __init__(self):
        self.cycles = 0

    def on_cycle(self, now: int) -> None:
        self.cycles += 1

    def on_idle_span(self, start: int, end: int) -> None:
        self.cycles += end - start


class TestObserverContract:
    def test_plain_cycle_hook_disables_fast_forward(self):
        config = small_config(rate=0.001, warmup=100, measure=400)
        simulator = Simulator(config)
        counter = simulator.bus.attach(_EveryCycleCounter())
        simulator.run()
        assert simulator.idle_cycles_skipped == 0
        assert counter.cycles == config.total_cycles

    def test_span_aware_cycle_hook_keeps_fast_forward(self):
        config = small_config(rate=0.001, warmup=100, measure=400)
        simulator = Simulator(config)
        counter = simulator.bus.attach(_SpanAwareCounter())
        simulator.run()
        assert simulator.idle_cycles_skipped > 0
        assert counter.cycles == config.total_cycles

    def test_detaching_the_blocker_reenables_skipping(self):
        config = small_config(rate=0.001)
        simulator = Simulator(config)
        blocker = simulator.bus.attach(_EveryCycleCounter())
        assert simulator.bus.unskippable_cycle_hooks == [blocker]
        simulator.bus.detach(blocker)
        assert simulator.bus.unskippable_cycle_hooks == []
        simulator.run_cycles(300)
        assert simulator.idle_cycles_skipped > 0


class TestNextInjectionContract:
    """next_injection_cycle must be side-effect free and honest: calling
    injections() on any earlier cycle returns [] without touching RNG."""

    def _assert_quiet_until_horizon(self, source, probe_cycles=24):
        horizon = source.next_injection_cycle(0)
        assert horizon is not None and horizon >= 0
        state = source.rng.getstate()
        last = min(int(min(horizon, 10**6)), probe_cycles)
        for t in range(last):
            assert source.injections(t) == []
        assert source.rng.getstate() == state

    def test_uniform(self):
        config = small_config(rate=0.05).workload
        source = UniformRandomTraffic(Topology(3, 2), config)
        self._assert_quiet_until_horizon(source)

    def test_permutation(self):
        config = small_config(
            workload_kind="permutation", rate=0.05, permutation="transpose"
        ).workload
        source = PermutationTraffic(Topology(3, 2), config)
        self._assert_quiet_until_horizon(source)

    def test_hotspot(self):
        config = small_config(rate=0.05).workload
        source = HotspotTraffic(Topology(3, 2), config)
        self._assert_quiet_until_horizon(source)

    def test_two_level(self):
        config = small_config(
            workload_kind="two_level",
            rate=0.02,
            average_tasks=3,
            average_task_duration_s=3.0e-6,
        ).workload
        source = TwoLevelWorkload(Topology(3, 2), config)
        self._assert_quiet_until_horizon(source)

    def test_trace_replay(self):
        topo = Topology(3, 2)
        source = TraceReplaySource(
            topo, small_config(rate=0.0001).workload, [(37, 0, 5), (90, 1, 2)]
        )
        assert source.next_injection_cycle(0) == 37
        assert source.injections(10) == []
        assert source.next_injection_cycle(50) == 50  # packet already due
        source.injections(37)
        assert source.next_injection_cycle(38) == 90
        source.injections(90)
        assert source.next_injection_cycle(91) == float("inf")

    def test_zero_rate_never_injects(self):
        topo = Topology(3, 2)
        source = UniformRandomTraffic(topo, small_config(rate=0.0).workload)
        assert source.next_injection_cycle(0) == float("inf")

    def test_default_is_conservative(self):
        config = small_config(rate=0.001)
        simulator = Simulator(config)
        # Base-class default (None) disables skipping entirely.
        simulator.traffic.next_injection_cycle = lambda now: None
        simulator.run_cycles(500)
        assert simulator.idle_cycles_skipped == 0
