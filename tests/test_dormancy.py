"""Dormant history windows: a skipped close equals the close it skips.

A port controller whose window was idle and whose policy sits at a
declared idle fixpoint goes dormant: at each boundary the engine only
finalizes its channel's energy and counts the close, until a flit is sent
or its channel's phase event fires, and the run loops replay the skipped
windows before they return. These tests pin that shortcut to the closes
it skips:

* the *twin*: the same run with dormancy disabled (every policy's
  ``idle_action`` patched to return ``None``) must match on the whole
  result, every channel's energy ledgers and every controller's counters
  and predictions, at the end of the run and when read mid-run;
* the *contract*: each registered policy's ``idle_action`` is either
  ``None`` or what every later all-idle ``decide`` returns, and
  ``skip_idle_windows(k)`` leaves the state of ``k`` such calls;
* *engagement*: on a light-load point most windows are skipped, with
  pinned counts, so dormancy cannot rot into a no-op;
* the *sanitizer*: a dormant controller whose phase event or send did not
  wake it is a violation.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace

import pytest

from repro.analysis.sanitizer import SanitizerViolation
from repro.config import DVSControlConfig, LinkConfig
from repro.core.controller import PortDVSController
from repro.core.levels import PAPER_TABLE
from repro.core.policy import DVSPolicy, PolicyInputs
from repro.core.registry import get_policy_spec, registered_policies
from repro.core.thresholds import TABLE2_SETTINGS
from repro.harness.scales import DEFAULT_SCALE
from repro.harness.serialization import to_json
from repro.network.simulator import Simulator

from .conftest import FAST_LINK, make_policy, small_config


def _policy_classes() -> list[type]:
    found, pending = [], [DVSPolicy]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@pytest.fixture
def no_dormancy(monkeypatch):
    """Disable dormancy: no policy declares an idle action."""
    for cls in _policy_classes():
        if "idle_action" in vars(cls):
            monkeypatch.setattr(cls, "idle_action", lambda self, inputs: None)


@pytest.fixture
def close_counter(monkeypatch):
    """Count real window closes (``close_window`` calls)."""
    calls = [0]
    original = PortDVSController.close_window

    def counted(self, now):
        calls[0] += 1
        return original(self, now)

    monkeypatch.setattr(PortDVSController, "close_window", counted)
    return calls


def _fingerprint(config, *, series_window: int = 500) -> dict:
    """Run *config* with a series window and a probe attached; return the
    result plus every channel ledger and controller counter, read straight
    off the objects (no catch-up of its own: the run must have replayed
    every skipped window)."""
    simulator = Simulator(config, series_window=series_window)
    port = next(
        port for port, channel in enumerate(simulator.routers[0].channels) if channel
    )
    probe = simulator.attach_probe(0, port, window_cycles=50)
    result = simulator.run()
    data = to_json(result)
    data["series"] = {
        name: (series.window_cycles, series.values)
        for name, series in result.series.items()
    }
    data["probe"] = (probe.lu_samples, probe.bu_samples)
    data["channels"] = [
        (
            channel.dvs.link_energy_fj,
            channel.dvs.transition_energy_fj,
            channel.dvs.transition_count,
        )
        for channel in simulator.channels
    ]
    data["controllers"] = [
        (
            controller.windows_evaluated,
            controller.actions_taken,
            controller.requests_dropped,
            getattr(controller.policy, "predicted_link_utilization", None),
            getattr(controller.policy, "predicted_buffer_utilization", None),
        )
        for controller in simulator.controllers
    ]
    return data


POLICIES = {
    "history-W1": DVSControlConfig(policy="history", ewma_weight=1.0),
    "history-W3": DVSControlConfig(policy="history"),
    "history-W7": DVSControlConfig(policy="history", ewma_weight=7.0),
    "history-table2-I": DVSControlConfig(
        policy="history", thresholds=TABLE2_SETTINGS["I"]
    ),
    "history-table2-VI": DVSControlConfig(
        policy="history", thresholds=TABLE2_SETTINGS["VI"]
    ),
    "history-from-bottom": DVSControlConfig(policy="history", initial_level=0),
    "lu_only": DVSControlConfig(policy="lu_only"),
    "static-0": DVSControlConfig(policy="static", static_level=0),
    "static-9": DVSControlConfig(policy="static", static_level=9),
}
TIMINGS = {"fast-link": FAST_LINK, "paper-link": LinkConfig()}


def _config(dvs: DVSControlConfig, link: LinkConfig, rate: float, measure=4_000):
    config = small_config(
        rate=rate,
        workload_kind="two_level",
        warmup=500,
        measure=measure,
        average_tasks=4,
        average_task_duration_s=3.0e-6,
    )
    return replace(config, dvs=dvs, link=link)


def _twin(config, request) -> tuple[dict, dict, int, int]:
    """(dormant fingerprint, awake fingerprint, real closes of each)."""
    counter = request.getfixturevalue("close_counter")
    dormant = _fingerprint(config)
    dormant_closes = counter[0]
    request.getfixturevalue("no_dormancy")
    counter[0] = 0
    awake = _fingerprint(config)
    return dormant, awake, dormant_closes, counter[0]


class TestEquivalenceTwin:
    @pytest.mark.parametrize("timing", sorted(TIMINGS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("rate", [0.05, 0.5])
    def test_dormant_run_equals_awake_run(self, policy, timing, rate, request):
        config = _config(POLICIES[policy], TIMINGS[timing], rate)
        dormant, awake, dormant_closes, awake_closes = _twin(config, request)
        assert dormant == awake
        assert dormant_closes <= awake_closes

    @pytest.mark.parametrize("timing", sorted(TIMINGS))
    @pytest.mark.parametrize("policy", ["history-W3", "lu_only", "static-9"])
    def test_saturated_run_equals_awake_run(self, policy, timing, request):
        config = _config(POLICIES[policy], TIMINGS[timing], 2.0, measure=1_500)
        dormant, awake, _, _ = _twin(config, request)
        assert dormant == awake

    @pytest.mark.parametrize("policy", ["history-W3", "history-W7", "lu_only"])
    def test_unobserved_run_equals_awake_run(self, policy, request):
        """Without series windows or probes nothing else finalizes a
        dormant channel, so only the engine's finalize at each skipped
        boundary keeps its energy ledger grouped as the real closes
        group it: at paper timing whole ramps, billed at fractional
        femtojoules per window, pass while the controller is dormant."""
        config = _config(POLICIES[policy], TIMINGS["paper-link"], 0.05)

        def run():
            simulator = Simulator(config)
            result = simulator.run()
            return to_json(result), [
                (channel.dvs.link_energy_fj, channel.dvs.transition_energy_fj)
                for channel in simulator.channels
            ]

        dormant = run()
        request.getfixturevalue("no_dormancy")
        assert dormant == run()

    def test_twin_is_not_vacuous(self, request):
        """The light-load twins really skip windows, mid-transition and at
        a steady level alike, so they test the replay."""
        for policy in ("history-W3", "history-from-bottom", "static-0"):
            for timing in TIMINGS.values():
                config = _config(POLICIES[policy], timing, 0.05)
                counter = request.getfixturevalue("close_counter")
                counter[0] = 0
                data = _fingerprint(config)
                evaluated = sum(entry[0] for entry in data["controllers"])
                assert counter[0] < evaluated, (policy, timing)


def _mid_run_reads(config, every: int = 50) -> list:
    """Every controller's window count and predictions, read straight
    after ``run_until`` every *every* cycles of the run."""
    simulator = Simulator(config)
    end = config.warmup_cycles + config.measure_cycles
    reads = []
    while simulator.now < end:
        simulator.run_until(min(end, simulator.now + every))
        reads.append(
            [
                (
                    controller.windows_evaluated,
                    controller.policy.predicted_link_utilization,
                    controller.policy.predicted_buffer_utilization,
                )
                for controller in simulator.controllers
            ]
        )
    return reads


class TestMidRunReads:
    """Controllers read mid-run, after ``run_until``, hold the state of a
    run without dormancy. History windows shorter than a
    flit's flight (pipeline latency plus serialization) also pin the
    entry rule that the window's last flit must have landed downstream:
    without it a flit arriving in a skipped window goes unseen."""

    @pytest.mark.parametrize(
        "window, timing, rate, initial_level",
        [
            (5, "fast-link", 0.2, None),
            (5, "fast-link", 0.2, 0),
            (7, "paper-link", 0.5, None),
            (200, "fast-link", 0.05, 0),
        ],
    )
    def test_reads_match_the_awake_run(
        self, window, timing, rate, initial_level, request
    ):
        dvs = DVSControlConfig(
            policy="history", history_window=window, initial_level=initial_level
        )
        config = _config(dvs, TIMINGS[timing], rate)
        dormant = _mid_run_reads(config)
        request.getfixturevalue("no_dormancy")
        assert dormant == _mid_run_reads(config)


def _idle_inputs(inputs: PolicyInputs, cycle: int) -> PolicyInputs:
    return inputs._replace(
        link_utilization=0.0, buffer_utilization=0.0, cycle=cycle, sleep_demand=False
    )


class TestPolicyContract:
    @pytest.mark.parametrize(
        "name",
        [name for name in registered_policies() if get_policy_spec(name).factory],
    )
    def test_idle_action_is_the_fixpoint_of_idle_windows(self, name):
        policy = make_policy(name, channel_index=3)
        rng = random.Random(7)
        declared = 0
        for window in range(1, 120):
            busy = rng.random() < 0.4
            inputs = PolicyInputs(
                link_utilization=rng.random() if busy else 0.0,
                buffer_utilization=rng.random() * 0.8 if busy else 0.0,
                level=rng.randrange(PAPER_TABLE.max_level + 1),
                max_level=PAPER_TABLE.max_level,
                cycle=200 * window,
            )
            policy.decide(inputs)
            action = policy.idle_action(inputs)
            if action is None:
                continue
            declared += 1
            count = rng.randrange(1, 40)
            stepped = copy.deepcopy(policy)
            for later in range(1, count + 1):
                idle = _idle_inputs(inputs, inputs.cycle + 200 * later)
                assert stepped.decide(idle) is action
            skipped = copy.deepcopy(policy)
            skipped.skip_idle_windows(count)
            assert pickle.dumps(skipped) == pickle.dumps(stepped)
        if name in ("history", "lu_only", "static"):
            assert declared > 0

    def test_history_replay_is_exact_for_paper_weights(self):
        """``skip_idle`` reproduces ``update(0.0)`` bit for bit, down to
        the subnormal range and zero."""
        for weight in (1.0, 3.0, 7.0, 2.5):
            policy = make_policy("history", ewma_weight=weight)
            policy.decide(PolicyInputs(0.29, 0.7, 4, 9, 200))
            stepped = copy.deepcopy(policy)
            for _ in range(2_000):
                stepped.decide(PolicyInputs(0.0, 0.0, 4, 9, 400))
            policy.skip_idle_windows(2_000)
            assert policy.predicted_link_utilization == 0.0
            assert pickle.dumps(policy) == pickle.dumps(stepped)


class TestEngagement:
    def test_light_load_point_skips_most_windows(self, close_counter):
        """The lowest-rate point of the light-load sweep: 62.7% of its
        windows are skipped. Simulation is deterministic, so the counts
        are pinned exactly."""
        config = DEFAULT_SCALE.shrink(0.1).simulation(
            0.05, workload_overrides={"average_tasks": 50, "seed": 1}
        )
        simulator = Simulator(config)
        result = simulator.run()
        evaluated = sum(c.windows_evaluated for c in simulator.controllers)
        assert evaluated == 4_256
        assert close_counter[0] == 1_586
        assert result.requests_dropped == 3_360
        assert close_counter[0] * 2 < evaluated


class TestSanitizerGuard:
    def _dormant_simulator(self):
        """A sanitized run just past boundary 2000, where the checker saw
        its dormant controllers enter."""
        config = _config(POLICIES["history-from-bottom"], FAST_LINK, 0.05)
        simulator = Simulator(config, sanitize=True)
        simulator.run_until(2_001)
        return simulator

    def test_clean_dormant_run_has_no_violations(self):
        config = _config(POLICIES["history-from-bottom"], FAST_LINK, 0.05)
        simulator = Simulator(config, sanitize=True)
        simulator.run()
        assert simulator.sanitizer.violations == []

    def _dormant_controller(self, simulator):
        return next(c for c in simulator.controllers if c.dormant_action is not None)

    def test_unwoken_phase_end_is_a_violation(self):
        simulator = self._dormant_simulator()
        channel = self._dormant_controller(simulator).channel
        # A phase end the controller slept through (as if the dispatch
        # had skipped its wake).
        with pytest.raises(SanitizerViolation, match="phase event must wake"):
            simulator._emit_transition(channel, simulator.now, "phase_end")

    def test_unwoken_state_change_is_a_violation(self):
        simulator = self._dormant_simulator()
        channel = self._dormant_controller(simulator).channel
        assert channel.is_steady and channel.level == 0
        # A transition begun behind the dormant controller's back.
        channel.request_level(1, simulator.now)
        with pytest.raises(SanitizerViolation, match="without waking it"):
            simulator.sanitizer.on_mark("check", simulator.now)

    def test_unwoken_send_is_a_violation(self):
        simulator = self._dormant_simulator()
        controller = self._dormant_controller(simulator)
        # A flit the boundary loop ignored (as if it skipped the
        # busy_window test).
        controller.channel.busy_window = 1.0
        with pytest.raises(SanitizerViolation, match="a send must wake it"):
            simulator.sanitizer._dvs.check_dormant_boundary(2_200)


class TestRunLoopCatchUp:
    def test_run_until_replays_the_skipped_windows_and_stays_dormant(self):
        config = _config(POLICIES["history-from-bottom"], FAST_LINK, 0.05)
        simulator = Simulator(config)
        simulator.run_until(2_150)
        controllers = simulator.controllers
        assert any(c.dormant_action is not None for c in controllers)
        # Boundaries 200, 400, ..., 2000 have closed, really or skipped.
        assert {c.windows_evaluated for c in controllers} == {10}
        assert all(c.windows_skipped == 0 for c in controllers)

    def test_hand_stepped_finish_matches_the_awake_run(self, request):
        """``finish`` replays the skipped windows itself, for a caller
        that drove the measured phase with bare ``step`` calls."""

        def run(config):
            simulator = Simulator(config)
            simulator.run_cycles(config.warmup_cycles)
            simulator.begin_measurement()
            for _ in range(config.measure_cycles):
                simulator.step()
            result = simulator.finish()
            return result.requests_dropped, [
                c.windows_evaluated for c in simulator.controllers
            ]

        # Paper timing: controllers stay dormant through long ramps to the
        # end, dropping the request of every window they skip.
        config = _config(
            POLICIES["history-W3"], TIMINGS["paper-link"], 0.05, measure=2_000
        )
        dormant = run(config)
        request.getfixturevalue("no_dormancy")
        assert dormant == run(config)
