"""Network sanitizer: mutation kernels, clean runs, and wiring.

Each mutation test deliberately corrupts one kernel invariant mid-run and
asserts the sanitizer family pinpoints it (the unsorted-dirty-set and
stateful-``next_injection_cycle``-by-lint cases live in ``test_lint.py``).
The clean-run tests pin the other direction: a healthy simulation reports
zero violations and is bit-identical with the sanitizer attached.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.sanitizer import (
    DVSTransitionSanitizer,
    NetworkSanitizer,
    SanitizerViolation,
    TrafficContractSanitizer,
)
from repro.cli import main
from repro.harness.runner import build_simulator
from repro.harness.serialization import to_json
from repro.network.simulator import Simulator
from repro.traffic.base import TrafficSource

from .conftest import FAST_LINK, small_config


class TestMutationKernels:
    def test_leaked_credit_is_caught(self):
        simulator = Simulator(small_config(rate=0.3), sanitize=True)
        simulator.run_until(300)
        router = simulator.routers[0]
        out_port = router.connected_out[0]
        router.credit_states[out_port].credits[0] -= 1  # the leak
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(330)
        assert exc.value.rule == "credit-conservation"
        assert exc.value.node == 0
        assert exc.value.port == out_port

    def test_double_delivered_flit_is_caught(self):
        config = small_config(rate=0.3)
        simulator = Simulator(config, sanitize=True)
        simulator.run_until(300)
        simulator.routers[4].flits_ejected += config.network.flits_per_packet
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(330)
        assert exc.value.rule == "flit-conservation"

    def test_two_step_dvs_jump_is_caught(self):
        simulator = Simulator(small_config(rate=0.2), sanitize=True)
        simulator.run_until(100)
        dvs = simulator.channels[0].dvs
        assert dvs.level >= 2
        dvs.force_level(dvs.level - 2, simulator.now)  # skips a level
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(130)
        assert exc.value.rule == "dvs-transition"
        assert "multi-step" in str(exc.value)
        assert exc.value.channel == 0

    def test_flit_sent_mid_frequency_transition_is_caught(self):
        # The lock is entered out-of-band (a direct request_level call,
        # not the controller path the checker watches), so catching a
        # mid-lock send exactly needs the every-cycle full scan.
        simulator = Simulator(small_config(rate=0.2))
        simulator.bus.attach(DVSTransitionSanitizer(simulator, check_every=1))
        simulator.run_until(100)
        dvs = simulator.channels[0].dvs
        assert dvs.request_level(dvs.level - 1, simulator.now)
        assert dvs.locked  # downward step begins with the frequency re-lock
        simulator.run_until(102)  # a check records the locked state
        dvs.flits_sent += 1  # "transmit" while the receiver cannot lock
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(130)
        assert exc.value.rule == "link-lockout"

    def test_locked_mirror_desync_is_caught(self):
        simulator = Simulator(small_config(rate=0.2), sanitize=True)
        simulator.run_until(50)
        simulator.channels[0].dvs.locked = True  # phase says STEADY
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(80)
        assert exc.value.rule == "dvs-transition"
        assert "mirror" in str(exc.value)

    def test_vc_marked_free_while_claimed_is_caught(self):
        # A freed-under-claim VC is transient (it heals once the claim
        # releases), so this one needs the every-cycle cadence.
        simulator = Simulator(small_config(rate=0.5))
        NetworkSanitizer(simulator, check_every=1).attach()
        simulator.run_until(300)
        # Find a router currently holding a downstream VC and free it
        # out from under the claim.
        for router in simulator.routers:
            for out_port in router.connected_out:
                state = router.credit_states[out_port]
                for vc, free in enumerate(state.vc_free):
                    if not free:
                        state.vc_free[vc] = True
                        with pytest.raises(SanitizerViolation) as exc:
                            simulator.run_until(simulator.now + 30)
                        assert exc.value.rule == "vc-allocation"
                        return
        pytest.skip("no VC held at the probed cycle")

    def test_occupancy_tracker_drift_is_caught(self):
        simulator = Simulator(small_config(rate=0.3))
        NetworkSanitizer(simulator, check_every=1).attach()
        simulator.run_until(300)
        spec = simulator.channels[0].spec
        simulator.routers[spec.dst_node].occupancy[spec.dst_port].occupied += 1
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(310)
        assert exc.value.rule == "occupancy"
        assert (exc.value.node, exc.value.port) == (spec.dst_node, spec.dst_port)

    def test_outstanding_event_counter_drift_is_caught(self):
        simulator = Simulator(small_config(rate=0.3))
        NetworkSanitizer(simulator, check_every=1).attach()
        simulator.run_until(300)
        simulator._counters[0] += 1  # one flit that was never injected
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(310)
        assert exc.value.rule == "event-counters"

    def test_steady_channel_off_its_voltage_is_caught(self):
        simulator = Simulator(small_config(rate=0.3))
        NetworkSanitizer(simulator, check_every=1).attach()
        simulator.run_until(300)
        dvs = simulator.channels[0].dvs
        assert dvs.is_steady and dvs.level > 0
        dvs._voltage_level = dvs.level - 1  # settled, yet a step low
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(310)
        assert exc.value.rule == "dvs-transition"
        assert "steady" in str(exc.value)
        assert exc.value.channel == simulator.channels[0].spec.channel_id

    def test_stateful_next_injection_cycle_is_caught(self):
        class _StatefulPredictor(TrafficSource):
            def injections(self, now):
                return []

            def next_injection_cycle(self, now):
                # Contract violation: draws from the RNG on every call.
                return now + 1 + self.rng.randrange(8)

        # Checks fire on stepped cycles; a near-zero-rate run would skip
        # almost everything, so step every cycle for this one.
        config = small_config(rate=0.001)
        simulator = Simulator(config, fast_forward=False)
        simulator.traffic = _StatefulPredictor(simulator.topology, config.workload)
        checker = TrafficContractSanitizer(simulator, deep_every=1)
        simulator.bus.attach(checker)
        with pytest.raises(SanitizerViolation) as exc:
            simulator.run_until(50)
        assert exc.value.rule == "traffic-contract"


class TestCleanRun:
    def test_clean_run_zero_violations_and_bit_identical(self):
        config = small_config(rate=0.4, policy="history", warmup=400, measure=1500)
        checked = Simulator(config, sanitize=True)
        result = checked.run()
        assert checked.sanitizer is not None
        assert checked.sanitizer.violations == []
        assert checked.sanitizer.checks > 0

        plain = Simulator(config)
        baseline = plain.run()
        assert plain.sanitizer is None
        assert result == baseline  # bit-identical measurement
        # The sanitizer is skip-safe: fast-forward stays fully enabled.
        assert checked.idle_cycles_skipped == plain.idle_cycles_skipped

    @pytest.mark.parametrize("attached", [True, False])
    def test_check_now_leaves_the_result_bit_identical(self, attached):
        config = small_config(rate=0.6, policy="history", warmup=300, measure=1200)
        checked = Simulator(config)
        sanitizer = NetworkSanitizer(checked, check_every=1)
        if attached:
            sanitizer.attach()
        for target in (40, 170, config.warmup_cycles):
            checked.run_until(target)
            assert sanitizer.check_now() == []
        checked.begin_measurement()
        for target in (555, 901, config.total_cycles):
            checked.run_until(target)
            assert sanitizer.check_now() == []
        assert sanitizer.checks > 0
        result = checked.finish()
        assert to_json(result) == to_json(Simulator(config).run())

    def test_collect_mode_accumulates_instead_of_raising(self):
        simulator = Simulator(small_config(rate=0.3))
        sanitizer = NetworkSanitizer(simulator, raise_on_violation=False).attach()
        simulator.run_until(100)
        simulator.routers[0].flits_ejected += 1
        simulator.run_until(200)
        assert len(sanitizer.violations) > 0
        assert all(v.rule == "flit-conservation" for v in sanitizer.violations)
        assert "violations" in sanitizer.describe()

    def test_attach_detach_roundtrip(self):
        simulator = Simulator(small_config(rate=0.2))
        observers_before = len(simulator.bus)
        sanitizer = NetworkSanitizer(simulator).attach()
        # The bundle registers itself as one fan-out observer.
        assert len(simulator.bus) == observers_before + 1
        assert len(sanitizer.checkers) == 4
        with pytest.raises(Exception):
            sanitizer.attach()  # double attach is an error
        sanitizer.detach()
        assert len(simulator.bus) == observers_before
        with pytest.raises(Exception):
            sanitizer.detach()

    def test_dvs_checker_sees_real_transitions_as_legal(self):
        # A history-policy run exercises ramps and locks; every observed
        # transition must be a legal one-step chain.
        config = small_config(rate=0.8, policy="history", warmup=300, measure=1200)
        simulator = Simulator(config)
        checker = DVSTransitionSanitizer(simulator)
        simulator.bus.attach(checker)
        simulator.run()
        assert checker.violations == []
        assert checker.checks > 0


class TestCadence:
    def test_clamp_adds_a_ramp_that_rounds_to_zero_cycles(self):
        # A 0.4 ns voltage ramp rounds to 0 router cycles. The clamp is one
        # full transition as timed, 0 plus the top-level lock; the channel's
        # ramp phase, which lasts at least one cycle, would raise it.
        link = replace(FAST_LINK, voltage_transition_s=0.4e-9)
        config = replace(small_config(policy="history"), link=link)
        checker = DVSTransitionSanitizer(Simulator(config), check_every=64)
        timing = link.build_timing()
        table = link.build_table()
        clock = config.network.router_clock_hz
        assert timing.voltage_cycles(clock) == 0
        expected = timing.voltage_cycles(clock) + max(
            1, timing.frequency_cycles(table.frequency(table.max_level), clock)
        )
        assert checker.check_every == expected == 4


class TestWiring:
    def test_env_variable_enables_sanitizer(self, monkeypatch):
        config = small_config(rate=0.1, warmup=50, measure=100)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert build_simulator(config).sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert build_simulator(config).sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert build_simulator(config).sanitizer is None

    def test_explicit_flag_overrides_env(self, monkeypatch):
        config = small_config(rate=0.1, warmup=50, measure=100)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert build_simulator(config, sanitize=False).sanitizer is None

    def test_cli_sanitize_flag_reports_summary(self, capsys):
        code = main(["run", "--rate", "0.5", "--scale", "smoke", "--sanitize"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "0 violations" in out

    def test_cli_without_flag_stays_silent(self, capsys):
        code = main(["run", "--rate", "0.5", "--scale", "smoke"])
        assert code == 0
        assert "sanitizer:" not in capsys.readouterr().out

    def test_violation_context_fields(self):
        violation = SanitizerViolation(
            "credit-conservation", "boom", cycle=7, node=3, port=1, vc=0,
            channel=12,
        )
        text = str(violation)
        assert "[credit-conservation]" in text
        for fragment in ("cycle=7", "node=3", "port=1", "vc=0", "channel=12"):
            assert fragment in text
        assert (violation.cycle, violation.node) == (7, 3)
