"""One-shot deep checks, and the simulator deep-checked under load.

Running :meth:`repro.analysis.sanitizer.NetworkSanitizer.check_now` at
random points of randomized simulations turns the whole simulator into a
property under test: credit conservation, occupancy consistency, VC
ownership and channel state must hold at every cycle of every workload.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import NetworkSanitizer
from repro.network.simulator import Simulator

from .conftest import small_config


def check_now(simulator):
    """Every violation a fresh, unattached sanitizer finds right now."""
    return NetworkSanitizer(simulator, raise_on_violation=False).check_now()


def broken_rules(simulator):
    return {violation.rule for violation in check_now(simulator)}


class TestAuditCatchesCorruption:
    def test_clean_simulator_passes(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(500)
        assert check_now(simulator) == []

    def test_detects_occupancy_drift(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        tracker = simulator.routers[4].occupancy[0]
        tracker.occupied += 1  # corrupt
        assert "occupancy" in broken_rules(simulator)

    def test_detects_credit_drift(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        channel = simulator.channels[0]
        state = simulator.routers[channel.spec.src_node].credit_states[
            channel.spec.src_port
        ]
        state.credits[0] -= 1  # corrupt
        assert "credit-conservation" in broken_rules(simulator)

    def test_detects_buffer_count_drift(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.run_cycles(300)
        simulator.routers[0].total_buffered += 2
        assert "flit-conservation" in broken_rules(simulator)

    def test_detects_broken_lock_mirror(self, mesh3_config):
        simulator = Simulator(mesh3_config)
        simulator.channels[0].dvs.locked = True  # without entering the phase
        assert "dvs-transition" in broken_rules(simulator)


class TestInvariantsHoldUnderLoad:
    @pytest.mark.parametrize(
        "policy,rate,routing",
        [
            ("none", 0.6, "dor"),
            ("history", 0.6, "dor"),
            ("history", 1.2, "dor"),
            ("history", 0.6, "adaptive"),
        ],
    )
    def test_audit_clean_throughout(self, policy, rate, routing):
        config = small_config(
            policy=policy, rate=rate, routing=routing, warmup=0, measure=100
        )
        simulator = Simulator(config)
        for _ in range(8):
            simulator.run_cycles(250)
            assert check_now(simulator) == []

    def test_audit_clean_on_torus(self):
        config = small_config(
            radix=4, wraparound=True, rate=0.8, warmup=0, measure=100
        )
        simulator = Simulator(config)
        for _ in range(6):
            simulator.run_cycles(250)
            assert check_now(simulator) == []

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.05, max_value=2.0),
        checkpoint=st.integers(min_value=50, max_value=1_500),
    )
    def test_audit_clean_randomized(self, seed, rate, checkpoint):
        config = small_config(
            policy="history",
            rate=rate,
            seed=seed,
            workload_kind="two_level",
            warmup=0,
            measure=100,
            average_tasks=6,
            average_task_duration_s=4.0e-6,
            onoff_sources_per_task=4,
        )
        simulator = Simulator(config)
        simulator.run_cycles(checkpoint)
        assert check_now(simulator) == []
        simulator.run_cycles(checkpoint)
        assert check_now(simulator) == []
