"""The sleep state below level 0: channel legality, energy, end-to-end runs."""

import pytest

from repro.config import DVSControlConfig
from repro.core.dvs_link import ChannelDesign, ChannelPhase, DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER, RegulatorModel
from repro.errors import ConfigError
from repro.harness.runner import build_simulator
from repro.harness.scales import SMOKE_SCALE
from repro.units import joules_to_femtojoules


def make_design(*, wake_lockout_cycles=0, retention=0.3):
    return ChannelDesign(
        PAPER_TABLE,
        PAPER_LINK_POWER,
        RegulatorModel(),
        lanes=8,
        router_clock_hz=1.0e9,
        timing=TransitionTiming(
            voltage_transition_s=1.0e-6,
            frequency_transition_link_cycles=10,
        ),
        retention_voltage_v=retention,
        wake_lockout_cycles=wake_lockout_cycles,
    )


def make_channel(*, initial_level=0, wake_lockout_cycles=0):
    return DVSChannel(
        make_design(wake_lockout_cycles=wake_lockout_cycles),
        initial_level=initial_level,
    )


class TestSleepLegality:
    def test_sleep_from_steady_level_zero(self):
        channel = make_channel()
        assert channel.request_sleep(100)
        assert channel.sleeping
        assert channel.locked
        assert not channel.functional
        assert channel.phase is ChannelPhase.SLEEP
        assert channel.sleep_count == 1
        assert channel.pending_event_cycle is None  # wake is demand-driven

    def test_sleep_refused_above_level_zero(self):
        channel = make_channel(initial_level=1)
        assert not channel.request_sleep(100)
        assert not channel.sleeping

    def test_sleep_refused_while_already_asleep(self):
        channel = make_channel()
        assert channel.request_sleep(100)
        assert not channel.request_sleep(200)
        assert channel.sleep_count == 1

    def test_sleep_refused_mid_transition(self):
        channel = make_channel(initial_level=1)
        assert channel.request_level(0, 50)  # frequency lock in flight
        assert not channel.request_sleep(50)

    def test_wake_only_from_sleep(self):
        channel = make_channel()
        assert not channel.request_wake(100)  # awake: nothing to do
        channel.request_sleep(100)
        assert channel.request_wake(200)
        assert channel.phase is ChannelPhase.WAKE
        assert channel.locked and not channel.sleeping
        assert channel.pending_event_cycle is not None

    def test_wake_completion_restores_steady_level_zero(self):
        channel = make_channel()
        channel.request_sleep(100)
        channel.request_wake(200)
        end = channel.pending_event_cycle
        channel.on_phase_end(end)
        assert channel.phase is ChannelPhase.STEADY
        assert channel.level == 0
        assert not channel.locked
        assert channel.dead_cycles >= end - 200

    def test_wake_lockout_blocks_resleep(self):
        channel = make_channel(wake_lockout_cycles=500)
        channel.request_sleep(100)
        channel.request_wake(200)
        end = channel.pending_event_cycle
        channel.on_phase_end(end)
        assert not channel.request_sleep(end + 1)  # inside the lockout
        assert channel.request_sleep(end + 500)  # lockout expired

    def test_retention_voltage_validation(self):
        # The design validates the sleep parameters, once per network.
        with pytest.raises(ConfigError):
            make_design(retention=0.0)
        with pytest.raises(ConfigError):
            make_design(retention=PAPER_TABLE.voltage(0))
        with pytest.raises(ConfigError):
            make_design(wake_lockout_cycles=-1)


class TestSleepEnergy:
    def test_sleep_power_is_retention_leakage(self):
        channel = make_channel()
        channel.request_sleep(100)
        assert channel.power_w == PAPER_LINK_POWER.sleep_power_w(0.3, 8)
        # Far below the level-0 operating power.
        assert channel.power_w < PAPER_LINK_POWER.channel_power_w(
            PAPER_TABLE, 0, 8
        )

    def test_sleep_entry_and_wake_each_charge_one_transition(self):
        channel = make_channel()
        regulator = RegulatorModel()
        v0 = PAPER_TABLE.voltage(0)
        base = channel.transition_energy_fj
        channel.request_sleep(100)
        entry = joules_to_femtojoules(regulator.transition_energy_j(v0, 0.3))
        assert channel.transition_energy_fj == base + entry
        channel.request_wake(200)
        wake = joules_to_femtojoules(regulator.transition_energy_j(0.3, v0))
        assert channel.transition_energy_fj == base + entry + wake
        assert channel.transition_count == 2

    def test_asleep_span_billed_at_leakage(self):
        channel = make_channel()
        channel.request_sleep(1000)
        before = channel.link_energy_j
        channel.request_wake(2000)  # accrues the 1000-cycle nap
        leakage = PAPER_LINK_POWER.sleep_power_w(0.3, 8) * (1000 / 1.0e9)
        assert channel.link_energy_j - before == pytest.approx(leakage)
        assert channel.sleep_cycles == 1000

    def test_finalize_mid_sleep_is_idempotent(self):
        channel = make_channel()
        channel.request_sleep(100)
        channel.finalize(600)
        assert channel.sleep_cycles == 500
        channel.finalize(600)
        assert channel.sleep_cycles == 500
        channel.finalize(700)
        assert channel.sleep_cycles == 600


class TestChargeReplay:
    def test_replay_extends_busy_and_bills_energy(self):
        channel = make_channel(initial_level=9)
        before = channel.link_energy_j
        channel.charge_replay(4, 100.0)
        assert channel.replay_count == 4
        occupancy = 4 * channel.serialization_cycles
        assert channel.busy_until == pytest.approx(100.0 + occupancy)
        billed = channel.power_w * (occupancy / 1.0e9)
        assert channel.replay_energy_j == pytest.approx(billed)
        assert channel.link_energy_j - before == pytest.approx(billed)

    def test_replay_queues_behind_inflight_traffic(self):
        channel = make_channel(initial_level=9)
        channel.send_flit(100.0)
        wire_free = channel.busy_until
        channel.charge_replay(2, 100.0)
        assert channel.busy_until == pytest.approx(
            wire_free + 2 * channel.serialization_cycles
        )

    def test_zero_flits_is_a_no_op(self):
        channel = make_channel()
        channel.charge_replay(0, 100.0)
        assert channel.replay_count == 0
        assert channel.replay_energy_j == 0.0


class TestEndToEnd:
    def test_link_shutdown_run_passes_sanitizer(self):
        config = SMOKE_SCALE.simulation(0.05, policy="link_shutdown")
        simulator = build_simulator(config, sanitize=True)
        result = simulator.run()
        assert simulator.sanitizer is not None
        assert not simulator.sanitizer.violations
        channels = [c.channel for c in simulator.controllers]
        assert sum(c.sleep_count for c in channels) > 0
        assert sum(c.sleep_cycles for c in channels) > 0
        # Sleeping must beat the plain history policy's floor at this load.
        assert result.power.normalized < 0.5

    def test_error_correction_run_passes_sanitizer_and_replays(self):
        config = SMOKE_SCALE.simulation(
            0.5,
            policy="error_correction",
            # Aggressive error model so replays actually happen in a
            # short smoke run.
            dvs=DVSControlConfig(
                policy="error_correction",
                params={"error_rate": 0.05, "probe_windows": 2},
            ),
        )
        simulator = build_simulator(config, sanitize=True)
        simulator.run()
        assert not simulator.sanitizer.violations
        channels = [c.channel for c in simulator.controllers]
        assert sum(c.replay_count for c in channels) > 0

    def test_sleep_config_knobs_reach_the_channels(self):
        config = SMOKE_SCALE.simulation(
            0.05,
            policy="link_shutdown",
            link_overrides={
                "sleep_retention_voltage_v": 0.25,
                "sleep_wake_lockout_cycles": 123,
            },
        )
        simulator = build_simulator(config)
        design = simulator.controllers[0].channel.design
        assert design is simulator.design
        assert design.retention_voltage_v == 0.25
        assert design.wake_lockout_cycles == 123

    def test_non_sleep_policies_never_sleep(self):
        config = SMOKE_SCALE.simulation(0.05, policy="history")
        simulator = build_simulator(config, sanitize=True)
        simulator.run()
        channels = [c.channel for c in simulator.controllers]
        assert sum(c.sleep_count for c in channels) == 0
