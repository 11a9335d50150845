"""Unit tests for the competitor policies (error correction, shutdown, oracle)."""

import pytest

from repro.core.levels import PAPER_TABLE
from repro.core.policy import DVSAction, PolicyInputs
from repro.core.policy_zoo import (
    ErrorCorrectionPolicy,
    LinkShutdownPolicy,
    OraclePolicy,
)
from repro.errors import ConfigError


def inputs(
    lu=0.0,
    bu=0.0,
    level=9,
    max_level=9,
    cycle=0,
    asleep=False,
    sleep_demand=False,
):
    return PolicyInputs(
        link_utilization=lu,
        buffer_utilization=bu,
        level=level,
        max_level=max_level,
        cycle=cycle,
        asleep=asleep,
        sleep_demand=sleep_demand,
    )


class TestErrorCorrectionPolicy:
    def test_ctor_validation(self):
        with pytest.raises(ConfigError):
            ErrorCorrectionPolicy(error_rate=1.5)
        with pytest.raises(ConfigError):
            ErrorCorrectionPolicy(error_growth=0.5)
        with pytest.raises(ConfigError):
            ErrorCorrectionPolicy(probe_windows=0)
        with pytest.raises(ConfigError):
            ErrorCorrectionPolicy(replay_flits=0)

    def test_no_errors_at_top_level(self):
        policy = ErrorCorrectionPolicy(error_rate=1.0, probe_windows=1)
        # Full margin: the error model cannot fire, only probe downward.
        action = policy.decide(inputs(lu=1.0, level=9))
        assert action is DVSAction.STEP_DOWN
        assert policy.errors_observed == 0

    def test_probes_down_after_clean_probation(self):
        policy = ErrorCorrectionPolicy(error_rate=0.0, probe_windows=3)
        actions = [policy.decide(inputs(lu=0.5, level=5)) for _ in range(3)]
        assert actions == [DVSAction.HOLD, DVSAction.HOLD, DVSAction.STEP_DOWN]

    def test_never_probes_below_level_zero(self):
        policy = ErrorCorrectionPolicy(error_rate=0.0, probe_windows=1)
        assert policy.decide(inputs(lu=0.5, level=0)) is DVSAction.HOLD

    def test_error_fires_replay_and_backoff(self):
        # error_rate 1.0 with undervolt margin and LU 1.0 => p = 1.0.
        policy = ErrorCorrectionPolicy(
            error_rate=1.0, probe_windows=1, backoff_windows=2, replay_flits=5
        )
        assert policy.decide(inputs(lu=1.0, level=5)) is DVSAction.STEP_UP
        assert policy.errors_observed == 1
        assert policy.consume_replay_flits() == 5
        assert policy.consume_replay_flits() == 0  # drained
        # Backoff: hold for two windows (error-free at full margin).
        assert policy.decide(inputs(lu=0.0, level=6)) is DVSAction.HOLD
        assert policy.decide(inputs(lu=0.0, level=6)) is DVSAction.HOLD
        assert policy.decide(inputs(lu=0.0, level=6)) is DVSAction.STEP_DOWN

    def test_idle_link_never_errors(self):
        policy = ErrorCorrectionPolicy(error_rate=1.0, probe_windows=1)
        # LU 0: no flits crossed the wire, nothing to corrupt.
        assert policy.decide(inputs(lu=0.0, level=3)) is DVSAction.STEP_DOWN
        assert policy.errors_observed == 0

    def test_deterministic_under_fixed_seed(self):
        def trace(policy):
            out = []
            for i in range(200):
                out.append(policy.decide(inputs(lu=0.8, level=4, cycle=i)))
            return out

        a = ErrorCorrectionPolicy(error_rate=0.2, seed=7)
        b = ErrorCorrectionPolicy(error_rate=0.2, seed=7)
        assert trace(a) == trace(b)

    def test_channel_index_decorrelates_streams(self):
        # One level of undervolt, p ~ 0.9 * 0.1 * 4 = 0.36 per window:
        # decisions genuinely depend on the draw (p=1 would saturate).
        a = ErrorCorrectionPolicy(error_rate=0.1, seed=7, channel_index=0)
        b = ErrorCorrectionPolicy(error_rate=0.1, seed=7, channel_index=1)
        trace_a = [a.decide(inputs(lu=0.9, level=8)) for _ in range(100)]
        trace_b = [b.decide(inputs(lu=0.9, level=8)) for _ in range(100)]
        assert trace_a != trace_b


class TestLinkShutdownPolicy:
    def test_ctor_validation(self):
        with pytest.raises(ConfigError):
            LinkShutdownPolicy(sleep_lu=1.5)
        with pytest.raises(ConfigError):
            LinkShutdownPolicy(sleep_patience=0)
        with pytest.raises(ConfigError):
            LinkShutdownPolicy(max_sleep_windows=-1)

    def test_sleeps_after_patience_idle_windows_at_level_zero(self):
        policy = LinkShutdownPolicy(sleep_lu=0.05, sleep_patience=3)
        actions = [policy.decide(inputs(lu=0.0, level=0)) for _ in range(3)]
        assert actions[:2] == [DVSAction.STEP_DOWN, DVSAction.STEP_DOWN]
        assert actions[2] is DVSAction.SLEEP

    def test_no_sleep_above_level_zero(self):
        policy = LinkShutdownPolicy(sleep_lu=0.05, sleep_patience=1)
        assert policy.decide(inputs(lu=0.0, level=1)) is DVSAction.STEP_DOWN

    def test_busy_window_resets_patience(self):
        policy = LinkShutdownPolicy(sleep_lu=0.05, sleep_patience=2)
        policy.decide(inputs(lu=0.0, level=0))
        policy.decide(inputs(lu=0.9, level=0))  # traffic: counter resets
        assert policy.decide(inputs(lu=0.0, level=0)) is not DVSAction.SLEEP

    def test_holds_while_asleep_without_demand(self):
        policy = LinkShutdownPolicy()
        assert policy.decide(inputs(asleep=True)) is DVSAction.HOLD

    def test_wakes_on_demand(self):
        policy = LinkShutdownPolicy()
        action = policy.decide(inputs(asleep=True, sleep_demand=True))
        assert action is DVSAction.WAKE

    def test_wakes_at_sleep_cap(self):
        policy = LinkShutdownPolicy(max_sleep_windows=3)
        naps = [policy.decide(inputs(asleep=True)) for _ in range(3)]
        assert naps == [DVSAction.HOLD, DVSAction.HOLD, DVSAction.WAKE]

    def test_ewma_frozen_during_sleep(self):
        policy = LinkShutdownPolicy(sleep_lu=0.05, sleep_patience=1)
        policy.decide(inputs(lu=0.0, level=0))  # SLEEP; EWMA saw only 0
        before = policy.predicted_link_utilization
        policy.decide(inputs(asleep=True))
        assert policy.predicted_link_utilization == before

    def test_awake_path_matches_history_thresholds(self):
        policy = LinkShutdownPolicy()
        # High LU at a mid level: prediction jumps above T_high.
        assert policy.decide(inputs(lu=1.0, level=5)) is DVSAction.STEP_UP


class TestOraclePolicy:
    def test_ctor_validation(self):
        with pytest.raises(ConfigError):
            OraclePolicy(PAPER_TABLE, headroom=0.0)
        with pytest.raises(ConfigError):
            OraclePolicy(PAPER_TABLE, headroom=1.2)

    def test_idle_targets_bottom_level(self):
        policy = OraclePolicy(PAPER_TABLE)
        assert policy.target_level(inputs(lu=0.0, level=9)) == 0

    def test_saturated_targets_top_level(self):
        policy = OraclePolicy(PAPER_TABLE)
        assert policy.target_level(inputs(lu=1.0, level=9)) == 9

    def test_target_math_with_headroom(self):
        policy = OraclePolicy(PAPER_TABLE, headroom=0.9)
        # Demand = LU * f(level); target is the cheapest level whose
        # bandwidth*0.9 covers it.
        demand_inputs = inputs(lu=0.5, level=9)
        demand = 0.5 * PAPER_TABLE.frequency(9)
        target = policy.target_level(demand_inputs)
        assert PAPER_TABLE.frequency(target) * 0.9 >= demand
        assert (
            target == 0
            or PAPER_TABLE.frequency(target - 1) * 0.9 < demand
        )

    def test_steps_one_level_per_window(self):
        policy = OraclePolicy(PAPER_TABLE)
        assert policy.decide(inputs(lu=0.0, level=9)) is DVSAction.STEP_DOWN
        assert policy.decide(inputs(lu=1.0, level=0)) is DVSAction.STEP_UP

    def test_holds_at_target(self):
        policy = OraclePolicy(PAPER_TABLE)
        assert policy.decide(inputs(lu=0.0, level=0)) is DVSAction.HOLD

    def test_pure_and_stateless(self):
        policy = OraclePolicy(PAPER_TABLE)
        same = inputs(lu=0.4, level=5)
        assert policy.decide(same) is policy.decide(same)
