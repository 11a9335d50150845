"""Tests for DVS policies (Algorithm 1 and baselines)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import DVSAction, PolicyInputs
from repro.core.thresholds import TABLE1_DEFAULT
from repro.errors import ConfigError

from .conftest import make_policy


def make_inputs(lu, bu, level=5, max_level=9, cycle=200):
    return PolicyInputs(
        link_utilization=lu,
        buffer_utilization=bu,
        level=level,
        max_level=max_level,
        cycle=cycle,
    )


class TestHistoryDVSPolicy:
    def test_low_lu_steps_down(self):
        policy = make_policy("history")
        # Feed constant low LU until the EWMA settles under T_low.
        action = None
        for _ in range(10):
            action = policy.decide(make_inputs(lu=0.05, bu=0.1))
        assert action is DVSAction.STEP_DOWN

    def test_high_lu_steps_up(self):
        policy = make_policy("history")
        action = None
        for _ in range(10):
            action = policy.decide(make_inputs(lu=0.9, bu=0.1))
        assert action is DVSAction.STEP_UP

    def test_band_holds(self):
        policy = make_policy("history")
        action = None
        for _ in range(10):
            action = policy.decide(make_inputs(lu=0.35, bu=0.1))
        assert action is DVSAction.HOLD

    def test_congestion_litmus_switches_thresholds(self):
        """LU = 0.5 steps UP when uncongested but DOWN when congested."""
        uncongested = make_policy("history")
        congested = make_policy("history")
        for _ in range(10):
            action_light = uncongested.decide(make_inputs(lu=0.5, bu=0.1))
            action_heavy = congested.decide(make_inputs(lu=0.5, bu=0.9))
        assert action_light is DVSAction.STEP_UP
        assert action_heavy is DVSAction.STEP_DOWN

    def test_first_window_uses_ewma(self):
        # One high observation from a cold start: prediction = 3/4 of it.
        policy = make_policy("history")
        policy.decide(make_inputs(lu=1.0, bu=0.0))
        assert policy.predicted_link_utilization == pytest.approx(0.75)

    def test_ewma_smooths_transients(self):
        """One moderately busy window after idleness is damped (paper 3.2):
        raw LU 0.5 would step up, but the EWMA holds at (3*0.5+0)/4."""
        policy = make_policy("history")
        for _ in range(20):
            policy.decide(make_inputs(lu=0.0, bu=0.1))
        action = policy.decide(make_inputs(lu=0.5, bu=0.1))
        assert policy.predicted_link_utilization == pytest.approx(0.375)
        assert action is DVSAction.HOLD

    @settings(max_examples=60, deadline=None)
    @given(
        lu=st.floats(min_value=0.0, max_value=1.0),
        bu=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_steady_state_decision_matches_thresholds(self, lu, bu):
        """After convergence the decision is the paper's Algorithm 1 on the
        raw inputs."""
        policy = make_policy("history")
        for _ in range(60):
            action = policy.decide(make_inputs(lu=lu, bu=bu))
        t_low, t_high = TABLE1_DEFAULT.select(policy.predicted_buffer_utilization)
        predicted = policy.predicted_link_utilization
        if predicted < t_low - 1e-6:
            assert action is DVSAction.STEP_DOWN
        elif predicted > t_high + 1e-6:
            assert action is DVSAction.STEP_UP


class TestBaselines:
    def test_static_level_tracks_target(self):
        policy = make_policy("static", static_level=4)
        assert policy.decide(make_inputs(0.5, 0.5, level=2)) is DVSAction.STEP_UP
        assert policy.decide(make_inputs(0.5, 0.5, level=6)) is DVSAction.STEP_DOWN
        assert policy.decide(make_inputs(0.5, 0.5, level=4)) is DVSAction.HOLD

    def test_static_level_clamps_to_max(self):
        policy = make_policy("static", static_level=20)
        assert policy.decide(make_inputs(0.5, 0.5, level=9)) is DVSAction.HOLD

    def test_static_level_validation(self):
        with pytest.raises(ConfigError, match="below minimum"):
            make_policy("static", static_level=-1)

    def test_lu_only_ignores_congestion(self):
        """The strawman keeps stepping up at LU=0.5 even under congestion."""
        policy = make_policy("lu_only")
        for _ in range(10):
            action = policy.decide(make_inputs(lu=0.5, bu=0.95))
        assert action is DVSAction.STEP_UP


class TestAdaptiveThresholdPolicy:
    def test_becomes_more_aggressive_when_calm(self):
        policy = make_policy("adaptive_threshold")
        start_low = policy.current_light_load_pair[0]
        for _ in range(3 * policy.patience):
            policy.decide(make_inputs(lu=0.35, bu=0.05))
        assert policy.current_light_load_pair[0] > start_low

    def test_backs_off_under_pressure(self):
        policy = make_policy("adaptive_threshold")
        for _ in range(3 * policy.patience):
            policy.decide(make_inputs(lu=0.35, bu=0.05))
        aggressive_low = policy.current_light_load_pair[0]
        for _ in range(10):
            policy.decide(make_inputs(lu=0.35, bu=0.45))
        assert policy.current_light_load_pair[0] < aggressive_low

    def test_bounds_respected(self):
        policy = make_policy("adaptive_threshold")
        policy.patience = 1
        for _ in range(200):
            policy.decide(make_inputs(lu=0.35, bu=0.0))
        assert policy.current_light_load_pair[0] == policy.ceiling_low
        for _ in range(200):
            policy.decide(make_inputs(lu=0.35, bu=0.45))
        assert policy.current_light_load_pair[0] == policy.floor_low

    def test_validation(self):
        """The EWMA weight is the policy's one knob; its adaptation
        constants are not configurable."""
        with pytest.raises(ConfigError, match="below minimum"):
            make_policy("adaptive_threshold", ewma_weight=0.0)
        with pytest.raises(ConfigError, match="has no knob 'patience'"):
            make_policy("adaptive_threshold", patience=0)
