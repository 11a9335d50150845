"""Tests for EWMA prediction."""

import pytest
from hypothesis import given, strategies as st

from repro.core.history import EWMAPredictor
from repro.errors import ConfigError


class TestEWMAPredictor:
    def test_paper_update_rule(self):
        # Par_predict = (W * current + past) / (W + 1) with W = 3.
        predictor = EWMAPredictor(weight=3.0, initial=0.2)
        assert predictor.update(0.6) == pytest.approx((3 * 0.6 + 0.2) / 4)

    def test_sequence(self):
        predictor = EWMAPredictor(weight=3.0)
        predictor.update(1.0)
        assert predictor.predicted == pytest.approx(0.75)
        predictor.update(1.0)
        assert predictor.predicted == pytest.approx(0.9375)

    def test_decay_on_idle(self):
        predictor = EWMAPredictor(weight=3.0, initial=1.0)
        predictor.update(0.0)
        assert predictor.predicted == pytest.approx(0.25)
        predictor.update(0.0)
        assert predictor.predicted == pytest.approx(0.0625)

    def test_primed_flag(self):
        predictor = EWMAPredictor()
        assert not predictor.primed
        predictor.update(0.5)
        assert predictor.primed

    def test_shift_add_friendly(self):
        assert EWMAPredictor(weight=3.0).is_shift_add_friendly
        assert EWMAPredictor(weight=7.0).is_shift_add_friendly
        assert not EWMAPredictor(weight=4.0).is_shift_add_friendly
        assert not EWMAPredictor(weight=2.5).is_shift_add_friendly

    def test_validation(self):
        with pytest.raises(ConfigError):
            EWMAPredictor(weight=0.0)
        with pytest.raises(ConfigError):
            EWMAPredictor(initial=1.5)
        predictor = EWMAPredictor()
        with pytest.raises(ConfigError):
            predictor.update(-0.1)

    @given(
        observations=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50
        ),
        weight=st.sampled_from([1.0, 3.0, 7.0]),
    )
    def test_stays_in_unit_interval(self, observations, weight):
        predictor = EWMAPredictor(weight=weight)
        for value in observations:
            predicted = predictor.update(value)
            assert 0.0 <= predicted <= 1.0

    @given(value=st.floats(min_value=0.0, max_value=1.0))
    def test_converges_to_constant_input(self, value):
        predictor = EWMAPredictor(weight=3.0)
        for _ in range(40):
            predictor.update(value)
        assert predictor.predicted == pytest.approx(value, abs=1e-4)
