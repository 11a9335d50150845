"""Live tests of the sweep helpers on small simulations."""

from repro.config import DVSControlConfig
from repro.harness.sweep import (
    SweepPoint,
    compare_policies,
    rate_sweep,
)

from .conftest import small_config


class TestRateSweep:
    def test_points_align_with_rates(self):
        config = small_config(rate=0.1, measure=1_500)
        points = rate_sweep(config, (0.1, 0.5))
        assert [p.target_rate for p in points] == [0.1, 0.5]
        assert points[1].offered_rate > points[0].offered_rate

    def test_points_carry_power(self):
        config = small_config(policy="history", rate=0.1, measure=2_000)
        (point,) = rate_sweep(config, (0.1,))
        assert isinstance(point, SweepPoint)
        assert 0.0 < point.normalized_power <= 1.2
        assert point.savings_factor > 0.0


class TestComparePoliciesLive:
    def test_same_offered_traffic_per_policy(self):
        """Same seed + rate means identical offered load across policies."""
        config = small_config(rate=0.3, measure=2_000)
        sweeps = compare_policies(
            config,
            (0.3,),
            {
                "none": DVSControlConfig(policy="none"),
                "static": DVSControlConfig(policy="static", static_level=5),
            },
        )
        assert (
            sweeps["none"][0].offered_rate == sweeps["static"][0].offered_rate
        )

    def test_static_level_power_between_extremes(self):
        config = small_config(rate=0.05, measure=3_000, warmup=2_000)
        sweeps = compare_policies(
            config,
            (0.05,),
            {
                "none": DVSControlConfig(policy="none"),
                "static5": DVSControlConfig(policy="static", static_level=5),
                "history": DVSControlConfig(policy="history"),
            },
        )
        none_power = sweeps["none"][0].normalized_power
        static_power = sweeps["static5"][0].normalized_power
        history_power = sweeps["history"][0].normalized_power
        assert history_power < static_power < none_power
