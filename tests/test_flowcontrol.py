"""Tests for credit state and occupancy tracking."""

import pytest

from repro.errors import ConfigError, FlowControlError
from repro.network.flowcontrol import CreditState, OccupancyTracker
from repro.network.simulator import Simulator

from .conftest import small_config


class TestCreditState:
    def test_initial_credits(self):
        state = CreditState(vcs=2, capacity_per_vc=64)
        assert state.credits == [64, 64]
        assert state.vc_free == [True, True]

    def test_validation(self):
        with pytest.raises(ConfigError):
            CreditState(0, 4)
        with pytest.raises(ConfigError):
            CreditState(2, 0)


class TestOccupancyTracker:
    def test_time_backwards(self):
        tracker = OccupancyTracker()
        tracker.cumulative_integral(10)
        with pytest.raises(FlowControlError):
            tracker.cumulative_integral(5)

    @pytest.mark.parametrize(
        "policy, rate", [("none", 0.3), ("history", 1.0), ("history", 2.0)]
    )
    def test_integral_is_the_sum_of_residence_times(self, policy, rate):
        """The occupancy integral counts each flit once per buffered cycle.

        After a loaded run, every network input port's integral equals the
        buffer ages its age hooks saw at each departure (traversal and
        ejection alike) plus the age so far of each flit still buffered.
        This pins the router's one enqueue body and both inline departure
        sites against each other.
        """
        simulator = Simulator(small_config(policy=policy, rate=rate))
        departed: dict[tuple[int, int], list[int]] = {}
        for router in simulator.routers:
            for port, tracker in enumerate(router.occupancy):
                if tracker is not None:
                    ages = departed[router.node, port] = []
                    router.age_hooks.setdefault(port, []).append(ages.append)
        simulator.run()
        now = simulator.now
        assert sum(map(len, departed.values())) > 1_000
        for (node, port), ages in departed.items():
            router = simulator.routers[node]
            waiting = sum(
                now - flit.buffer_arrival_cycle
                for vcstate in router.in_vcs[port]
                for flit in vcstate.flits
            )
            integral = router.occupancy[port].cumulative_integral(now)
            assert integral == sum(ages) + waiting, (node, port)
