"""Tests for per-VC state."""

import pytest

from repro.errors import ConfigError
from repro.network.vc import UNROUTED, InputVC


class TestInputVC:
    def test_initial_state(self):
        vc = InputVC(8)
        assert vc.out_port == UNROUTED
        assert vc.out_vc == UNROUTED
        assert vc.route_options is None
        assert not vc.flits
        assert vc.capacity == 8

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            InputVC(0)

    def test_reset_route(self):
        vc = InputVC(8)
        vc.out_port = 2
        vc.out_vc = 1
        vc.route_options = [(2, (0, 1))]
        vc.reset_route()
        assert vc.out_port == UNROUTED
        assert vc.out_vc == UNROUTED
        assert vc.route_options is None
