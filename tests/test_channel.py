"""Tests for the topology-bound network channel."""

import pytest

from repro.core.dvs_link import ChannelDesign, DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import ConfigError
from repro.network.channel import NetworkChannel
from repro.network.topology import ChannelSpec


def make_network_channel(initial_level=9, pipeline_latency=12):
    dvs = DVSChannel(
        ChannelDesign(PAPER_TABLE, PAPER_LINK_POWER, timing=TransitionTiming(0.5e-6, 5)),
        initial_level=initial_level,
    )
    spec = ChannelSpec(0, src_node=0, src_port=0, dst_node=1, dst_port=1, )
    return NetworkChannel(spec, dvs, pipeline_latency)


class TestArrivalTiming:
    """Arrival times themselves are the router's launch stage; see
    test_router.py::TestWireOracle."""

    def test_negative_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            make_network_channel(pipeline_latency=-1)

    def test_repr_mentions_endpoints(self):
        assert "0:0 -> 1:1" in repr(make_network_channel())
