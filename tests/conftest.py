"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.config import (
    DVSControlConfig,
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.levels import PAPER_TABLE
from repro.core.policy import DVSPolicy
from repro.core.registry import PolicyBuildContext, build_policy
from repro.network.simulator import Simulator
from repro.traffic.trace import TraceReplaySource

#: A link whose transitions are fast enough for short test runs.
FAST_LINK = LinkConfig(
    voltage_transition_s=0.2e-6, frequency_transition_link_cycles=4
)


def small_config(
    *,
    radix: int = 3,
    policy: str = "none",
    rate: float = 0.1,
    vcs: int = 2,
    routing: str = "dor",
    wraparound: bool = False,
    warmup: int = 500,
    measure: int = 2_000,
    workload_kind: str = "uniform",
    seed: int = 1,
    **workload_kwargs,
) -> SimulationConfig:
    """A small, fast simulation config for tests."""
    return SimulationConfig(
        network=NetworkConfig(
            radix=radix,
            dimensions=2,
            vcs_per_port=vcs,
            buffers_per_port=16,
            routing=routing,
            wraparound=wraparound,
        ),
        link=FAST_LINK,
        dvs=DVSControlConfig(policy=policy),
        workload=WorkloadConfig(
            kind=workload_kind, injection_rate=rate, seed=seed, **workload_kwargs
        ),
        warmup_cycles=warmup,
        measure_cycles=measure,
    )


def make_policy(
    policy: str = "history", *, channel_index: int = 0, **knobs: float
) -> DVSPolicy:
    """Policy *policy* built the way the engine builds it: through
    ``build_policy`` from a config whose ``params`` hold *knobs*, for a
    channel of the paper's V/F table. Out-of-bound knobs raise
    :class:`~repro.errors.ConfigError` when the config is built."""
    dvs = DVSControlConfig(policy=policy, params=knobs)
    return build_policy(
        dvs, PolicyBuildContext(dvs.thresholds, PAPER_TABLE, channel_index)
    )


def trace_simulator(
    trace: list[tuple[int, int, int]], *, config: SimulationConfig | None = None
) -> Simulator:
    """A simulator fed by an explicit (cycle, src, dst) trace."""
    if config is None:
        config = small_config(rate=0.0001)
    simulator = Simulator(config)
    simulator.traffic = TraceReplaySource(
        simulator.topology, config.workload, trace
    )
    return simulator


def ejected_packets(simulator: Simulator) -> int:
    """Packets ejected since cycle 0, counted by the routers."""
    return sum(router.packets_ejected for router in simulator.routers)


def subprocess_env() -> dict[str, str]:
    """The current environment, with this checkout's ``src`` importable
    by a child ``python -m repro ...`` or ``python -c ...``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + existing if existing else ""),
    }


@pytest.fixture(autouse=True)
def _sweep_cache_off(monkeypatch):
    """Keep tests hermetic: no on-disk sweep result reuse across tests or
    runs unless a test opts back in (by re-setting REPRO_CACHE itself)."""
    monkeypatch.setenv("REPRO_CACHE", "off")


@pytest.fixture(autouse=True)
def _chaos_off(monkeypatch):
    """No fault injection leaks between tests (or in from the caller's
    environment) unless a test installs a plan itself."""
    from repro.harness import chaos

    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    chaos.reset_plan()
    yield
    chaos.reset_plan()


@pytest.fixture
def mesh3_config():
    return small_config()
