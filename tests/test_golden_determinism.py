"""Golden determinism guard for the kernel/instrumentation split.

The values below were captured from the monolithic ``Simulator`` (one
class owning both the cycle loop and all measurement state) immediately
before it was split into ``SimulationEngine`` + instrumentation bus. The
refactor's contract is that ``SimulationResult`` stays **bit-identical**
for a fixed seed — every float compared with ``==``, not approx — so any
drift in event ordering, energy-accrual chunking, or counter bookkeeping
shows up here as a hard failure.

Also pins the serial-equals-parallel acceptance criterion:
``compare_policies`` on a two-process pool must equal the serial
``compare_policies`` point for point.

The energy pins were re-captured when the channel accumulators moved to
integer femtojoules and window utilization became reset-based (the
batched kernel's class re-merging needs both) — a pure quantization
shift; every behavioral pin (packet counts, latency distribution,
transition count, drops) was bit-identical across that change.
"""

from __future__ import annotations

from repro.config import (
    DVSControlConfig,
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.harness.backends import make_backend
from repro.harness.sweep import compare_policies
from repro.network.simulator import Simulator

from .conftest import small_config

#: Same fast link the fixtures use — transitions complete within the run.
GOLDEN_LINK = LinkConfig(
    voltage_transition_s=0.2e-6, frequency_transition_link_cycles=4
)


def golden_config(policy: str, kind: str, rate: float) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(
            radix=4, dimensions=2, vcs_per_port=2, buffers_per_port=16
        ),
        link=GOLDEN_LINK,
        dvs=DVSControlConfig(policy=policy),
        workload=WorkloadConfig(
            kind=kind,
            injection_rate=rate,
            seed=7,
            average_tasks=5,
            average_task_duration_s=3.0e-6,
            onoff_sources_per_task=4,
        ),
        warmup_cycles=500,
        measure_cycles=4_000,
    )


class TestGoldenDVS:
    """History-policy DVS under the paper's two-level workload."""

    def test_bit_identical_to_prerefactor_capture(self):
        result = Simulator(golden_config("history", "two_level", 0.6)).run()
        assert result.offered_packets == 3085
        assert result.ejected_packets == 2519
        assert result.offered_rate == 0.77125
        assert result.accepted_rate == 0.62975
        assert result.latency.count == 2464
        assert result.latency.mean == 213.7353896103896
        assert result.latency.median == 51.0
        assert result.latency.p95 == 826.0
        assert result.latency.p99 == 1682.0
        assert result.latency.minimum == 18
        assert result.latency.maximum == 2036
        assert result.power.mean_power_w == 67.17859494300001
        assert result.power.normalized == 0.8747212883203125
        assert result.power.savings_factor == 1.1432212904298402
        assert result.power.transition_count == 347
        assert result.power.transition_energy_j == 0.00010727308638800001
        assert result.mean_level == 2.3958333333333335
        assert result.requests_dropped == 372


class TestGoldenSeries:
    """No-DVS uniform run with a 500-cycle series window."""

    def test_bit_identical_to_prerefactor_capture(self):
        result = Simulator(
            golden_config("none", "uniform", 0.3), series_window=500
        ).run()
        assert result.offered_packets == 1163
        assert result.ejected_packets == 1161
        assert result.latency.count == 1149
        assert result.latency.mean == 41.65187119234117
        assert result.latency.minimum == 18
        assert result.latency.maximum == 96
        assert result.power.mean_power_w == 76.80000000000001
        assert result.power.transition_count == 0
        assert result.mean_level == 9.0
        assert result.requests_dropped == 0
        assert result.series["offered_rate"].values == [
            0.002, 0.304, 0.286, 0.258, 0.278, 0.348, 0.258, 0.296,
        ]
        assert result.series["accepted_rate"].values == [
            0.0, 0.3, 0.294, 0.254, 0.272, 0.336, 0.286, 0.278,
        ]
        assert result.series["power_w"].values == [
            0.0,
            76.79999999999997,
            76.8000000000002,
            76.79999999999976,
            76.79999999999987,
            76.80000000000051,
            76.80000000000003,
            76.79999999999949,
        ]
        assert result.series["mean_level"].values == [9.0] * 8


class TestSerialParallelEquivalence:
    def test_pooled_comparison_matches_serial(self):
        config = small_config(rate=0.2, warmup=200, measure=800)
        rates = (0.2, 0.5)
        policies = {
            "none": DVSControlConfig(policy="none"),
            "history": DVSControlConfig(policy="history"),
        }
        serial = compare_policies(config, rates, policies)
        parallel = compare_policies(
            config, rates, policies, backend=make_backend(2)
        )
        assert serial == parallel


class TestGoldenSweepCache:
    """The on-disk sweep cache must not perturb golden results: a cached
    re-run returns the bit-identical points without simulating a cycle."""

    def test_cached_rerun_is_bit_identical_and_simulation_free(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        cache_mod.reset_cache()
        try:
            config = small_config(rate=0.2, warmup=200, measure=800)
            rates = (0.2, 0.5)
            policies = {
                "none": DVSControlConfig(policy="none"),
                "history": DVSControlConfig(policy="history"),
            }
            first = compare_policies(config, rates, policies)

            def boom(*args, **kwargs):  # pragma: no cover - must never run
                raise AssertionError("cached re-run simulated a config")

            monkeypatch.setattr("repro.harness.backends.run_simulation", boom)
            second = compare_policies(config, rates, policies)
            assert second == first
            cache = cache_mod.get_cache()
            assert cache.hits == len(rates) * len(policies)
        finally:
            cache_mod.reset_cache()
