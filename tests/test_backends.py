"""Tests for the unified execution backends."""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

from repro.errors import ExperimentError, SweepExecutionError
from repro.harness.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_backend,
    make_backend,
)
from repro.harness.resilience import RetryPolicy
from repro.harness.sweep import SweepPoint, rate_sweep

from .conftest import small_config, subprocess_env


class TestMakeBackend:
    def test_serial_for_none_zero_one(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(0), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)

    def test_pool_for_many(self):
        backend = make_backend(3, chunksize=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.processes == 3
        assert backend.chunksize == 2

    def test_negative_processes_rejected(self):
        with pytest.raises(ExperimentError):
            make_backend(-1)

    def test_bad_chunksize_rejected(self):
        with pytest.raises(ExperimentError):
            ProcessPoolBackend(2, chunksize=0)


class TestMakeBackendKernel:
    def test_scalar_kernel_is_the_default(self):
        assert isinstance(make_backend(1), SerialBackend)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ExperimentError, match="unknown kernel"):
            make_backend(1, kernel="vectorized")

    def test_batched_kernel_is_a_deprecated_alias_for_scalar(self):
        with pytest.warns(DeprecationWarning, match="batched"):
            pooled = make_backend(2, kernel="batched")
        assert isinstance(pooled, ProcessPoolBackend)
        assert repr(pooled) == repr(make_backend(2))
        with pytest.warns(DeprecationWarning, match="batched"):
            assert isinstance(make_backend(1, kernel="batched"), SerialBackend)


class TestNumpyGate:
    def test_scalar_entry_points_do_not_import_numpy(self):
        """The CLI, scalar sweeps and fabric workers start without numpy;
        only the modules that use it (traffic.selfsim) import it, lazily."""
        probe = (
            "import sys\n"
            "import repro.cli, repro.harness.sweep, "
            "repro.harness.distributed.worker\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestDefaultBackend:
    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        assert isinstance(default_backend(), SerialBackend)

    def test_env_selects_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "2")
        backend = default_backend()
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.processes == 2

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "many")
        with pytest.raises(ExperimentError):
            default_backend()


class TestBackendEquivalence:
    def test_serial_and_pool_return_identical_sweep_points(self):
        """Satellite acceptance: identical SweepPoint lists either way."""
        config = small_config(
            policy="history", rate=0.2, warmup=200, measure=800
        )
        rates = (0.2, 0.4, 0.6)
        serial = rate_sweep(config, rates, backend=SerialBackend())
        pooled = rate_sweep(
            config, rates, backend=ProcessPoolBackend(2, chunksize=2)
        )
        assert serial == pooled
        assert all(isinstance(p, SweepPoint) for p in serial)

    def test_explicit_chunksize_reaches_parallel_wrappers(self):
        config = small_config(rate=0.2, warmup=200, measure=600)
        points = rate_sweep(
            config, (0.2, 0.3), backend=make_backend(2, chunksize=1)
        )
        serial = rate_sweep(config, (0.2, 0.3), backend=SerialBackend())
        assert points == serial

    def test_repr_names_the_configuration(self):
        assert repr(SerialBackend()) == "SerialBackend()"
        assert "processes=3" in repr(ProcessPoolBackend(3, chunksize=5))

    def test_empty_batch_short_circuits(self):
        assert ProcessPoolBackend(4).map_configs([]) == []

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ExecutionBackend().map_configs([])


#: A retry policy that fails fast: no second attempts, no backoff waits.
FAIL_FAST = RetryPolicy(max_attempts=1, backoff_base_s=0.0)


def _configs(*rates):
    return [
        small_config(rate=rate, warmup=100, measure=300) for rate in rates
    ]


class TestFailureSemantics:
    def _poisoned_runner(self, poison_rate):
        def runner(config):
            if config.workload.injection_rate == poison_rate:
                raise ValueError(f"poisoned config at rate {poison_rate}")
            return f"result-{config.workload.injection_rate}"

        return runner

    def test_raising_config_degrades_to_a_hole_plus_failure(self, monkeypatch):
        monkeypatch.setattr(
            "repro.harness.backends.run_simulation",
            self._poisoned_runner(0.3),
        )
        backend = SerialBackend(retry=FAIL_FAST)
        results, report = backend.run(_configs(0.2, 0.3, 0.4))
        assert results == ["result-0.2", None, "result-0.4"]
        assert len(report.failures) == 1
        assert report.failures[0].outcome == "raised"
        assert "poisoned" in report.failures[0].error

    def test_strict_map_configs_raises_structured_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.harness.backends.run_simulation",
            self._poisoned_runner(0.3),
        )
        backend = SerialBackend(retry=FAIL_FAST)
        with pytest.raises(SweepExecutionError) as excinfo:
            backend.map_configs(_configs(0.2, 0.3))
        assert "1 of 2" in str(excinfo.value)
        assert excinfo.value.failures[0].outcome == "raised"

    def test_retry_recovers_a_flaky_config(self, monkeypatch):
        calls = {"count": 0}

        def flaky(config):
            calls["count"] += 1
            if calls["count"] == 1:
                raise OSError("transient")
            return "ok"

        monkeypatch.setattr("repro.harness.backends.run_simulation", flaky)
        backend = SerialBackend(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        results, report = backend.run(_configs(0.2))
        assert results == ["ok"]
        assert report.ok
        assert len(report.incidents) == 1
        assert report.incidents[0].recovered

    def test_per_point_timeout_through_the_backend(self, monkeypatch):
        def stall(config):
            time.sleep(5.0)
            return "too late"

        monkeypatch.setattr("repro.harness.backends.run_simulation", stall)
        backend = SerialBackend(
            retry=RetryPolicy(max_attempts=1, timeout_s=0.05)
        )
        results, report = backend.run(_configs(0.2))
        assert results == [None]
        assert report.failures[0].outcome == "timeout"

    def test_single_process_pool_degenerates_to_serial_path(self, monkeypatch):
        monkeypatch.setattr(
            "repro.harness.backends.run_simulation",
            self._poisoned_runner(0.3),
        )
        backend = ProcessPoolBackend(1, retry=FAIL_FAST)
        results, report = backend.run(_configs(0.2, 0.3))
        assert results == ["result-0.2", None]
        assert len(report.failures) == 1

    def test_sweep_drops_failed_points_when_keep_going(self, monkeypatch):
        from repro.harness.resilience import FailureReport

        monkeypatch.setattr(
            "repro.harness.backends.run_simulation",
            self._poisoned_runner(0.3),
        )

        # Patch SweepPoint construction away from real results.
        report = FailureReport()
        backend = SerialBackend(retry=FAIL_FAST)
        results, run_report = backend.run(_configs(0.2, 0.3, 0.4))
        report.merge(run_report)
        kept = [r for r in results if r is not None]
        assert len(kept) == 2
        assert not report.ok


class TestRetryWiring:
    def test_make_backend_passes_retry_through(self):
        policy = RetryPolicy(max_attempts=5)
        assert make_backend(1, retry=policy).retry is policy
        assert make_backend(3, retry=policy).retry is policy

    def test_default_backend_passes_retry_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        policy = RetryPolicy(max_attempts=5)
        assert default_backend(retry=policy).retry is policy

    def test_custom_retry_shows_in_serial_repr(self):
        policy = RetryPolicy(max_attempts=5)
        assert "max_attempts=5" in repr(SerialBackend(retry=policy))

    def test_bad_respawn_bound_rejected(self):
        with pytest.raises(ExperimentError):
            ProcessPoolBackend(2, max_pool_respawns=-1)
