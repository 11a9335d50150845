"""Tests for the content-addressed on-disk sweep result cache."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cli import main
from repro.core.thresholds import TABLE2_SETTINGS
from repro.errors import ExperimentError
from repro.harness import cache as cache_mod
from repro.harness.backends import ExecutionBackend, ProcessPoolBackend, SerialBackend
from repro.harness.cache import SweepCache
from repro.harness.experiments import (
    ablation_ewma_weight,
    ablation_history_window,
    fig15_pareto_curve,
    workload_comparison,
)
from repro.harness.resilience import RetryPolicy
from repro.harness.scales import SMOKE_SCALE
from repro.harness.sweep import (
    rate_sweep,
    require_resumable_cache,
    resume_preview,
    zero_load_latency,
)

from .conftest import small_config


def _boom(*args, **kwargs):  # pragma: no cover - must never run
    raise AssertionError("simulated a config that should have been cached")


class _FixedTransport(ExecutionBackend):
    """A transport that settles the same *outcomes* for every chunk."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def _chunk_size(self, misses):
        return 1

    def _execute(self, chunks, settle, report):
        for chunk in chunks:
            settle(chunk, self.outcomes)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point REPRO_CACHE at a fresh directory (overriding the autouse
    'off') and guarantee no explicit override leaks between tests."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    cache_mod.reset_cache()
    yield tmp_path
    cache_mod.reset_cache()


class TestCacheSelection:
    def test_env_off_disables(self, monkeypatch):
        cache_mod.reset_cache()
        for value in ("off", "0", "no", "none", "disabled", "OFF"):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert cache_mod.get_cache() is None

    def test_env_path_selects_directory(self, cache_dir):
        cache = cache_mod.get_cache()
        assert cache is not None
        assert cache.root == cache_dir

    def test_unset_env_uses_xdg_default(self, monkeypatch, tmp_path):
        cache_mod.reset_cache()
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = cache_mod.cache_from_env()
        assert cache is not None
        assert cache.root == tmp_path / "repro" / "sweeps"

    def test_set_cache_overrides_env(self, cache_dir, tmp_path):
        override = SweepCache(tmp_path / "elsewhere")
        cache_mod.set_cache(override)
        assert cache_mod.get_cache() is override
        cache_mod.set_cache(None)
        assert cache_mod.get_cache() is None
        cache_mod.reset_cache()
        assert cache_mod.get_cache() is not None

    def test_counters_accumulate_per_root(self, cache_dir):
        assert cache_mod.get_cache() is cache_mod.get_cache()


class TestCachedSweeps:
    def test_second_run_is_all_hits_and_simulation_free(
        self, cache_dir, monkeypatch
    ):
        config = small_config(rate=0.2, warmup=200, measure=600)
        rates = (0.2, 0.4)
        first = rate_sweep(config, rates)
        cache = cache_mod.get_cache()
        assert (cache.hits, cache.misses) == (0, 2)
        # A re-run must be answered purely from disk.
        monkeypatch.setattr("repro.harness.backends.run_simulation", _boom)
        second = rate_sweep(config, rates)
        assert second == first
        assert (cache.hits, cache.misses) == (2, 2)

    def test_results_identical_with_and_without_cache(
        self, cache_dir, monkeypatch
    ):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cached = rate_sweep(config, (0.3,))
        monkeypatch.setenv("REPRO_CACHE", "off")
        uncached = rate_sweep(config, (0.3,))
        assert cached == uncached

    def test_pool_backend_uses_the_cache(self, cache_dir, monkeypatch):
        config = small_config(rate=0.2, warmup=200, measure=600)
        backend = ProcessPoolBackend(2, chunksize=1)
        first = rate_sweep(config, (0.2, 0.4), backend=backend)
        monkeypatch.setattr("repro.harness.backends.run_simulation", _boom)
        # Serial backend hits entries written by the pooled run.
        second = rate_sweep(config, (0.2, 0.4), backend=SerialBackend())
        assert second == first

    def test_different_seed_is_a_miss(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        rate_sweep(config, (0.2,))
        rate_sweep(small_config(rate=0.2, warmup=200, measure=600, seed=2), (0.2,))
        cache = cache_mod.get_cache()
        assert cache.misses == 2
        assert cache.hits == 0


TINY = dataclasses.replace(SMOKE_SCALE, warmup_cycles=300, measure_cycles=900)

#: Harness functions that simulate one batch of points, as
#: (call returning comparable rows, number of points).
BATCH_FUNCTIONS = {
    "fig15_pareto_curve": (
        lambda: fig15_pareto_curve(
            TINY, rate=0.6, settings={k: TABLE2_SETTINGS[k] for k in ("I", "VI")}
        ).rows,
        2,
    ),
    "ablation_ewma_weight": (
        lambda: ablation_ewma_weight(TINY, rate=0.6, weights=(1.0, 3.0)).rows,
        2,
    ),
    "ablation_history_window": (
        lambda: ablation_history_window(TINY, rate=0.6, windows=(100, 400)).rows,
        2,
    ),
    "workload_comparison": (
        lambda: workload_comparison(TINY, rate=0.6).rows,
        3,
    ),
    "zero_load_latency": (
        lambda: zero_load_latency(small_config(warmup=200, measure=600), rate=0.1),
        1,
    ),
}


class TestExperimentCheckpoints:
    @pytest.mark.parametrize("name", sorted(BATCH_FUNCTIONS))
    def test_second_call_is_answered_from_the_cache(self, name, tmp_path, monkeypatch):
        """Each function runs its points through the default backend, so
        they checkpoint into the sweep cache and a repeat is simulation-free."""
        call, points = BATCH_FUNCTIONS[name]
        cache = SweepCache(tmp_path)
        cache_mod.set_cache(cache)
        try:
            first = call()
            assert (cache.hits, cache.misses) == (0, points)
            monkeypatch.setattr("repro.harness.backends.run_simulation", _boom)
            second = call()
            assert (cache.hits, cache.misses) == (points, points)
        finally:
            cache_mod.reset_cache()
        assert second == first


class TestEntryIntegrity:
    def test_epoch_mismatch_is_a_miss(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        old = SweepCache(cache_dir, epoch="some-older-epoch")
        old.store(config, "stale-result")
        assert cache_mod.get_cache().load(config) is None

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        cache.store(config, "fine")
        path = cache.entry_path(config)
        path.write_bytes(b"not a pickle")
        assert cache.load(config) is None

    def test_fingerprint_mismatch_is_a_miss(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        cache.store(config, "fine")
        path = cache.entry_path(config)
        path.write_bytes(
            pickle.dumps({"fingerprint": "something-else", "result": "wrong"})
        )
        assert cache.load(config) is None

    def test_store_roundtrip_is_exact(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        payload = {"floats": [0.1, 2.5e-7], "nested": (1, "x")}
        cache.store(config, payload)
        assert cache.load(config) == payload

    def test_unwritable_root_degrades_to_no_caching(self, monkeypatch, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        cache = SweepCache(blocked / "sub")
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache.store(config, "result")  # must not raise
        assert cache.load(config) is None

    def test_short_batch_from_backend_raises(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        with pytest.raises(ExperimentError, match="0 results for a chunk of 1"):
            _FixedTransport([]).run([config])


class TestQuarantine:
    def test_corrupt_entry_is_renamed_and_counted(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        cache.store(config, "fine")
        path = cache.entry_path(config)
        path.write_bytes(b"not a pickle")
        assert cache.load(config) is None
        assert cache.corrupted == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        # The quarantined entry is out of the way: recompute-and-store
        # repairs the slot and the next load hits.
        cache.store(config, "repaired")
        assert cache.load(config) == "repaired"
        assert cache.corrupted == 1

    def test_missing_entry_is_a_plain_miss_not_corruption(self, cache_dir):
        cache = cache_mod.get_cache()
        assert cache.load(small_config(rate=0.2)) is None
        assert cache.corrupted == 0

    def test_describe_reports_quarantined_entries(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        assert "quarantined" not in cache.describe()
        cache.store(config, "fine")
        cache.entry_path(config).write_bytes(b"junk")
        cache.load(config)
        assert "1 corrupted entries quarantined" in cache.describe()


class TestStreamingCheckpoints:
    def test_results_stored_as_produced_not_at_batch_end(
        self, cache_dir, monkeypatch
    ):
        """An interrupt at point N keeps points 1..N-1 on disk: the serial
        backend checkpoints each point as it lands."""
        configs = [
            small_config(rate=rate, warmup=200, measure=600)
            for rate in (0.1, 0.2, 0.3)
        ]

        def runner(config):
            if config == configs[2]:
                raise KeyboardInterrupt
            return f"result-{config.workload.injection_rate}"

        monkeypatch.setattr("repro.harness.backends.run_simulation", runner)
        with pytest.raises(KeyboardInterrupt):
            SerialBackend().run(configs)
        cache = cache_mod.get_cache()
        assert cache.load(configs[0]) == "result-0.1"
        assert cache.load(configs[1]) == "result-0.2"
        assert cache.load(configs[2]) is None

    def test_none_results_pass_through_unstored(self, cache_dir, monkeypatch):
        """A point that fails after retries is a ``None`` hole, never stored."""
        configs = [
            small_config(rate=rate, warmup=200, measure=600)
            for rate in (0.1, 0.2)
        ]

        def runner(config):
            if config == configs[1]:
                raise ValueError("poisoned")
            return "ok"

        monkeypatch.setattr("repro.harness.backends.run_simulation", runner)
        fail_fast = RetryPolicy(max_attempts=1, backoff_base_s=0.0)
        results, report = SerialBackend(retry=fail_fast).run(configs)
        assert results == ["ok", None]
        assert [failure.outcome for failure in report.failures] == ["raised"]
        cache = cache_mod.get_cache()
        assert cache.load(configs[0]) == "ok"
        assert cache.load(configs[1]) is None
        assert not cache.contains(configs[1])

    def test_overlong_batch_from_backend_raises(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        with pytest.raises(ExperimentError, match="2 results for a chunk of 1"):
            _FixedTransport([("a", None), ("b", None)]).run([config])
        assert cache_mod.get_cache().load(config) is None

    def test_partition_splits_hits_from_misses(self, cache_dir):
        cache = cache_mod.get_cache()
        configs = [
            small_config(rate=rate, warmup=200, measure=600)
            for rate in (0.1, 0.2, 0.3)
        ]
        cache.store(configs[1], "cached")
        results, miss_indices, miss_configs = cache.partition(configs)
        assert results == [None, "cached", None]
        assert miss_indices == [0, 2]
        assert miss_configs == [configs[0], configs[2]]
        assert (cache.hits, cache.misses) == (1, 2)


class TestResume:
    def test_resume_requires_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        with pytest.raises(ExperimentError, match="resume requires"):
            require_resumable_cache()
        config = small_config(rate=0.2, warmup=200, measure=600)
        with pytest.raises(ExperimentError, match="resume requires"):
            rate_sweep(config, (0.2,), resume=True)

    def test_resume_recomputes_only_missing_points(self, cache_dir, monkeypatch):
        """ISSUE acceptance: an interrupted sweep resumed later replays
        checkpointed points and recomputes only the missing ones —
        verified via the cache hit/miss counters."""
        config = small_config(rate=0.2, warmup=200, measure=600)
        rates = (0.2, 0.3, 0.4, 0.5)
        monkeypatch.setenv("REPRO_CACHE", "off")
        expected = rate_sweep(config, rates)
        monkeypatch.setenv("REPRO_CACHE", str(cache_dir))

        # "Interrupted" campaign: only the first two points completed.
        rate_sweep(config, rates[:2])
        checkpointed, total = resume_preview(
            config.with_rate(rate) for rate in rates
        )
        assert (checkpointed, total) == (2, 4)

        cache = cache_mod.get_cache()
        hits, misses = cache.hits, cache.misses
        resumed = rate_sweep(config, rates, resume=True)
        assert resumed == expected  # bit-identical to an uninterrupted run
        assert cache.hits - hits == 2  # replayed from checkpoints
        assert cache.misses - misses == 2  # recomputed

    def test_resume_preview_requires_the_cache_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        with pytest.raises(ExperimentError):
            resume_preview([small_config(rate=0.2)])

    def test_contains_is_a_cheap_probe(self, cache_dir):
        cache = cache_mod.get_cache()
        config = small_config(rate=0.2, warmup=200, measure=600)
        assert not cache.contains(config)
        cache.store(config, "there")
        assert cache.contains(config)
        assert (cache.hits, cache.misses) == (0, 0)  # no counter bumps


class TestErrorPaths:
    def test_truncated_entry_is_a_miss(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        cache.store(config, {"rows": list(range(100))})
        path = cache.entry_path(config)
        intact = path.read_bytes()
        for cut in (0, 1, len(intact) // 2, len(intact) - 1):
            path.write_bytes(intact[:cut])
            assert cache.load(config) is None, f"truncated at {cut} bytes"
        path.write_bytes(intact)
        assert cache.load(config) == {"rows": list(range(100))}

    def test_entry_replaced_by_directory_is_a_miss(self, cache_dir):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        cache.store(config, "fine")
        path = cache.entry_path(config)
        path.unlink()
        path.mkdir()
        assert cache.load(config) is None

    def test_concurrent_stores_never_expose_a_torn_entry(self, cache_dir):
        import threading

        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()
        payloads = [{"writer": i, "rows": [i] * 500} for i in range(8)]
        start = threading.Barrier(len(payloads) + 1)
        failures: list[str] = []

        def write(payload):
            start.wait()
            for _ in range(20):
                cache.store(config, payload)

        def read():
            start.wait()
            for _ in range(200):
                value = cache.load(config)
                if value is not None and value not in payloads:
                    failures.append(f"torn read: {value!r}")
                    return

        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        # The winner is one complete payload, and no temp files linger.
        assert cache.load(config) in payloads
        assert not list(cache_dir.rglob(".tmp-*"))

    def test_failed_store_cleans_up_its_temp_file(self, cache_dir, monkeypatch):
        config = small_config(rate=0.2, warmup=200, measure=600)
        cache = cache_mod.get_cache()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.harness.cache.os.replace", boom)
        cache.store(config, "result")  # swallowed
        monkeypatch.undo()
        assert cache.load(config) is None
        assert not list(cache_dir.rglob(".tmp-*"))


class TestCLIIntegration:
    def test_sweep_prints_cache_stats(self, cache_dir, capsys):
        code = main(["sweep", "--rates", "0.2", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep cache:" in out
        assert "misses" in out

    def test_no_cache_flag_disables_and_resets(self, cache_dir, capsys):
        code = main(["sweep", "--rates", "0.2", "--scale", "smoke", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep cache: disabled" in out
        # The override must not leak past the command.
        assert cache_mod.get_cache() is not None
        assert not any(cache_dir.rglob("*.pkl"))
