"""CLI sweep and figure commands at smoke scale (slowish, end-to-end)."""

import pytest

from repro.cli import NOT_CHECKPOINTED, main
from repro.harness import cache as cache_mod
from repro.harness.backends import SerialBackend
from repro.harness.resilience import FailureReport, RetryPolicy
from repro.harness.sweep import compare_dvs

from .conftest import small_config


@pytest.fixture
def cli_cache(tmp_path, monkeypatch):
    """A fresh on-disk cache for CLI resume tests."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    cache_mod.reset_cache()
    yield tmp_path
    cache_mod.reset_cache()


class TestSweepCommand:
    def test_sweep_smoke(self, capsys):
        code = main(["sweep", "--rates", "0.2,0.6", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lat_none" in out and "lat_history" in out
        assert "power savings" in out

    def test_sweep_bad_rates(self, capsys):
        assert main(["sweep", "--rates", "fast", "--scale", "smoke"]) == 2
        assert "bad --rates" in capsys.readouterr().err

    def test_sweep_empty_rates(self, capsys):
        assert main(["sweep", "--rates", "", "--scale", "smoke"]) == 2
        assert "at least one rate" in capsys.readouterr().err

    def test_repeated_rate_simulates_each_config_once(self, capsys, monkeypatch):
        """--rates 0.3,0.3 is two distinct configs (no DVS and history),
        each simulated once and printed at both of its rows."""
        from repro.harness import backends

        real = backends.run_simulation
        calls = []

        def counting(config):
            calls.append(config.fingerprint())
            return real(config)

        monkeypatch.setattr("repro.harness.backends.run_simulation", counting)
        assert main(["sweep", "--rates", "0.3,0.3", "--scale", "smoke", "--no-cache"]) == 0
        twice = capsys.readouterr().out
        assert len(calls) == len(set(calls)) == 2
        assert main(["sweep", "--rates", "0.3", "--scale", "smoke", "--no-cache"]) == 0
        once = capsys.readouterr().out
        (row,) = [line for line in once.splitlines() if line.startswith("0.300")]
        assert [line for line in twice.splitlines() if line.startswith("0.300")] == [row, row]


class TestComparisonGaps:
    """A point lost under --keep-going leaves a gap in both sides of the
    DVS comparison, so the pairs and the summary stay aligned."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        from repro.harness import backends

        real = backends.run_simulation

        def runner(config):
            if config.dvs.policy == "history" and config.workload.injection_rate == 0.6:
                raise RuntimeError("poisoned history point")
            return real(config)

        monkeypatch.setattr("repro.harness.backends.run_simulation", runner)

    def test_compare_dvs_drops_the_rate_from_both_sweeps(self, poisoned):
        base = small_config(rate=0.2, warmup=200, measure=600)
        backend = SerialBackend(retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0))
        report = FailureReport()
        comparison = compare_dvs(
            base, (0.2, 0.6, 1.0), backend=backend, failures=report
        )
        assert len(report.failures) == 1
        assert [p.target_rate for p in comparison.baseline] == [0.2, 1.0]
        assert [p.target_rate for p in comparison.dvs] == [0.2, 1.0]
        survivors = compare_dvs(base, (0.2, 1.0), backend=backend)
        assert comparison == survivors
        assert comparison.summary() == survivors.summary()

    def test_keep_going_sweep_prints_the_other_rates(self, poisoned, capsys):
        code = main(
            ["sweep", "--rates", "0.2,0.6,1.0", "--scale", "smoke",
             "--keep-going", "--retries", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines() if line.startswith(("0.", "1."))]
        assert rows == ["0.200", "1.000"]
        assert "power savings" in out
        assert "1 point(s) failed" in out


class TestResilienceFlags:
    def test_resume_without_cache_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        code = main(["sweep", "--rates", "0.2", "--scale", "smoke", "--resume"])
        assert code == 2
        assert "resume requires" in capsys.readouterr().err

    def test_no_cache_conflicts_with_resume(self, cli_cache, capsys):
        code = main(
            ["sweep", "--rates", "0.2", "--scale", "smoke",
             "--no-cache", "--resume"]
        )
        assert code == 2
        assert "resume requires" in capsys.readouterr().err

    def test_resume_round_trip_replays_checkpoints(self, cli_cache, capsys):
        """Satellite acceptance: --resume on a completed campaign replays
        every point from the cache and recomputes nothing."""
        assert main(["sweep", "--rates", "0.2,0.4", "--scale", "smoke"]) == 0
        first = capsys.readouterr().out
        code = main(
            ["sweep", "--rates", "0.2,0.4", "--scale", "smoke", "--resume"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # 2 policies x 2 rates, all checkpointed by the first run.
        assert "resume: 4/4 points already checkpointed" in captured.err
        assert "recomputing 0" in captured.err
        # Bit-identical table either way (only the cache-stats line may
        # differ: the resumed run reports hits instead of misses).
        def table(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("sweep cache:")
            ]

        assert table(captured.out) == table(first)

    def test_retry_and_timeout_flags_accepted(self, capsys):
        code = main(
            ["sweep", "--rates", "0.2", "--scale", "smoke", "--no-cache",
             "--retries", "1", "--timeout", "300", "--keep-going"]
        )
        assert code == 0
        assert "lat_none" in capsys.readouterr().out

    def test_invalid_retries_flag_is_a_clean_error(self, capsys):
        code = main(
            ["sweep", "--rates", "0.2", "--scale", "smoke", "--retries", "0"]
        )
        assert code == 2
        assert "max_attempts" in capsys.readouterr().err


class TestFigureCommand:
    def test_fig8_smoke(self, capsys):
        assert main(["figure", "fig8", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out

    def test_ablation_weight_smoke(self, capsys):
        assert main(["figure", "ablation-weight", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "EWMA" in out or "Ablation" in out

    def test_figure_resume_reports_replayed_points(self, cli_cache, capsys):
        # ablation-window runs its three history windows through the
        # backend, so the first run checkpoints every point.
        assert main(["figure", "ablation-window", "--scale", "smoke"]) == 0
        first = capsys.readouterr().out
        code = main(["figure", "ablation-window", "--scale", "smoke", "--resume"])
        assert code == 0
        captured = capsys.readouterr()
        assert (
            "resume: 3 point(s) replayed from checkpoints, 0 recomputed"
            in captured.err
        )
        assert captured.out == first

    @pytest.mark.parametrize("name", sorted(NOT_CHECKPOINTED))
    def test_figure_resume_refused_when_nothing_checkpoints(
        self, name, cli_cache, capsys
    ):
        """Figures 3-5 and core-energy simulate in process: --resume would
        recompute every point while reporting nothing recomputed, so it is
        refused up front, with what the cached result lacks."""
        assert main(["figure", name, "--scale", "smoke", "--resume"]) == 2
        captured = capsys.readouterr()
        assert f"error: {name} is not checkpointed" in captured.err
        reason = "router activity counters" if name == "core-energy" else "probe histograms"
        assert f"its {reason} are not part of a cached result" in captured.err
        assert captured.out == ""
        assert list(cli_cache.iterdir()) == []  # nothing simulated or stored

    def test_figure_resume_without_cache_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        code = main(["figure", "fig8", "--scale", "smoke", "--resume"])
        assert code == 2
        assert "resume requires" in capsys.readouterr().err
