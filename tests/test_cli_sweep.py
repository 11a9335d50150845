"""CLI sweep and figure commands at smoke scale (slowish, end-to-end)."""

import pytest

from repro.cli import NOT_CHECKPOINTED, main
from repro.harness import cache as cache_mod


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
        """Figures 3-5 simulate in process: --resume would recompute every
        load while reporting nothing recomputed, so it is refused up front."""
        assert main(["figure", name, "--scale", "smoke", "--resume"]) == 2
        captured = capsys.readouterr()
        assert f"error: {name} is not checkpointed" in captured.err
        assert "probe histograms" in captured.err
        assert captured.out == ""
        assert list(cli_cache.iterdir()) == []  # nothing simulated or stored

    def test_figure_resume_without_cache_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        code = main(["figure", "fig8", "--scale", "smoke", "--resume"])
        assert code == 2
        assert "resume requires" in capsys.readouterr().err
