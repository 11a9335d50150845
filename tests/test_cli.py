"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro import cli
from repro.cli import FIGURES, build_parser, main
from repro.harness import experiments


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.rate == 1.0
        assert args.policy == "history"

    def test_figure_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_every_paper_figure_has_a_cli_name(self):
        for name in (
            "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16a",
            "fig16b", "fig17a", "fig17b", "headline",
        ):
            assert name in FIGURES

    def test_cli_builds_through_the_experiment_registry(self):
        assert cli.FIGURES is experiments.FIGURES
        assert cli.SCALE_INDEPENDENT is experiments.SCALE_INDEPENDENT
        assert cli.NOT_CHECKPOINTED is experiments.NOT_CHECKPOINTED

    def test_sweep_and_pareto_declare_the_same_campaign_flags(self):
        dests = ("processes", "backend", "workers", "dist_host", "dist_port",
                 "no_cache", "resume", "retries", "timeout", "keep_going")
        every_flag = ["--processes", "3", "--backend", "distributed",
                      "--workers", "2", "--dist-host", "0.0.0.0",
                      "--dist-port", "9000", "--no-cache", "--resume",
                      "--retries", "4", "--timeout", "1.5", "--keep-going"]
        parser = build_parser()
        for argv in ([], every_flag):
            sweep = vars(parser.parse_args(["sweep", *argv]))
            pareto = vars(parser.parse_args(["pareto", *argv]))
            assert {d: sweep[d] for d in dests} == {d: pareto[d] for d in dests}
        assert sweep["processes"] == 3 and sweep["timeout"] == 1.5
        assert sweep["keep_going"] and sweep["resume"] and sweep["no_cache"]

        commands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices

        def declared(command):
            return {
                action.dest: (action.option_strings, action.default, action.type,
                              action.metavar, action.help)
                for action in commands[command]._actions if action.dest in dests
            }

        assert sorted(declared("sweep")) == sorted(dests)
        assert declared("sweep") == declared("pareto")


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "125.0" in out          # VF table
        assert "TOTAL" in out          # hardware estimate
        assert "Table 2" in out

    def test_run_smoke(self, capsys):
        assert main(["run", "--rate", "0.2", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "accepted packets/cycle" in out
        assert "savings factor" in out

    def test_figure_with_json(self, capsys, tmp_path):
        path = tmp_path / "fig7.json"
        assert main(["figure", "fig7", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["figure"] == "Figure 7"
        assert any(row[0] == "links" for row in data["rows"])

    def test_bad_scale_reports_error(self, capsys):
        assert main(["run", "--scale", "galactic"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFig7Scale:
    def test_scale_flag_accepted_and_noted(self, capsys):
        # fig7 used to silently swallow --scale through a discarding
        # lambda; now the figure function takes the scale and the CLI
        # tells the user it has no effect.
        assert main(["figure", "fig7", "--scale", "paper"]) == 0
        captured = capsys.readouterr()
        assert "Figure 7" in captured.out
        assert "no effect" in captured.err

    def test_no_scale_no_note(self, capsys):
        assert main(["figure", "fig7"]) == 0
        assert "no effect" not in capsys.readouterr().err


class TestRunTrace:
    def test_trace_written(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main([
            "run", "--rate", "0.3", "--scale", "smoke", "--trace", str(path),
        ]) == 0
        assert "trace:" in capsys.readouterr().out
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert any(r["event"] == "mark" for r in records)
        assert any(
            r.get("kind") == "ramp_start" for r in records
        )  # smoke runs DVS by default


class TestSweepProcesses:
    def test_parser_default_is_serial(self):
        args = build_parser().parse_args(["sweep"])
        assert args.processes == 1

    def test_sweep_with_two_processes(self, capsys):
        assert main([
            "sweep", "--rates", "0.3,0.6", "--scale", "smoke",
            "--processes", "2",
        ]) == 0
        assert "DVS (history) vs non-DVS sweep" in capsys.readouterr().out
