"""Tests for the CLI report command and remaining CLI surface."""

import pathlib

import pytest

from repro.cli import main


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        assert (
            main(
                [
                    "report",
                    "--horizon",
                    "72",
                    "--v",
                    "0.02",
                    "--no-opt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# COCA scenario report" in out
        assert "## Controllers" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--horizon",
                    "72",
                    "--v",
                    "0.02",
                    "--no-opt",
                    "-o",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()
        text = target.read_text()
        assert "carbon-unaware" in text
        out = capsys.readouterr().out
        assert "written to" in out

    def test_budget_fraction_flag(self, capsys):
        assert (
            main(
                [
                    "quickstart",
                    "--horizon",
                    "72",
                    "--v",
                    "0.05",
                    "--budget-fraction",
                    "0.95",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "95% of unaware" in out

    def test_seed_changes_scenario(self, capsys):
        main(["traces", "fiu", "--horizon", "240", "--seed", "1"])
        a = capsys.readouterr().out
        main(["traces", "fiu", "--horizon", "240", "--seed", "2"])
        b = capsys.readouterr().out
        assert a != b
