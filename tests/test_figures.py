"""The figure registry (``repro.analysis.figures``) and ``repro figure``."""

import dataclasses
import pathlib

import pytest

from repro.analysis import figures
from repro.analysis.figures import FIGURES, Claim, Setting
from repro.cli import EXIT_BAD_INPUT, EXIT_MONITOR_CRITICAL, main
from repro.scenarios import small_scenario

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.fixture(scope="module")
def settings():
    """One three-day setting per workload: each V* is calibrated once."""
    return {w: Setting(small_scenario(horizon=72, workload=w)) for w in ("fiu", "msr")}


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_figure_renders_on_a_small_scenario(name, settings):
    figure = FIGURES[name]
    table, claims = figure.render(settings[figure.workload])
    assert table.strip()
    assert claims
    for claim in claims:
        assert claim.label and isinstance(claim.holds, bool)


def test_every_committed_figure_table_has_an_entry():
    committed = {path.stem for path in RESULTS.glob("*.txt")} - {"geo_extension"}
    assert committed == set(FIGURES)


def test_fig1a_reproduces_the_committed_table(tmp_path, capsys):
    assert main(["figure", "fig1a_fiu_trace", "--out", str(tmp_path)]) == 0
    written = (tmp_path / "fig1a_fiu_trace.txt").read_bytes()
    assert written == (RESULTS / "fig1a_fiu_trace.txt").read_bytes()
    out = capsys.readouterr().out
    assert "PASS fig1a_fiu_trace: the late-July surge carries the annual peak" in out
    assert "1/1 claims hold" in out


def test_a_false_claim_exits_2_and_is_named(monkeypatch, capsys):
    figure = FIGURES["fig1a_fiu_trace"]

    def refuted(setting):
        table, claims = figure.render(setting)
        return table, [Claim(claim.label, False) for claim in claims]

    monkeypatch.setitem(
        FIGURES, figure.name, dataclasses.replace(figure, render=refuted)
    )
    assert main(["figure", "fig1a_fiu_trace"]) == EXIT_MONITOR_CRITICAL
    out = capsys.readouterr().out
    assert "FAIL fig1a_fiu_trace: the late-July surge carries the annual peak" in out
    assert "0/1 claims hold" in out


def test_unknown_figure_is_one_line(capsys):
    assert main(["figure", "fig9_nothing"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unknown figure 'fig9_nothing'" in err[0]


def test_names_share_one_calibration(short_paper_years, monkeypatch, capsys):
    calls = []
    real = figures.find_neutral_v
    monkeypatch.setattr(
        figures, "find_neutral_v", lambda sc: calls.append(sc) or real(sc)
    )
    assert main(["figure", "quickstart", "fig3_coca_vs_perfecthp"]) == 0
    assert len(calls) == 1
    assert "carbon-unaware vs COCA" in capsys.readouterr().out
