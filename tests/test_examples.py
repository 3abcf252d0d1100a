"""Smoke tests: every shipped example runs end to end and prints its claim.

The run is parametrised over ``sorted(examples/*.py)``, and every example
needs an entry in ``CHECKS``, so an example cannot be added without a
smoke run and an output check.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
NAMES = sorted(path.stem for path in EXAMPLES.glob("*.py"))


def _row(out: str, label: str) -> list[str]:
    """Cells after ``label`` on the one table row that starts with it."""
    rows = []
    for line in out.splitlines():
        rest = line.strip()[len(label):].split()
        if line.strip().startswith(label + " ") and rest and rest[0][0] in "-.0123456789":
            rows.append(rest)
    assert len(rows) == 1, (label, rows)
    return rows[0]


def _row_value(out: str, label: str) -> float:
    """Last number on the table row that starts with ``label``."""
    return float(_row(out, label)[-1])


def _check_distributed_gsd(out: str) -> None:
    assert "Distributed execution" in out
    for kind in ("configure", "explore", "price", "commit", "decide", "set_level"):
        assert f"    {kind:<12}:" in out
    assert "pricings lost" in out and "dropped" in out


def _check_heterogeneous_fleet(out: str) -> None:
    assert "Chosen speed level per group vs (load, price):" in out
    cd = _row_value(out, "coordinate descent")
    gsd = _row_value(out, "GSD (adaptive delta)")
    assert gsd == pytest.approx(cd, rel=0.02)
    assert "carbon neutral: True" in out


def _check_quickstart(out: str) -> None:
    assert "neutral V* = " in out
    assert _row(out, "COCA")[-1] == "yes"
    assert _row(out, "carbon-unaware")[-1] == "no"
    assert "COCA meets the 92% budget" in out


def _check_rec_trading(out: str) -> None:
    prepurchase = _row_value(out, "prepurchase at average price")
    _row_value(out, "buy each slot at spot")
    dynamic = _row_value(out, "threshold trader (online)")
    assert dynamic <= prepurchase
    assert "below the prepurchase bill" in out


def _check_theorem2_bounds(out: str) -> None:
    assert "cost bound holds at every V    : True" in out
    assert "deficit bound holds at every V : True" in out


CHECKS = {
    "distributed_gsd": _check_distributed_gsd,
    "heterogeneous_fleet": _check_heterogeneous_fleet,
    "quickstart": _check_quickstart,
    "rec_trading": _check_rec_trading,
    "theorem2_bounds": _check_theorem2_bounds,
}


def test_every_example_has_an_output_check():
    assert sorted(CHECKS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_example(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    CHECKS[name](capsys.readouterr().out)
