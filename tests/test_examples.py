"""Smoke tests: the shipped examples run end to end."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_distributed_gsd_example(capsys):
    runpy.run_path(str(EXAMPLES / "distributed_gsd.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Distributed execution" in out
    for kind in ("configure", "explore", "price", "commit", "decide", "set_level"):
        assert f"    {kind:<12}:" in out
    assert "pricings lost" in out and "dropped" in out
