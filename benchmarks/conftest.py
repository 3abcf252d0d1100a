"""Shared fixtures for the pytest-benchmark benches.

``bench_throughput.py`` times the engine room on the *paper-scale* FIU
year (216 K servers in 200 groups, 8760 hourly slots);
``bench_geo_extension.py`` prints its table and persists it under
``benchmarks/results/``.  The paper's figures are not benches: ``repro
figure NAME`` regenerates them (``src/repro/analysis/figures.py``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.scenarios import paper_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def fiu_scenario():
    """The paper's default setup: FIU workload, one year, 92% budget."""
    return paper_scenario()


@pytest.fixture(scope="session")
def publish():
    """Print a table and persist it under benchmarks/results/."""

    def _publish(name: str, text: str) -> None:
        print(f"\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _publish
