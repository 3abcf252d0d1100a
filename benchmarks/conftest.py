"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's figures as a text table:
the rows are printed (visible with ``pytest benchmarks/ -s``), written to
``benchmarks/results/<name>.txt``, and the headline numbers are attached to
pytest-benchmark's ``extra_info`` so they land in the benchmark JSON.

The scenarios here are the *paper-scale* configuration -- 216 K servers in
200 groups, one full year (8760 hourly slots) -- which the vectorized
engines run in seconds per policy-year.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import find_neutral_v
from repro.scenarios import paper_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def fiu_scenario():
    """The paper's default setup: FIU workload, one year, 92% budget."""
    return paper_scenario()


@pytest.fixture(scope="session")
def msr_scenario():
    """The Fig. 5(b) variant: MSR workload."""
    return paper_scenario(workload="msr")


@pytest.fixture(scope="session")
def fiu_v_star(fiu_scenario) -> float:
    """Cheapest neutral V for the FIU scenario (shared across benches)."""
    return find_neutral_v(fiu_scenario)


@pytest.fixture(scope="session")
def publish(results_dir: pathlib.Path):
    """Print a figure's table and persist it under benchmarks/results/."""

    def _publish(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _publish
