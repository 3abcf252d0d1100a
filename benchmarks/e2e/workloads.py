"""The benchmark's workloads: each is one ``repro`` CLI invocation.

Every workload is a closed loop with one slot in flight, driven from a
single process with no threads and no status port.  The benchmark seed
becomes ``--seed`` and ``--fault-seed``, so one seed fixes the traces, the
fault schedule and the GSD chain.  The lossy feed's delivery schedule
comes from ``FEED_SEED`` instead.  Why each workload is in the set is
written beside its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "REFERENCE_SEED", "FEED_SEED", "REPEATS", "argv_for"]

#: The seed whose run gives ``cost_usd`` and ``budget_use``, whatever the
#: run's own seed: read on one fixed input, both are deterministic, so a
#: tight bound can gate them.
REFERENCE_SEED = 2012

#: ``--source-seed`` of the serve workload.  On some delivery seeds the
#: feed loses the first frame; with no earlier frame to hold, the program
#: then predicts zero arrivals and drops that slot's load, a failed
#: operation.  This seed's first frame arrives whole, while later frames
#: are still dropped, late, swapped or short of fields.
FEED_SEED = 2012

#: Children per workload on the run's seed; a timed run adds one on
#: ``REFERENCE_SEED`` and pools the slots of all of them.  Fixed, so that
#: every commit is measured on as many samples; at least two, so that a
#: run checks that a seed reproduces its costs bit for bit.
REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``full`` and ``smoke`` are the arguments after ``command`` for the
    measured run and for ``--smoke`` (small fleet, at most 48 slots).
    ``quality_rtol`` is how far ``cost_usd`` and ``budget_use`` may move
    between two commits before ``compare.py`` calls it a change: exact
    engines are deterministic, while GSD decisions can flip under the
    inner solve's 1e-9 objective contract.
    """

    name: str
    command: str
    full: tuple[str, ...]
    smoke: tuple[str, ...]
    quality_rtol: float


_SMALL = ("--scale", "small", "--horizon", "48")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("year-auto", "run", ("--scale", "paper"), _SMALL, 1e-6),
        # A week, not a day: on about one seed in 28 a paper-scale day has
        # no wind at all, and the scenario builder refuses to scale the
        # all-zero trace.  Twenty chain iterations per solve instead of
        # the CLI's 200 keep a child near 7 s; the water-fill still takes
        # over 90% of each slot.
        Workload(
            "gsd-week", "run",
            ("--scale", "paper", "--horizon", "168", "--solver", "gsd", "--iterations", "20"),
            (*_SMALL, "--solver", "gsd", "--iterations", "20"),
            1e-2,
        ),
        Workload(
            "serve-2week", "serve",
            ("--scale", "paper", "--horizon", "336", "--dashboard-every", "168"),
            (*_SMALL, "--dashboard-every", "24"),
            1e-6,
        ),
        Workload(
            "chaos-quarter", "run",
            ("--scale", "paper", "--horizon", "2190", "--chaos"),
            (*_SMALL, "--chaos"),
            1e-6,
        ),
    )
}


def argv_for(name: str, seed: int, tmp: str, *, smoke: bool = False) -> list[str]:
    """The CLI argv of workload ``name`` for ``seed``; ``tmp`` is a fresh
    directory the command may write into."""
    workload = WORKLOADS[name]
    argv = [workload.command, *(workload.smoke if smoke else workload.full)]
    argv += ["--seed", str(seed)]
    if workload.command == "serve":
        return argv + [
            "--source", "synthetic", "--source-seed", str(FEED_SEED),
            "--checkpoint-dir", os.path.join(tmp, "ckpt"),
            "--dashboard-out", os.path.join(tmp, "d.html"),
        ]
    return argv + ["--fault-seed", str(seed)]
