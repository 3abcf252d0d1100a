"""GSD solve quality: how far from optimal did the chain land?

Theorem 1 guarantees convergence of GSD's Gibbs chain only *in the limit*;
at a finite iteration budget the question is how good each answer was.
On a homogeneous fleet :class:`~repro.solvers.gsd.GSDSolver` grades every
instrumented solve against the exact engine and writes the signed relative
gap into its ``gsd.solve`` event (``gap_rel``).  :class:`GSDGapMonitor`
judges the run by the median of those gaps.
"""

from __future__ import annotations

import numpy as np

from .alerts import AlertChannel
from .base import HealthMonitor

__all__ = ["GAP_TOLERANCE", "GSDGapMonitor"]

#: Largest median relative gap to the exact engine a run may show.
GAP_TOLERANCE = 0.03


class GSDGapMonitor(HealthMonitor):
    """The run's median graded GSD gap stays at or below
    :data:`GAP_TOLERANCE`.

    Only solves that carry ``gap_rel`` count: the shadow solve runs on
    homogeneous fleets only, so a heterogeneous-fleet run, an exact-engine
    run or a trace written before the gap existed is not judged.  A
    negative gap means the chain beat the engine's family (the first ``M``
    healthy groups on at one shared level, THEORY.md section 3) with a
    configuration outside it, such as mixed speeds.
    """

    name = "gsd-gap"
    description = f"median GSD gap to the exact engine <= {100 * GAP_TOLERANCE:g}%"
    kinds = ("gsd.solve",)

    def __init__(self) -> None:
        super().__init__()
        self.gaps: list[float] = []

    def observe(self, event: dict, alerts: AlertChannel) -> None:
        gap = event.get("gap_rel")
        if gap is None:
            return
        self.gaps.append(float(gap))
        self.checked += 1

    def finalize(self, alerts: AlertChannel) -> None:
        if not self.gaps:
            return
        median = float(np.median(self.gaps))
        if median > GAP_TOLERANCE:
            self.violations += 1
            alerts.raise_alert(
                "warning",
                self.name,
                f"median gap to the exact engine {100 * median:.1f}% over "
                f"{len(self.gaps)} solves exceeds {100 * GAP_TOLERANCE:g}% -- "
                "the chain stops far from the optimum",
                key=f"{self.name}:median",
            )

    def detail(self) -> str:
        if not self.gaps:
            return "no graded gsd.solve events (exact shadow runs on homogeneous fleets only)"
        p50, p90 = np.percentile(self.gaps, [50, 90])
        return (
            f"{len(self.gaps)} graded solves, gap median {100 * p50:.1f}% / "
            f"p90 {100 * p90:.1f}% (tolerance {100 * GAP_TOLERANCE:g}%)"
        )
