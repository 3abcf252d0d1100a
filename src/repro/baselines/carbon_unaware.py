"""Carbon-unaware baseline: pure per-slot cost minimization.

This is COCA's ``V -> infinity`` limit (section 5.2.1): every slot minimizes
``g = e + beta d`` with no regard for the neutrality constraint.  The paper
uses its annual electricity consumption (1.55e5 MWh under their settings) to
*define* the experiments' carbon budgets -- e.g. the default budget is 92%
of the unaware usage -- so this controller doubles as the calibration tool
(:func:`calibrate_budget`).
"""

from __future__ import annotations

from ..core.config import DataCenterModel
from ..solvers.batch import supports_batch
from .dual import DualReplay, dual_sweep

__all__ = ["CarbonUnaware", "calibrate_budget"]


class CarbonUnaware(DualReplay):
    """Minimize the instantaneous cost ``g(t)`` every slot: the replay of
    ``mu = 0``, which needs no :meth:`start`."""

    def __init__(self, model: DataCenterModel):
        super().__init__(model, mu=0.0)

    def name(self) -> str:
        return "carbon-unaware"


def calibrate_budget(model: DataCenterModel, environment) -> float:
    """Total brown energy (MWh) the carbon-unaware policy would draw over
    the period -- the normalization constant of the paper's budget sweeps
    (their 1.55e5 MWh).  Uses the vectorized sweep when available."""
    if supports_batch(model):
        brown, _ = dual_sweep(
            model,
            environment.actual_workload.values,
            environment.portfolio.onsite.values,
            environment.price.values,
            q=0.0,
            pue=None if environment.pue is None else environment.pue.values,
        )
        return float(brown.sum())
    from ..sim.engine import simulate

    record = simulate(model, CarbonUnaware(model), environment)
    return record.total_brown
