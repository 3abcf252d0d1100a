"""Theorem 2 constants and performance bounds.

Theorem 2 bounds COCA against the optimal T-step-lookahead policy:

(a) deficit:  (1/J) sum_t y(t)  <=  (alpha/J)(sum_t f(t) + Z)
              + (1/(R sqrt(T))) sum_r sqrt( C(T) + V_r (G_r^* - g_min) ),

(b) cost:     g_bar  <=  (1/R) sum_r G_r^*  +  (C(T)/R) sum_r 1/V_r,

with ``C(T) = B + D (T-1)`` built from the boundedness constants of the
proof (Appendix B):

* ``B  >= 0.5 * (y(t) - z(t))^2`` for all t,
* ``D  >= 0.5 * q_diff * max(y(t), r(t))`` with
  ``q_diff = max_t max(y(t), z(t))``.

The helpers here compute valid (conservative) constants from a model and a
renewable portfolio, and evaluate both bounds given the lookahead optima
``G_r^*``; the ``bench_theorem2_bounds`` benchmark checks the measured COCA
run sits inside them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy.renewables import RenewablePortfolio
from .config import DataCenterModel

__all__ = ["LyapunovConstants", "lyapunov_constants", "cost_bound", "deficit_bound"]


@dataclass(frozen=True)
class LyapunovConstants:
    """The boundedness constants of Theorem 2's proof.

    Attributes
    ----------
    y_max:
        Largest possible per-slot brown energy (MWh).
    z_max:
        Largest per-slot budget service ``alpha f(t) + z`` (MWh).
    B, D:
        Drift constants (see module docstring).
    """

    y_max: float
    z_max: float
    B: float
    D: float

    def C(self, T: int) -> float:
        """``C(T) = B + D (T - 1)``."""
        if T < 1:
            raise ValueError("frame length T must be >= 1")
        return self.B + self.D * (T - 1)


def lyapunov_constants(
    model: DataCenterModel,
    portfolio: RenewablePortfolio,
    *,
    alpha: float = 1.0,
    switching_headroom: float = 0.0,
) -> LyapunovConstants:
    """Conservative constants from the boundedness assumption.

    ``y_max`` is the facility's worst-case hourly draw (plus optional
    switching headroom in MWh); ``z_max`` uses the portfolio's peak off-site
    slot and the per-slot REC allowance.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y_max = model.max_facility_power + switching_headroom
    z = alpha * portfolio.recs / portfolio.horizon
    z_max = alpha * portfolio.offsite.peak + z
    q_diff = max(y_max, z_max)
    r_max = portfolio.onsite.peak
    B = 0.5 * max(y_max, z_max) ** 2
    D = 0.5 * q_diff * max(y_max, r_max)
    return LyapunovConstants(y_max=y_max, z_max=z_max, B=B, D=D)


def cost_bound(
    constants: LyapunovConstants,
    lookahead_optima: np.ndarray,
    v_values: np.ndarray,
    T: int,
) -> float:
    """Right-hand side of Theorem 2(b): the average-cost guarantee.

    Parameters
    ----------
    constants:
        Output of :func:`lyapunov_constants`.
    lookahead_optima:
        ``G_r^*`` per frame -- the optimal average cost of the T-step
        lookahead benchmark (see :func:`repro.baselines.lookahead_optima`).
    v_values:
        ``V_r`` per frame.
    T:
        Frame length in slots.
    """
    g = np.asarray(lookahead_optima, dtype=np.float64)
    v = np.asarray(v_values, dtype=np.float64)
    if g.shape != v.shape or g.ndim != 1 or g.size == 0:
        raise ValueError("lookahead optima and V values must be equal-length 1-D")
    if np.any(v <= 0):
        raise ValueError("V values must be positive")
    R = g.size
    return float(g.mean() + constants.C(T) / R * np.sum(1.0 / v))


def deficit_bound(
    constants: LyapunovConstants,
    portfolio: RenewablePortfolio,
    lookahead_optima: np.ndarray,
    v_values: np.ndarray,
    T: int,
    *,
    alpha: float = 1.0,
    g_min: float = 0.0,
) -> float:
    """Right-hand side of Theorem 2(a): allowed average hourly brown energy
    including the fudge factor.

    ``g_min`` is the minimum achievable hourly cost over the period (zero is
    always a valid, conservative choice since costs are non-negative).
    """
    g = np.asarray(lookahead_optima, dtype=np.float64)
    v = np.asarray(v_values, dtype=np.float64)
    if g.shape != v.shape or g.ndim != 1 or g.size == 0:
        raise ValueError("lookahead optima and V values must be equal-length 1-D")
    R = g.size
    J = portfolio.horizon
    budget_term = alpha / J * (portfolio.offsite.total + portfolio.recs)
    slack = np.sqrt(np.maximum(constants.C(T) + v * (g - g_min), 0.0))
    fudge = float(np.sum(slack) / (R * np.sqrt(T)))
    return budget_term + fudge
