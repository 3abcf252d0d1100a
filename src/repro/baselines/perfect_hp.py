"""PerfectHP: the prediction-based comparison heuristic (section 5.2.2).

The best known prior approach to energy capping budgets energy using
short-term predictions [17, 31].  The paper's comparison variant, *perfect
hourly prediction* (PerfectHP), works as follows:

* the operator has perfect 48-hour-ahead predictions of hourly workloads
  (predictions beyond 48 h "will typically exhibit large errors");
* the carbon budget -- RECs plus off-site renewables, but *not* on-site
  renewables -- is allocated to hours **in proportion to the predicted
  hourly workloads** within each 48-hour planning window (the annual budget
  is spread evenly across windows, since the far future is unknown);
* each hour, cost is minimized subject to the hour's allocated carbon cap;
  when no feasible solution exists for an hour (e.g. a workload burst needs
  more power than the cap allows), the operator "will minimize the cost
  without considering the hourly carbon budget".

The per-hour capped subproblem ``min g s.t. y <= cap`` is solved by
bisecting a per-hour multiplier ``mu_t`` on brown energy (the exact
Lagrangian of the cap); all binding hours bisect together through one
:func:`~repro.baselines.dual.dual_sweep` per step, and the multipliers
replay through :class:`~repro.baselines.dual.DualReplay`.
"""

from __future__ import annotations

import numpy as np

from ..core.config import DataCenterModel
from .dual import DualReplay, dual_sweep

__all__ = ["PerfectHP"]

_WINDOW = 48
_MU_MAX = 1e9
_BISECT_ITERS = 45


def allocate_caps(
    predicted: np.ndarray, budget: float, window: int = _WINDOW
) -> np.ndarray:
    """Per-hour carbon caps: the annual ``budget`` is spread evenly over
    ``window``-hour planning windows, then within each window allocated in
    proportion to the predicted workloads (uniformly when a window is
    idle)."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    n = predicted.size
    n_windows = int(np.ceil(n / window))
    per_window = budget * np.diff(
        np.minimum(np.arange(n_windows + 1) * window, n)
    ) / n  # even split, partial last window pro-rated
    caps = np.empty(n)
    for wdx in range(n_windows):
        lo, hi = wdx * window, min((wdx + 1) * window, n)
        w = predicted[lo:hi]
        total = w.sum()
        if total > 0:
            caps[lo:hi] = per_window[wdx] * w / total
        else:
            caps[lo:hi] = per_window[wdx] / (hi - lo)
    return caps


class PerfectHP(DualReplay):
    """The prediction-based heuristic baseline.

    Parameters
    ----------
    model:
        Facility parameters.
    alpha:
        Capping aggressiveness; the allocated budget is
        ``alpha * (sum f + Z)``.
    """

    def __init__(self, model: DataCenterModel, *, alpha: float = 1.0):
        super().__init__(model)
        self.alpha = alpha
        self.caps: np.ndarray | None = None
        self.fallback: np.ndarray | None = None

    def start(self, environment) -> None:
        predicted = environment.predicted_workload.values
        onsite = environment.portfolio.onsite.values
        price = environment.price.values
        pue = None if environment.pue is None else environment.pue.values
        caps = self.caps = allocate_caps(
            predicted, self.alpha * environment.portfolio.carbon_budget
        )

        def over_cap(hours, q) -> np.ndarray:
            brown, _ = dual_sweep(
                self.model,
                predicted[hours],
                onsite[hours],
                price[hours],
                q=q,
                pue=None if pue is None else pue[hours],
            )
            return brown > caps[hours]

        binding = over_cap(slice(None), 0.0)
        # An hour even the minimum-power configuration overshoots ignores
        # its cap.
        fallback = binding.copy()
        fallback[binding] = over_cap(binding, _MU_MAX)
        active = np.flatnonzero(binding & ~fallback)
        lo, hi = np.zeros(active.size), np.full(active.size, _MU_MAX)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            too_high = over_cap(active, mid)
            lo = np.where(too_high, mid, lo)
            hi = np.where(too_high, hi, mid)
        self.mu = np.zeros(predicted.size)
        self.mu[active] = hi
        self.fallback = fallback

    def name(self) -> str:
        return "PerfectHP"
