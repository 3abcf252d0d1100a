"""The offline dual baselines: OPT (problem P1) and the T-step lookahead (P2).

OPT sees the whole period's traces and minimizes average cost subject to
the carbon-neutrality constraint.  P2 (section 3.2) splits the period into
``R`` frames of ``T`` slots; each frame has its own neutrality constraint
(15), whose budget is the frame's off-site supply plus ``Z / R``.  OPT is
P2 with one frame of ``J`` slots.  A frame couples its slots only through
that one constraint, so its Lagrangian decomposes per slot:

    min_t  g(t) + mu y(t),

exactly a P3 instance with ``q = mu`` and ``V = 1``.  The frame's brown
energy under the per-slot minimizers does not rise with ``mu``, so a
bracketing root-finder (:func:`bracket_root`, Illinois with a bisection
fallback) finds the smallest multiplier whose sweep meets the budget.  It
stops once the frame's brown/budget is in ``[1 - 1e-6, 1]`` (``_MU_TOL``)
or the multiplier's bracket is narrower than ``1e-6`` times the multiplier
(``_MU_WIDTH``); the returned multiplier always meets the budget.  The
discrete speed sets make the per-slot problems nonconvex, so the dual
policy is *feasible* and near-optimal, and :attr:`FrameOptimum.lower_bound`
carries the certified bound ``(sum_t min[g + mu y] - mu budget) / T`` on
the frame optimum ``G_r^*`` -- the quantity Theorem 2 compares COCA
against.

Every offline baseline is then one construction: solve P3 at ``V = 1``
with ``q = mu(t)`` and replay ``mu(t)`` through :class:`DualReplay`.  OPT
replays one multiplier, PerfectHP one per hour, the carbon-unaware policy
zero, and P2 one per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.coca import default_solver
from ..core.config import DataCenterModel
from ..core.controller import Controller, SlotObservation
from ..solvers.base import SlotSolution
from ..solvers.batch import batch_enumerate, supports_batch

__all__ = [
    "bracket_root",
    "dual_sweep",
    "FrameOptimum",
    "lookahead_optima",
    "DualReplay",
    "OfflineOptimal",
]

_MU_CEILING = 1e12
#: The multiplier search stops once brown/budget is in ``[1 - _MU_TOL, 1]``
#: or the bracket is narrower than ``_MU_WIDTH`` times the multiplier.
_MU_TOL = 1e-6
_MU_WIDTH = 1e-6


def bracket_root(
    use: Callable[[float], float],
    feasible: tuple[float, float],
    infeasible: tuple[float, float],
    *,
    tol: float,
    width: float,
    log: bool = False,
) -> tuple[float, float]:
    """Find where a monotone ``use(x)`` crosses 1, from the feasible side.

    ``use(x)`` is a budget use ratio (brown energy over budget), and ``x``
    is feasible when ``use(x) <= 1``.  The ends ``(x, use(x))`` bracket the
    crossing, one feasible and one not, in either order on the line.  The
    search is Illinois: regula falsi on ``use - 1``, in ``ln x`` when
    ``log``, halving the value of an end kept twice running.  A step bisects
    instead when the interpolation is not strictly inside the bracket, or
    when the previous step landed on its end's flat (the same use exactly:
    a step function's tread).

    It stops, and returns the feasible end ``(x, use(x))``, once that end's
    use is in ``[1 - tol, 1]`` or the bracket is no wider than ``width``
    times the feasible end's ``|x|`` (so ``width > 0`` and a nonzero
    feasible end).  On the discrete engines' staircases the use may have no
    value in ``[1 - tol, 1]``, so the width stop is required.
    """
    coord = math.log if log else float
    (a, ua), (b, ub) = feasible, infeasible
    if not ua <= 1.0 < ub:
        raise ValueError(f"not a bracket: use {ua} at {a} and {ub} at {b}")
    fa, fb = ua - 1.0, ub - 1.0  # Illinois's working values
    last_feasible, interpolate = None, True
    while ua < 1.0 - tol and abs(a - b) > width * abs(a):
        ca, cb = coord(a), coord(b)
        c = cb - fb * (cb - ca) / (fb - fa) if interpolate else math.nan
        if not min(ca, cb) < c < max(ca, cb):
            c = 0.5 * (ca + cb)
        x = math.exp(c) if log else c
        u = use(x)
        if u <= 1.0:
            interpolate = u != ua
            a, ua, fa = x, u, u - 1.0
            if last_feasible is True:
                fb *= 0.5
            last_feasible = True
        else:
            interpolate = u != ub
            b, ub, fb = x, u, u - 1.0
            if last_feasible is False:
                fa *= 0.5
            last_feasible = False
    return a, ua


def dual_sweep(
    model: DataCenterModel,
    arrival: np.ndarray,
    onsite: np.ndarray,
    price: np.ndarray,
    *,
    q: np.ndarray | float,
    pue: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot brown energy (MWh) and cost ($) of the P3 minimizers at
    ``V = 1`` and deficit weight ``q`` (a scalar or one value per slot),
    under the per-slot PUE ``pue`` (``None``: the model's constant).

    The slot problem is the replay's without the switching charge and
    without ``network_delay`` (ROADMAP item 17).  The switching charge ties
    each slot to the previous slot's on-set, which the replay only learns as
    it runs, so a sweep that priced it would be sequential and could not use
    :func:`~repro.solvers.batch.batch_enumerate`; the network delay is
    dropped with it so both engines solve the same problem.  Both terms are
    nonnegative, so a bound on the sweep's problem still bounds the
    replayed one from below; the multiplier, though, is fitted to the
    sweep's problem.

    Homogeneous fleets with a linear tariff sweep every slot at once;
    other fleets solve each slot with the default engine.
    """
    if supports_batch(model):
        res = batch_enumerate(model, arrival, onsite, price, q=q, V=1.0, pue=pue)
        return res.brown_energy, res.cost
    solver = default_solver(model)
    q = np.broadcast_to(q, np.shape(arrival))
    brown, cost = np.empty(len(arrival)), np.empty(len(arrival))
    for t in range(len(arrival)):
        problem = model.slot_problem(
            arrival_rate=arrival[t],
            onsite=onsite[t],
            price=price[t],
            q=float(q[t]),
            V=1.0,
            pue_override=None if pue is None else pue[t],
        )
        evaluation = solver.solve(problem).evaluation
        brown[t], cost[t] = evaluation.brown_energy, evaluation.cost
    return brown, cost


@dataclass(frozen=True)
class FrameOptimum:
    """Solution of one frame of P2 (of P1 when the frame is the period).

    Attributes
    ----------
    frame:
        Frame index ``r``.
    mu:
        Frame multiplier on brown energy.
    average_cost:
        ``G_r`` of the dual policy -- an upper estimate of ``G_r^*``.
    lower_bound:
        Certified dual lower bound on ``G_r^*``, capped at
        ``average_cost`` (a frame that cannot meet its budget has no
        finite optimum).
    total_brown:
        Frame brown energy (MWh) under the policy.
    budget:
        Frame budget (MWh).
    """

    frame: int
    mu: float
    average_cost: float
    lower_bound: float
    total_brown: float
    budget: float

    @property
    def feasible(self) -> bool:
        """Whether the frame policy meets constraint (15)."""
        return self.total_brown <= self.budget * (1.0 + 1e-9)


def _frame_optimum(
    model: DataCenterModel, environment, budget: float, r: int, slots: slice
) -> FrameOptimum:
    """Search the multiplier of frame ``r``, the slots ``slots``, for the
    smallest ``mu >= 0`` whose sweep's brown energy fits ``budget`` MWh:
    from ``max(price, 1)`` the bracket grows fourfold until it holds a
    feasible end, and :func:`bracket_root` narrows it to the module's stop
    rule.  With every slot in one frame this is problem P1.

    A frame that even an enormous multiplier cannot fit into its budget is
    reported, not raised: the paper's per-frame feasibility assumption
    fails for it, and ``total_brown > budget`` shows it.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    arrival = environment.actual_workload.values[slots]
    onsite = environment.portfolio.onsite.values[slots]
    price = environment.price.values[slots]
    pue = None if environment.pue is None else environment.pue.values[slots]
    T = arrival.size

    swept: dict[float, tuple[float, float]] = {}

    def use(mu: float) -> float:
        brown, cost = dual_sweep(model, arrival, onsite, price, q=mu, pue=pue)
        brown, cost = swept[mu] = float(brown.sum()), float(cost.sum())
        return brown / budget if budget > 0 else (math.inf if brown > 0 else 0.0)

    def optimum(mu: float, swept_at: float) -> FrameOptimum:
        """The frame at multiplier ``mu``, with the sweep made at ``swept_at``."""
        brown, cost = swept[swept_at]
        lower = (cost + mu * brown - mu * budget) / T
        return FrameOptimum(r, mu, cost / T, min(lower, cost / T), brown, budget)

    lo, u_lo = 0.0, use(0.0)
    if u_lo <= 1.0:
        return optimum(0.0, 0.0)
    hi = max(float(price.max()), 1.0)
    u_hi = use(hi)
    while u_hi > 1.0:
        if hi * 4.0 > _MU_CEILING:
            return optimum(hi * 4.0, hi)
        lo, u_lo, hi = hi, u_hi, hi * 4.0
        u_hi = use(hi)
    mu, _ = bracket_root(use, (hi, u_hi), (lo, u_lo), tol=_MU_TOL, width=_MU_WIDTH)
    return optimum(mu, mu)


def lookahead_optima(
    model: DataCenterModel, environment, T: int, *, alpha: float = 1.0
) -> list[FrameOptimum]:
    """Solve P2 frame by frame; requires ``J`` divisible by ``T``.  Frame
    ``r``'s budget is ``alpha (sum_frame f + Z / R)``."""
    J = environment.horizon
    if T < 1 or J % T != 0:
        raise ValueError(f"frame length {T} must divide the horizon {J}")
    R = J // T
    offsite = environment.portfolio.offsite.values
    z_frame = environment.portfolio.recs / R
    return [
        _frame_optimum(
            model,
            environment,
            alpha * (float(offsite[r * T : (r + 1) * T].sum()) + z_frame),
            r,
            slice(r * T, (r + 1) * T),
        )
        for r in range(R)
    ]


class DualReplay(Controller):
    """Replay a multiplier: slot ``t`` solves P3 at ``V = 1`` with
    ``q = mu(t)``, charging the switch from the previous slot's on-set.

    ``mu`` is one multiplier for every slot, one per slot (an array), or
    ``None`` until a subclass's :meth:`start` sets it.  P2's frames replay
    as ``DualReplay(model, np.repeat([f.mu for f in frames], T))``.
    """

    def __init__(self, model: DataCenterModel, mu: float | np.ndarray | None = None):
        self.model = model
        self.mu = mu
        self.solver = default_solver(model)
        self._prev_on = None

    def decide(self, observation: SlotObservation) -> SlotSolution:
        if self.mu is None:
            raise RuntimeError(f"{type(self).__name__}.start() was not called")
        mu = self.mu
        problem = self.model.slot_problem(
            arrival_rate=observation.arrival_rate,
            onsite=observation.onsite,
            price=observation.price,
            network_delay=observation.network_delay,
            pue_override=observation.pue,
            q=float(mu[observation.t]) if isinstance(mu, np.ndarray) else mu,
            V=1.0,
            prev_on_counts=self._prev_on,
        )
        solution = self.solver.solve(problem)
        self._prev_on = solution.action.on_counts(self.model.fleet)
        return solution


class OfflineOptimal(DualReplay):
    """The OPT baseline (paper Fig. 5(a,b)): P1's dual policy.

    Parameters
    ----------
    model:
        Facility parameters.
    budget:
        Total allowed brown energy in MWh; when ``None`` it is the
        environment portfolio's carbon budget ``sum f + Z``, read at start.
    """

    def __init__(self, model: DataCenterModel, *, budget: float | None = None):
        super().__init__(model)
        self.budget = budget
        self.frame: FrameOptimum | None = None

    def start(self, environment) -> None:
        budget = (
            self.budget if self.budget is not None else environment.portfolio.carbon_budget
        )
        self.frame = _frame_optimum(self.model, environment, budget, 0, slice(None))
        if self.frame.total_brown > budget:
            raise ValueError(
                "cannot meet the budget even with an enormous penalty; the "
                "workload's minimum power exceeds it"
            )
        self.mu = self.frame.mu

    def name(self) -> str:
        return "OPT"
