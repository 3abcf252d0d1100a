"""Optimal load distribution for fixed speeds (GSD line 3, Eq. (18)).

With the speed vector fixed, P3 reduces to a *convex* program in the load
distribution: minimize

    We * [ P_static + sum_g n_g c_g l_g  (x PUE) - r ]^+  +  Wd * sum_g n_g d(l_g, x_g)

over per-server loads ``l_g`` with ``sum_g n_g l_g = lambda`` and
``0 <= l_g <= gamma x_g``, where ``We = V w + q`` prices brown energy, ``Wd
= V beta kappa`` prices delay, ``c_g`` is the dynamic-power coefficient and
``d`` the per-server delay-cost model.  The paper solves this distributedly
by dual decomposition (references [5, 27]); the KKT conditions give a
water-filling characterization:

    l_g(nu) = clip( d^{-1}'( (nu - We PUE c_g) / Wd ), 0, gamma x_g )

with the dual variable ``nu`` (price per unit of served load) set by
bisection so the loads sum to ``lambda``.  The ``[.]^+`` kink is resolved by
regime analysis: solve with the full electricity weight (regime *billed*),
with zero weight (regime *free*, when renewables cover everything), and,
when the two disagree, bisect the weight so facility power meets the
renewable supply exactly (regime *boundary*) -- the KKT multiplier of the
constraint ``P <= r``.

Class compression
-----------------
``l_g(nu)`` depends on a group only through its (profile, level) pair: the
speed ``x_g`` and coefficient ``c_g``.  The count ``n_g`` only weights it.
So the solve runs over **classes**, not groups
(:meth:`~repro.cluster.fleet.Fleet.class_counts`): one row per
(profile, level) with servers on, carrying the summed server count.  The
paper's 200 homogeneous groups need at most 4 rows, a two-profile fleet at
most 8, whatever its size.  Regime choice, the nu/mu loops and the
residual closure all run over those rows.  Everything about a class that
does not depend on the on-set -- speed, cap, power coefficients, the
marginal delay prices at zero load and at the cap, and its electricity
price and cold nu bracket at the full weight of the billed regime -- sits
in a :class:`ClassTable` built once per problem, so a caller that already
holds the class counts (the evaluation cache keeps them up to date per
candidate) passes that histogram instead of a level vector.  Either way
:func:`distribute_load` returns a plain :class:`ClassSolve` record -- the
class loads, the dual, the regime and the evaluation's IT power, delay
and served-load totals, gathered in one pass over the class rows.  The
class loads are the whole load split: every group of a class carries the
same per-server load, so no per-group load is ever built, and
:meth:`ClassSolve.rows` hands the split on as the
:class:`~repro.cluster.fleet.ClassRows` of a
:class:`~repro.cluster.fleet.FleetAction`.  At a handful of rows numpy's
per-call dispatch costs more than the arithmetic, so the loops run on
plain floats; the delay model's scalar
:meth:`~repro.cluster.queueing.DelayCostModel.inverse_marginal` stays the
one source of the inverse marginal.  The scalar loops assume few distinct
profiles (every fleet in this package has one or two); a fleet of
thousands of distinct profiles would pay ~0.3 us per class per step.

Fast path
---------
Two orthogonal accelerations keep the hot loop short (see
docs/PERFORMANCE.md):

- **Exact early exit**: every cold bisection stops as soon as its bracket
  can no longer shrink in floating point (the midpoint rounds onto an
  endpoint).  From that state, running the remaining fixed-count
  iterations provably cannot change the returned endpoint, so the
  early-exited result is *bit-identical* to the fixed-count loop.  The
  module flag ``_EARLY_EXIT`` exists so tests can re-run the fixed-count
  path and assert exact equality.
- **Warm starts**: :func:`distribute_load` accepts the solve of a
  *neighboring* configuration (one group's level changed) as a ``hint``,
  of which it reads the dual, regime and weight.  The nu water-fill starts
  a safeguarded Newton iteration on the monotone served-load curve at the
  hint's dual variable: the slope comes from the delay model's
  :meth:`~repro.cluster.queueing.DelayCostModel.inverse_marginal_slope`,
  every evaluation narrows a bracket around the crossing, and a Newton
  step that leaves that bracket is replaced by its midpoint.  It stops
  once the served load is within ``_WARM_FTOL`` of the workload, where
  bisection would still need ~log2(width/ulp) steps; if the bracket
  collapses first, the cold path takes over.  Warm-started solves agree
  with cold solves to <= 1e-9 relative objective error (the closed balance
  restores feasibility exactly, so the objective error is second-order in
  the remaining dual error).  In the boundary regime each of the mu
  bisection's water-fills starts from the previous one's dual, the first
  from the hint's, whatever the hint's regime.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..cluster.fleet import ClassRows, FleetAction
from ..cluster.power import LinearTariff
from .problem import InfeasibleError, SlotProblem

__all__ = ["ClassSolve", "distribute_load", "solve_fixed_levels"]

_NU_ITERS = 100
_MU_ITERS = 60

#: When False, bisections burn their full iteration budget even after the
#: bracket has collapsed (the historical behavior); tests flip this to
#: assert the early exit is exact.
_EARLY_EXIT = True

#: Relative half-widths of the mu brackets tried around a boundary-regime
#: hint: the tight one wins when the crossing barely moved (mu-chained
#: boundary solves), the wide one when the candidate differs from the
#: hint's configuration by a group flip or two (the typical GSD/coordinate-
#: descent step).  A failed tier costs two water-fills.
_WARM_RTOL = 1e-6
_WARM_RTOL_WIDE = 5e-2

#: Warm Newton refinements stop once the served load is within this
#: fraction of the workload.  The residual closure restores the balance
#: exactly, so the solution is a feasible point a dual error of that order
#: away from the optimizer and the objective gap is *second order* in it:
#: on paper-fleet chain steps it measures <= 1e-15 relative, the rounding
#: of the objective itself, far inside the 1e-9 warm contract.  Cold
#: bisections still run to fp bracket collapse.
_WARM_FTOL = 1e-10


class ClassTable:
    """Per-problem constants of every (profile, level) class, indexed by
    class id (:attr:`~repro.cluster.fleet.Fleet.num_classes` entries, the
    off class ``0`` inert), as plain floats for the scalar loops.

    None of it depends on which groups are on, so a caller scoring many
    on-sets of one problem builds it once.  ``rows[k]`` is what a
    water-fill row reads of class ``k``: its speed ``x``, dynamic
    coefficient ``c``, cap ``gamma x`` and the delay prices
    ``Wd * d'(0, x)`` and ``Wd * d'(gamma x, x)``, which bound the cold nu
    bracket whatever the electricity weight.  ``we`` is the full
    electricity weight at zero brown draw -- the billed regime's weight
    for a linear tariff, its first pass for any other -- and
    ``billed[k]`` is class ``k``'s row at that weight: its electricity
    price ``e = we PUE c`` per unit of load and the cold bracket ends
    ``e + Wd d'(0, x)`` and ``e + Wd d'(gamma x, x)``.
    """

    __slots__ = (
        "wd", "pue", "we", "linear", "speed", "coeff", "static", "caps",
        "rows", "billed", "inv", "slope", "cost",
    )

    def __init__(self, problem: SlotProblem):
        fleet = problem.fleet
        model = problem.delay_model
        marginal = model.marginal_at
        wd = self.wd = problem.V * problem.delay_weight
        self.pue = problem.pue
        self.we = problem.V * problem.tariff.marginal(0.0, problem.price) + problem.q
        self.linear = isinstance(problem.tariff, LinearTariff)
        self.speed = fleet.class_speed.tolist()
        self.coeff = fleet.class_dyn_coeff.tolist()
        self.static = fleet.class_static_power.tolist()
        self.caps = (problem.gamma * fleet.class_speed).tolist()
        self.rows = [(0.0, 0.0, 0.0, 0.0, 0.0)] + [
            (x, c, cap, wd * marginal(0.0, x), wd * marginal(cap, x))
            for x, c, cap in zip(self.speed[1:], self.coeff[1:], self.caps[1:])
        ]
        self.billed = self._at(self.we, range(len(self.rows)))
        self.inv = model.inverse_marginal
        self.slope = model.inverse_marginal_slope
        self.cost = model.cost_at

    def weighted(self, we: float, ids) -> list[tuple[float, float, float, float, float]]:
        """``(e, x, cap, lo, hi)`` of classes ``ids`` at electricity weight
        ``we``: the price ``e`` of a unit of load, speed, cap and the cold
        nu bracket ends ``e + Wd d'(0, x)`` and ``e + Wd d'(cap, x)``."""
        if we == self.we:
            billed = self.billed
            return [billed[k] for k in ids]
        return self._at(we, ids)

    def _at(self, we: float, ids) -> list[tuple[float, float, float, float, float]]:
        wp = we * self.pue
        out = []
        for k in ids:
            x, c, cap, d0, dcap = self.rows[k]
            e = wp * c  # $ per (req/s) routed to the row
            out.append((e, x, cap, e + d0, e + dcap))
        return out


class ClassSolve(NamedTuple):
    """Result of one fixed-speed load-distribution solve, in class space:
    what :func:`distribute_load` returns and what the evaluation cache
    keeps of it.

    Attributes
    ----------
    nu:
        Final dual variable (marginal objective per unit of served load);
        ``inf`` when every class sits at its cap because the workload
        rounds above the on-set's capped capacity.
    regime:
        ``"billed"`` (power exceeds renewables, full electricity weight),
        ``"free"`` (renewables cover everything), or ``"boundary"``
        (facility power pinned at the renewable supply).
    electricity_weight:
        The effective $/MWh weight the solution was computed with.
    classes, class_load:
        The on-set's class ids (ascending, see
        :meth:`~repro.cluster.fleet.Fleet.class_counts`) and the
        per-server load of each; ``None`` when there is no workload.
    duals:
        The dual variable of each fixed-weight water-fill the regime choice
        ran before the ``mu`` bisection: ``(billed,)`` or ``(billed, free)``;
        empty when there is no workload.  The distributed protocol's price
        rounds depend on them (:mod:`repro.solvers.messaging`).
    warm_started:
        Whether a caller-supplied hint seeded at least one water-fill that
        converged from it (diagnostic; cold solves report False).
    inner_iters:
        Total refinement steps (bisection or Newton, one served-load
        evaluation each) across all water-filling calls of this solve
        (diagnostic for the fast-path benchmarks).
    it_power, delay_sum, served:
        The switching-free totals of the solve's evaluation, summed over
        the class rows: IT power (MW), the unweighted delay sum and the
        served load (req/s); see :meth:`SlotProblem.evaluate_totals`.  With
        no workload every on server idles: ``it_power`` is their static
        draw.
    """

    nu: float
    regime: str
    electricity_weight: float
    classes: tuple[int, ...] | None
    class_load: list[float] | None
    duals: tuple[float, ...]
    warm_started: bool
    inner_iters: int
    it_power: float
    delay_sum: float
    served: float

    def rows(self, histogram) -> ClassRows:
        """The solve's load split as :class:`~repro.cluster.fleet.ClassRows`,
        given the class histogram it solved (servers on per class id)."""
        classes = tuple(k for k, n in enumerate(histogram) if n > 0.0)
        counts = tuple(histogram[k] for k in classes)
        if self.class_load is None:  # zero workload: every on server idles
            return ClassRows(classes, counts, (0.0,) * len(classes))
        return ClassRows(classes, counts, tuple(self.class_load))


def _fill_when_delay_free(
    lam: float, weights: list[float], caps: list[float], counts: list[float]
) -> list[float]:
    """Degenerate case ``Wd == 0``: objective is linear in loads, so fill
    rows to their caps in ascending order of ``weights`` (ties broken by
    index)."""
    loads = [0.0] * len(caps)
    remaining = lam
    for k in sorted(range(len(weights)), key=weights.__getitem__):
        if counts[k] <= 0.0:
            # A zero-server row (e.g. failures emptied a group) offers no
            # capacity; skipping it keeps the 0/0 below from poisoning the
            # fill with NaNs.
            continue
        take = min(remaining, caps[k] * counts[k])
        loads[k] = take / counts[k]
        remaining -= take
        if remaining <= 0:
            break
    if remaining > 1e-9 * max(lam, 1.0):
        raise InfeasibleError("load exceeds capped capacity of the on-set")
    return loads


def _served_total(n: list[float], loads: list[float]) -> float:
    total = 0.0
    for nk, lk in zip(n, loads):
        total += nk * lk
    return total


def _facility(pue: float, static_it: float, per_load: list[float], loads) -> float:
    """Facility power (MW) of the rows at per-server ``loads``: idle IT
    power plus each row's IT power per unit of per-server load, times PUE."""
    return pue * (static_it + _served_total(per_load, loads))


def _close_residual(
    lam: float, loads: list[float], caps: list[float], n: list[float]
) -> list[float]:
    """Force ``sum(n * loads) == lam`` by spreading the refinement residual
    over rows strictly inside their box ``[0, cap]``.

    The first pass applies one uniform correction and clips.  When
    clipping binds -- some interior row saturates at its cap (or floor)
    while absorbing the correction -- the clipped mass is redistributed
    over the still-interior set until the balance closes; each extra pass
    saturates at least one row, so the loop is bounded by the row count.
    A shortfall opens the empty rows only once no loaded row with servers
    has room: an empty row's marginal price lies above the dual, so a
    warm solve that stops just below the balance must not spread its few
    ulps onto it (that would move facility power by the residual's order
    and could flip a regime verdict taken at 1e-12).  A cold solve ends at
    or above the balance, so its first pass never takes that branch.
    """
    loads = list(loads)
    residual = lam - _served_total(n, loads)
    for _ in range(len(loads) + 1):
        interior = [k for k, lk in enumerate(loads) if 0.0 < lk < caps[k]]
        if residual > 0.0 and not any(n[k] > 0.0 for k in interior):
            interior = [k for k, lk in enumerate(loads) if lk < caps[k]]
        weight = 0.0
        for k in interior:
            weight += n[k]
        if weight <= 0.0:
            break
        shift = residual / weight
        bound = False
        for k in interior:
            proposed = loads[k] + shift
            if proposed < 0.0:
                loads[k], bound = 0.0, True
            elif proposed > caps[k]:
                loads[k], bound = caps[k], True
            else:
                loads[k] = proposed
        if not bound:
            break  # nothing bound: the correction closed the balance
        residual = lam - _served_total(n, loads)
    return loads


def _newton(
    lam: float,
    table: list[tuple[float, float, float, float]],
    wd: float,
    inv,
    slope_of,
    lo: float,
    hi: float,
    nu: float,
) -> tuple[list[float] | None, float, int]:
    """Warm refinement of the nu crossing from a hint ``lo < nu < hi``.

    Safeguarded Newton on the monotone served-load curve: every
    evaluation moves one end of the bracket to ``nu``, and a Newton step
    that does not land strictly inside the bracket becomes its midpoint.
    Returns ``(row loads at nu, nu, evaluations)`` once the served load is
    within ``_WARM_FTOL`` of ``lam``, or at fp bracket collapse when the
    upper end has been evaluated (its loads then, like the cold
    bisection).  The loads are ``None`` when the bracket collapses against
    the unevaluated cold upper bound or the step budget runs out; the
    caller then falls back to the cold path.
    """
    tol = _WARM_FTOL * lam
    hi_loads = None
    for iters in range(1, _NU_ITERS + 1):
        loads = []
        served = 0.0
        slope = 0.0
        for e, x, cap, n in table:
            m = (nu - e) / wd
            if m > 0.0:
                load = inv(m, x)
                if load > cap:
                    load = cap
                elif load > 0.0:
                    slope += n * slope_of(m, x)
                served += n * load
                loads.append(load)
            else:
                loads.append(0.0)
        f = served - lam
        if -tol <= f <= tol:
            return loads, nu, iters
        if f < 0.0:
            lo = nu
        else:
            hi, hi_loads = nu, loads
        step = nu - f * wd / slope if slope > 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if step == lo or step == hi:
                return hi_loads, hi, iters
        nu = step
    return None, nu, _NU_ITERS


def _loads_at(rows, wd: float, inv, nu: float) -> list[float]:
    """Per-server load of every water-fill row ``(e, x, cap, n)`` at dual
    ``nu``."""
    out = []
    for e, x, cap, _ in rows:
        m = (nu - e) / wd
        if m > 0.0:
            load = inv(m, x)
            out.append(cap if load > cap else load)
        else:
            out.append(0.0)
    return out


def _served_at(rows, wd: float, inv, nu: float) -> float:
    """Load the water-fill rows ``(e, x, cap, n)`` serve at dual ``nu``."""
    total = 0.0
    for e, x, cap, n in rows:
        m = (nu - e) / wd
        if m > 0.0:
            load = inv(m, x)
            total += n * (cap if load > cap else load)
    return total


def _waterfill(
    lam: float,
    we: float,
    table: ClassTable,
    ids: list[int],
    n: list[float],
    capped: float,
    nu_hint: float | None = None,
) -> tuple[list[float], float, int, bool]:
    """Water-filling over the on classes ``ids`` (server counts ``n``,
    capped total ``capped``) for a fixed electricity weight ``we`` ($/MWh
    brown).

    Returns ``(per-server load of each row, dual variable nu, refinement
    steps, warm-start used)``.  ``nu_hint`` is a previous solve's dual
    variable; when it lies inside the cold bracket, a Newton refinement
    starts there (:func:`_newton`) instead of the cold bisection.
    """
    if lam > capped:
        # The workload passed the (1 + 1e-12) capacity check, but the rows'
        # capped total rounds below it: no nu closes the balance (the dual
        # is unbounded), and the closest feasible point puts every row at
        # its cap, a rounding error away from ``lam``.
        return [table.caps[k] for k in ids], math.inf, 0, False

    wd = table.wd
    if wd <= 0.0:
        # At zero electricity weight too every split is optimal; filling
        # the least power-hungry rows first keeps facility power (and so
        # the regime choice) independent of the row order.
        rows = table.weighted(we, ids)
        elec = [row[0] for row in rows]
        order = elec if we * table.pue > 0.0 else [table.coeff[k] for k in ids]
        caps = [row[2] for row in rows]
        return _fill_when_delay_free(lam, order, caps, n), min(0.0, *elec), 0, False

    # The rows (e, x, cap, n) and the cold bracket: lo is the least
    # marginal price at zero load, hi the greatest at the cap, plus one.
    rows = []
    caps = []
    lo, top = math.inf, -math.inf
    for (e, x, cap, lo_k, hi_k), nk in zip(table.weighted(we, ids), n):
        rows.append((e, x, cap, nk))
        caps.append(cap)
        if lo_k < lo:
            lo = lo_k
        if hi_k > top:
            top = hi_k
    hi = max(lo, top) + 1.0
    inv = table.inv

    iters = 0
    if nu_hint is not None and lo < nu_hint < hi:
        loads, nu, iters = _newton(lam, rows, wd, inv, table.slope, lo, hi, nu_hint)
        if loads is not None:
            return _close_residual(lam, loads, caps, n), nu, iters, True

    while _served_at(rows, wd, inv, hi) < lam:
        hi = 2.0 * hi + 1.0
        if hi > 1e300:
            raise InfeasibleError("load exceeds capped capacity of the on-set")
    for _ in range(_NU_ITERS):
        mid = 0.5 * (lo + hi)
        collapsed = mid == lo or mid == hi
        if _served_at(rows, wd, inv, mid) < lam:
            lo = mid
        else:
            hi = mid
        iters += 1
        if collapsed and _EARLY_EXIT:
            break

    # Close the residual balance exactly on rows strictly inside their box.
    return _close_residual(lam, _loads_at(rows, wd, inv, hi), caps, n), hi, iters, False


def _solution(
    table: ClassTable,
    ids: list[int],
    n: list[float],
    loads: list[float],
    nu: float,
    regime: str,
    we: float,
    duals: tuple[float, ...],
    warm: bool,
    iters: int,
) -> ClassSolve:
    """The :class:`ClassSolve` of the chosen regime's loads, with the
    evaluation totals summed over its class rows."""
    static, coeff, speed, cost = table.static, table.coeff, table.speed, table.cost
    it_power = delay_sum = served = 0.0
    for k, nk, load in zip(ids, n, loads):
        it_power += nk * (static[k] + coeff[k] * load)
        delay_sum += nk * cost(load, speed[k])
        served += nk * load
    return ClassSolve(
        nu, regime, we, tuple(ids), loads, duals, warm, iters, it_power, delay_sum, served
    )


def _solve_classes(
    problem: SlotProblem,
    table: ClassTable,
    counts: list[float],
    hint_nu: float | None,
    hint_regime: str | None,
    hint_weight: float,
) -> ClassSolve:
    """:func:`distribute_load` for the class histogram ``counts``, warm
    started from a hint's dual, regime and electricity weight (``None``,
    ``None``, ``0.0`` for a cold solve).  One pass over the classes gathers
    everything the regime choice reads."""
    lam = problem.arrival_rate
    static, coeff, caps = table.static, table.coeff, table.caps
    ids = []  # the on classes, ascending
    n = []  # their server counts
    power_per_load = []  # IT power per unit of per-server load, per row
    capped = 0.0  # the most the rows can serve, summed as served loads are
    static_it = 0.0  # idle IT power of the on-set
    for k, nk in enumerate(counts):
        if nk > 0.0:
            ids.append(k)
            n.append(nk)
            power_per_load.append(nk * coeff[k])
            capped += nk * caps[k]
            static_it += nk * static[k]
    if lam <= 0.0:  # no workload: every on server idles
        return ClassSolve(0.0, "free", 0.0, None, None, (), False, 0, static_it, 0.0, 0.0)
    if not ids:
        raise InfeasibleError("positive workload but every group is off")
    if lam > capped * (1.0 + 1e-12):
        raise InfeasibleError("load exceeds capped capacity of the on-set")

    pue = table.pue
    onsite = problem.onsite
    total_iters = 0
    warm_any = False

    # Regime "billed": full electricity weight (fixed-point on the tariff
    # marginal for nonlinear tariffs; exact in one pass for LinearTariff).
    billed_hint = hint_nu if hint_regime == "billed" else None
    linear = table.linear
    we = table.we
    for _ in range(1 if linear else 3):
        loads_a, nu_a, it_a, warm_a = _waterfill(
            lam, we, table, ids, n, capped, billed_hint
        )
        total_iters += it_a
        warm_any |= warm_a
        power_a = _facility(pue, static_it, power_per_load, loads_a)
        if linear:
            break  # the marginal price does not depend on the brown draw
        brown = max(power_a - onsite, 0.0) * problem.slot_hours
        new_we = problem.V * problem.tariff.marginal(brown, problem.price) + problem.q
        if abs(new_we - we) <= 1e-12 * max(we, 1.0):
            break
        we = new_we
    if power_a >= onsite * (1.0 - 1e-12):
        return _solution(
            table, ids, n, loads_a, nu_a, "billed", we, (nu_a,), warm_any, total_iters
        )

    # Regime "free": renewables may cover everything -> zero weight.
    free_hint = hint_nu if hint_regime == "free" else None
    loads_b, nu_b, it_b, warm_b = _waterfill(lam, 0.0, table, ids, n, capped, free_hint)
    total_iters += it_b
    warm_any |= warm_b
    if _facility(pue, static_it, power_per_load, loads_b) <= onsite * (1.0 + 1e-12):
        return _solution(
            table, ids, n, loads_b, nu_b, "free", 0.0, (nu_a, nu_b), warm_any, total_iters
        )

    # Regime "boundary": power pinned at the renewable supply; bisect the
    # multiplier mu in (0, we) so that facility power == onsite supply.
    # A boundary hint seeds a tight mu bracket (verified before use).  With
    # any hint, each inner water-fill reuses the previous iteration's dual
    # variable as its own hint -- consecutive mu values are close, so the
    # chained hints cut the inner bracket down to the warm width, whether
    # or not the hint's own mu validated.  Cold solves (no hint) stay exact.
    lo_mu, hi_mu = 0.0, we
    mu_h = hint_weight if hint_regime == "boundary" else 0.0
    if 0.0 < mu_h < we:
        for rtol in (_WARM_RTOL, _WARM_RTOL_WIDE):
            w = rtol * max(mu_h, 1e-300)
            cand_lo, cand_hi = max(0.0, mu_h - w), min(we, mu_h + w)
            if cand_lo >= cand_hi:
                continue
            loads_lo, _, it_lo, _ = _waterfill(
                lam, cand_lo, table, ids, n, capped, hint_nu
            )
            loads_hi, _, it_hi, _ = _waterfill(
                lam, cand_hi, table, ids, n, capped, hint_nu
            )
            total_iters += it_lo + it_hi
            if (
                _facility(pue, static_it, power_per_load, loads_lo) > onsite
                and _facility(pue, static_it, power_per_load, loads_hi) <= onsite
            ):
                lo_mu, hi_mu = cand_lo, cand_hi
                warm_any = True
                break
    loads_m, nu_m = loads_b, nu_b
    mu = 0.5 * (lo_mu + hi_mu)
    nu_chain = hint_nu
    for _ in range(_MU_ITERS):
        mu = 0.5 * (lo_mu + hi_mu)
        collapsed = mu == lo_mu or mu == hi_mu
        loads_m, nu_m, it_m, warm_m = _waterfill(
            lam, mu, table, ids, n, capped, nu_chain
        )
        total_iters += it_m
        warm_any |= warm_m
        if hint_regime is not None:
            nu_chain = nu_m
        if _facility(pue, static_it, power_per_load, loads_m) > onsite:
            lo_mu = mu
        else:
            hi_mu = mu
        if collapsed and _EARLY_EXIT:
            break
    # Report the weight the returned loads were actually computed at: the
    # last midpoint ``mu``, not the final bracket's center.  Warm-start
    # hints seed their mu bracket from ``hint.electricity_weight``, so the
    # mismatch would hand every boundary-regime warm solve a bracket around
    # a weight no water-fill ever used.
    return _solution(
        table, ids, n, loads_m, nu_m, "boundary", mu, (nu_a, nu_b), warm_any, total_iters
    )


def distribute_load(
    problem: SlotProblem,
    levels: np.ndarray | None = None,
    *,
    hint: ClassSolve | None = None,
    histogram=None,
    table: ClassTable | None = None,
) -> ClassSolve:
    """Solve the load-distribution subproblem for a fixed level vector, or
    for the class histogram of one.

    Parameters
    ----------
    problem:
        The slot's P3 instance.
    levels:
        Per-group speed levels (``-1`` = off).
    hint:
        Optional solve of a neighboring configuration (typically the
        previous candidate of a GSD chain or coordinate sweep), of which
        only ``nu``, ``regime`` and ``electricity_weight`` are read.  They
        seed the water-fills; the warm-started solution matches the cold
        one to <= 1e-9 relative objective error.  ``None`` (the default)
        runs the cold path.
    histogram:
        Instead of ``levels``: the number of servers on in every class id
        (``fleet.num_classes`` entries, see
        :meth:`~repro.cluster.fleet.Fleet.class_counts`).
    table:
        The problem's :class:`ClassTable`, when the caller holds one;
        built here otherwise.

    The result depends on ``levels`` only through its class histogram:
    two level vectors with equal histograms get the same class loads.

    Raises
    ------
    InfeasibleError
        If the on-set cannot serve ``lambda`` within the utilization cap.
    """
    if histogram is None:
        histogram = problem.fleet.class_counts(np.asarray(levels, dtype=np.int64))[1].tolist()
    if table is None:
        table = ClassTable(problem)
    if hint is None:
        return _solve_classes(problem, table, histogram, None, None, 0.0)
    return _solve_classes(
        problem, table, histogram, hint.nu, hint.regime, hint.electricity_weight
    )


def solve_fixed_levels(problem: SlotProblem, levels: np.ndarray):
    """Convenience: distribute load for ``levels`` and return the resulting
    ``(FleetAction, SlotEvaluation)`` pair."""
    levels = np.asarray(levels, dtype=np.int64)
    histogram = problem.fleet.class_counts(levels)[1].tolist()
    action = FleetAction(levels, distribute_load(problem, histogram=histogram).rows(histogram))
    return action, problem.evaluate(action)
