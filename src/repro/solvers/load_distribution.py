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
residual closure all run over those rows.  A single row needs no loop at
all: the balance fixes its per-server load at ``lambda / n`` and the dual
at its marginal price there, ``e + Wd d'(lambda / n, x)``, as in the
exact engine (THEORY.md §3).  On a fleet whose only undominated speed is
the top one, every on-set GSD scores is such a row.  Its facility power
does not depend on the electricity weight, so only the billed or the free
regime can come out.  Everything about a class that
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
A multi-row on-set bisects nu (and, in the boundary regime, the
electricity weight); a one-row solve takes no step.  Every
bisection stops as soon as its bracket can no longer shrink in floating
point (the midpoint rounds onto an endpoint): from that state further
steps cannot change the returned endpoint, so the early exit returns what
a fixed-count loop of ``_NU_ITERS`` (``_MU_ITERS``) steps would
(docs/PERFORMANCE.md).
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
    ``e + Wd d'(0, x)`` and ``e + Wd d'(gamma x, x)``.  ``marginal``,
    ``inv`` and ``cost`` are the delay model's scalar marginal, its
    inverse and the cost, per server.
    """

    __slots__ = (
        "wd", "pue", "we", "linear", "speed", "coeff", "static", "caps",
        "rows", "billed", "marginal", "inv", "cost",
    )

    def __init__(self, problem: SlotProblem):
        fleet = problem.fleet
        model = problem.delay_model
        marginal = model.marginal_at
        wd = self.wd = problem.V * problem.delay_weight
        self.pue = problem.pue
        self.we = problem.V * problem.tariff.marginal(0.0, problem.price) + problem.q
        self.linear = isinstance(problem.tariff, LinearTariff)
        self.speed, self.coeff, self.static = fleet.class_lists
        gamma = problem.gamma
        self.caps = [gamma * x for x in self.speed]
        self.rows = [(0.0, 0.0, 0.0, 0.0, 0.0)] + [
            (x, c, cap, wd * marginal(0.0, x), wd * marginal(cap, x))
            for x, c, cap in zip(self.speed[1:], self.coeff[1:], self.caps[1:])
        ]
        self.billed = self._at(self.we, range(len(self.rows)))
        self.marginal = marginal
        self.inv = model.inverse_marginal
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
    inner_iters:
        Total bisection steps (one served-load evaluation each) across all
        water-filling calls of this solve (diagnostic for the fast-path
        benchmarks; ``0`` for one class).
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
    inner_iters: int
    it_power: float
    delay_sum: float
    served: float

    #: Always False: every water-fill is cold.  Not a field; its only
    #: reader is ``benchmarks/e2e/layers.py``'s ``waterfill.warm_ratio``,
    #: and it goes with that metric (ROADMAP item 6).
    warm_started = False

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
    has room: an empty row's marginal price lies above the dual, so
    spreading a few ulps of shortfall onto it would move facility power by
    the residual's order and could flip a regime verdict taken at 1e-12.
    The bisection ends at or above the balance, so its first pass never
    takes that branch.
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
) -> tuple[list[float], float, int]:
    """Water-filling over the on classes ``ids`` (server counts ``n``,
    capped total ``capped``) for a fixed electricity weight ``we`` ($/MWh
    brown).

    Returns ``(per-server load of each row, dual variable nu, bisection
    steps)``.  One row is answered in closed form; more bisect nu.
    """
    if lam > capped:
        # The workload passed the (1 + 1e-12) capacity check, but the rows'
        # capped total rounds below it: no nu closes the balance (the dual
        # is unbounded), and the closest feasible point puts every row at
        # its cap, a rounding error away from ``lam``.
        return [table.caps[k] for k in ids], math.inf, 0

    wd = table.wd
    if wd <= 0.0:
        # At zero electricity weight too every split is optimal; filling
        # the least power-hungry rows first keeps facility power (and so
        # the regime choice) independent of the row order.
        rows = table.weighted(we, ids)
        elec = [row[0] for row in rows]
        order = elec if we * table.pue > 0.0 else [table.coeff[k] for k in ids]
        caps = [row[2] for row in rows]
        return _fill_when_delay_free(lam, order, caps, n), min(0.0, *elec), 0

    if len(ids) == 1:
        # One row: the balance alone fixes its load at lam / n, and the dual
        # is the row's marginal price there -- no crossing to search for.
        e, x, cap, _, _ = table.weighted(we, ids)[0]
        load = lam / n[0]
        if load > cap:  # lam <= n cap, but the quotient can round one ulp up
            load = cap
        return [load], e + wd * table.marginal(load, x), 0

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

    while _served_at(rows, wd, inv, hi) < lam:
        hi = 2.0 * hi + 1.0
        if hi > 1e300:
            raise InfeasibleError("load exceeds capped capacity of the on-set")
    iters = 0
    for _ in range(_NU_ITERS):
        mid = 0.5 * (lo + hi)
        collapsed = mid == lo or mid == hi
        if _served_at(rows, wd, inv, mid) < lam:
            lo = mid
        else:
            hi = mid
        iters += 1
        if collapsed:
            break

    # Close the residual balance exactly on rows strictly inside their box.
    return _close_residual(lam, _loads_at(rows, wd, inv, hi), caps, n), hi, iters


def _solution(
    table: ClassTable,
    ids: list[int],
    n: list[float],
    loads: list[float],
    nu: float,
    regime: str,
    we: float,
    duals: tuple[float, ...],
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
        nu, regime, we, tuple(ids), loads, duals, iters, it_power, delay_sum, served
    )


def _solve_classes(problem: SlotProblem, table: ClassTable, counts: list[float]) -> ClassSolve:
    """:func:`distribute_load` for the class histogram ``counts``.  One pass
    over the classes gathers everything the regime choice reads."""
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
        return ClassSolve(0.0, "free", 0.0, None, None, (), 0, static_it, 0.0, 0.0)
    if not ids:
        raise InfeasibleError("positive workload but every group is off")
    if lam > capped * (1.0 + 1e-12):
        raise InfeasibleError("load exceeds capped capacity of the on-set")

    pue = table.pue
    onsite = problem.onsite
    total_iters = 0

    # Regime "billed": full electricity weight (fixed-point on the tariff
    # marginal for nonlinear tariffs; exact in one pass for LinearTariff).
    linear = table.linear
    we = table.we
    for _ in range(1 if linear else 3):
        loads_a, nu_a, it_a = _waterfill(lam, we, table, ids, n, capped)
        total_iters += it_a
        power_a = _facility(pue, static_it, power_per_load, loads_a)
        if linear:
            break  # the marginal price does not depend on the brown draw
        brown = max(power_a - onsite, 0.0) * problem.slot_hours
        new_we = problem.V * problem.tariff.marginal(brown, problem.price) + problem.q
        if abs(new_we - we) <= 1e-12 * max(we, 1.0):
            break
        we = new_we
    if power_a >= onsite * (1.0 - 1e-12):
        return _solution(table, ids, n, loads_a, nu_a, "billed", we, (nu_a,), total_iters)

    # Regime "free": renewables may cover everything -> zero weight.
    loads_b, nu_b, it_b = _waterfill(lam, 0.0, table, ids, n, capped)
    total_iters += it_b
    if _facility(pue, static_it, power_per_load, loads_b) <= onsite * (1.0 + 1e-12):
        return _solution(
            table, ids, n, loads_b, nu_b, "free", 0.0, (nu_a, nu_b), total_iters
        )

    # Regime "boundary": power pinned at the renewable supply; bisect the
    # multiplier mu in (0, we) so that facility power == onsite supply.
    lo_mu, hi_mu = 0.0, we
    for _ in range(_MU_ITERS):
        mu = 0.5 * (lo_mu + hi_mu)
        collapsed = mu == lo_mu or mu == hi_mu
        loads_m, nu_m, it_m = _waterfill(lam, mu, table, ids, n, capped)
        total_iters += it_m
        if _facility(pue, static_it, power_per_load, loads_m) > onsite:
            lo_mu = mu
        else:
            hi_mu = mu
        if collapsed:
            break
    # Report the weight the returned loads were actually computed at: the
    # last midpoint ``mu``, not the final bracket's center.
    return _solution(
        table, ids, n, loads_m, nu_m, "boundary", mu, (nu_a, nu_b), total_iters
    )


def distribute_load(
    problem: SlotProblem,
    levels: np.ndarray | None = None,
    *,
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
    return _solve_classes(problem, table, histogram)


def solve_fixed_levels(problem: SlotProblem, levels: np.ndarray):
    """Convenience: distribute load for ``levels`` and return the resulting
    ``(FleetAction, SlotEvaluation)`` pair."""
    levels = np.asarray(levels, dtype=np.int64)
    histogram = problem.fleet.class_counts(levels)[1].tolist()
    action = FleetAction(levels, distribute_load(problem, histogram=histogram).rows(histogram))
    return action, problem.evaluate(action)
