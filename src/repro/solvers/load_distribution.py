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
(:meth:`~repro.cluster.fleet.Fleet.class_histogram`): one row per (profile,
level) with the summed server count.  The paper's 200 homogeneous groups
need at most 4 rows, a two-profile fleet at most 8, whatever its size.
Regime choice, the nu/mu loops and the residual closure all run over those
rows, and the per-group loads are expanded once on return, so every group
of a class carries the same per-server load.  At a handful of rows numpy's
per-call dispatch costs more than the arithmetic, so the loops run on plain
floats; the delay model's scalar
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
- **Warm starts**: :func:`distribute_load` accepts the
  :class:`LoadDistribution` of a *neighboring* configuration (one group's
  level changed) as a ``hint``.  The hint's dual variable seeds a tight
  bracket around the previous crossing (validated before use -- if the
  crossing moved outside the tight bracket, the cold bracket is used and
  nothing is lost but two evaluations).  A validated bracket is then
  refined by safeguarded regula falsi (Illinois) instead of bisection:
  secant proposals on the monotone served-load curve collapse the bracket
  in a handful of steps where bisection needs ~log2(width/ulp), stopping
  at ``_WARM_XTOL`` relative bracket width.  Warm-started solves agree
  with cold solves to <= 1e-9 relative objective error (the closed
  balance restores feasibility exactly, so the objective error is
  second-order in the remaining dual error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.fleet import Fleet, FleetAction
from ..cluster.power import LinearTariff
from .problem import InfeasibleError, SlotProblem

__all__ = ["LoadDistribution", "distribute_load", "solve_fixed_levels"]

_NU_ITERS = 100
_MU_ITERS = 60

#: When False, bisections burn their full iteration budget even after the
#: bracket has collapsed (the historical behavior); tests flip this to
#: assert the early exit is exact.
_EARLY_EXIT = True

#: Relative half-widths of the brackets tried around a warm-start hint:
#: the tight one wins when the crossing barely moved (mu-chained boundary
#: solves), the wide one when the candidate differs from the hint's
#: configuration by a group flip or two (the typical GSD/coordinate-
#: descent step: measured dual shifts on a 200-group fleet stay below
#: ~3% per flipped group).  The nu water-fill validates only the wide
#: bracket -- the tight one is contained in it, so it validates exactly
#: when the wide one does, and the Illinois refinement erases the width
#: difference in a couple of steps; the mu bisection (no superlinear
#: refinement) still tries both.  A failed tier costs two evaluations.
_WARM_RTOL = 1e-6
_WARM_RTOL_WIDE = 5e-2

#: Warm refinements stop once the bracket is this tight (relative to the
#: dual's magnitude).  The residual closure restores the served-load
#: balance exactly, so the solution is a feasible point within ~1e-10 of
#: the optimizer and the objective gap is *second order* (~1e-20 relative)
#: -- far inside the 1e-9 warm contract.  Cold bisections still run to fp
#: bracket collapse.
_WARM_XTOL = 1e-10


@dataclass(frozen=True)
class LoadDistribution:
    """Result of a fixed-speed load-distribution solve.

    Attributes
    ----------
    per_server_load:
        Length-``G`` array (zeros for off groups).
    nu:
        Final dual variable (marginal objective per unit of served load).
    regime:
        ``"billed"`` (power exceeds renewables, full electricity weight),
        ``"free"`` (renewables cover everything), or ``"boundary"``
        (facility power pinned at the renewable supply).
    electricity_weight:
        The effective $/MWh weight the solution was computed with.
    warm_started:
        Whether a caller-supplied hint successfully tightened at least one
        bisection bracket (diagnostic; cold solves report False).
    inner_iters:
        Total bisection iterations spent across all water-filling calls of
        this solve (diagnostic for the fast-path benchmarks).
    classes, class_load:
        The on-set's class ids (ascending, see
        :meth:`~repro.cluster.fleet.Fleet.class_histogram`) and the
        per-server load of each; ``None`` when there is no workload.
    duals:
        The dual variable of each fixed-weight water-fill the regime choice
        ran before the ``mu`` bisection: ``(billed,)`` or ``(billed, free)``;
        empty when there is no workload.  The distributed protocol's price
        rounds depend on them (:mod:`repro.solvers.messaging`).
    """

    per_server_load: np.ndarray
    nu: float
    regime: str
    electricity_weight: float
    warm_started: bool = False
    inner_iters: int = 0
    classes: np.ndarray | None = None
    class_load: np.ndarray | None = None
    duals: tuple[float, ...] = ()

    def expand(self, fleet: Fleet, ids: np.ndarray) -> np.ndarray:
        """Per-group loads for any level vector with this solve's class
        histogram, given its per-group class ids ``ids``."""
        if self.classes is None:  # zero workload: nothing to place
            return np.zeros(ids.size)
        return _expand(fleet, ids, self.classes, self.class_load)


def _expand(
    fleet: Fleet, ids: np.ndarray, classes: np.ndarray, class_load: np.ndarray
) -> np.ndarray:
    table = np.zeros(fleet.num_classes)
    table[classes] = class_load
    return table[ids]


class _ClassRows:
    """The on-set collapsed to one row per (profile, level) class, held as
    plain floats for the scalar water-fill loops.  Everything that does not
    depend on the electricity weight is computed once per solve."""

    __slots__ = ("x", "c", "n", "caps", "wd", "d0", "dcap")

    def __init__(
        self, problem: SlotProblem, x: np.ndarray, c: np.ndarray, n: np.ndarray
    ):
        marginal = problem.delay_model.marginal_at
        wd = self.wd = problem.V * problem.delay_weight
        self.x = x.tolist()
        self.c = c.tolist()
        self.n = n.tolist()
        self.caps = (problem.gamma * x).tolist()
        # Marginal delay price at zero load and at the cap: the cold nu
        # bracket, whatever the electricity weight.
        self.d0 = [wd * marginal(0.0, xk) for xk in self.x]
        self.dcap = [wd * marginal(cap, xk) for cap, xk in zip(self.caps, self.x)]


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


def _close_residual(
    lam: float, loads: list[float], caps: list[float], n: list[float]
) -> list[float]:
    """Force ``sum(n * loads) == lam`` by spreading the bisection residual
    over rows strictly inside their box ``[0, cap]``.

    The first pass applies one uniform correction and clips.  When
    clipping binds -- some interior row saturates at its cap (or floor)
    while absorbing the correction -- the clipped mass is redistributed
    over the still-interior set until the balance closes; each extra pass
    saturates at least one row, so the loop is bounded by the row count.
    """
    loads = list(loads)
    residual = lam - _served_total(n, loads)
    for _ in range(len(loads) + 1):
        if residual < 0:
            interior = [k for k, lk in enumerate(loads) if 0.0 < lk < caps[k]]
        else:
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


def _waterfill(
    problem: SlotProblem,
    lam: float,
    we: float,
    rows: _ClassRows,
    nu_hint: float | None = None,
) -> tuple[list[float], float, int, bool]:
    """Water-filling over class rows for a fixed electricity weight ``we``
    ($/MWh brown).

    Returns ``(per-server load of each row, dual variable nu, bisection
    iterations, warm-start used)``.  ``nu_hint`` is a previous solve's dual
    variable; when the balance crossing still lies inside a tight bracket
    around it, the search starts from that bracket instead of the cold one.
    """
    wd = rows.wd
    wp = we * problem.pue
    elec = [wp * ck for ck in rows.c]  # $ per (req/s) routed to each row
    caps = rows.caps

    if wd <= 0.0:
        # At zero electricity weight too every split is optimal; filling
        # the least power-hungry rows first keeps facility power (and so
        # the regime choice) independent of the row order.
        return (
            _fill_when_delay_free(lam, elec if wp > 0.0 else rows.c, caps, rows.n),
            min(0.0, *elec),
            0,
            False,
        )

    inv = problem.delay_model.inverse_marginal
    table = list(zip(elec, rows.x, caps, rows.n))

    def loads_at(nu: float) -> list[float]:
        out = []
        for e, x, cap, _ in table:
            m = (nu - e) / wd
            if m > 0.0:
                load = inv(m, x)
                out.append(cap if load > cap else load)
            else:
                out.append(0.0)
        return out

    def served(nu: float) -> float:
        total = 0.0
        for e, x, cap, n in table:
            m = (nu - e) / wd
            if m > 0.0:
                load = inv(m, x)
                total += n * (cap if load > cap else load)
        return total

    lo = min([e + d for e, d in zip(elec, rows.d0)])
    hi = max(lo, max([e + d for e, d in zip(elec, rows.dcap)])) + 1.0

    # Warm validation runs *before* the cold doubling probe: the doubling
    # loop only ever raises ``hi``, so a hint bracket that fits under the
    # initial ``hi`` sees exactly the same clamps either way -- and once
    # it validates (``served(whi) >= lam``), monotonicity guarantees the
    # probe would not have fired, letting a validated hint skip that
    # evaluation entirely.  Only hint brackets poking above the initial
    # ``hi`` have to wait for the doubled bracket.
    warm = False
    f_lo = f_hi = 0.0
    hint_ok = nu_hint is not None and math.isfinite(nu_hint)
    tried_early = False
    if hint_ok:
        w = _WARM_RTOL_WIDE * max(abs(nu_hint), 1e-300)
        wlo, whi = max(lo, nu_hint - w), nu_hint + w
        if wlo < whi <= hi:
            tried_early = True
            s_lo = served(wlo)
            if s_lo < lam:
                s_hi = served(whi)
                if lam <= s_hi:
                    lo, hi = wlo, whi
                    f_lo, f_hi = s_lo - lam, s_hi - lam
                    warm = True
    if not warm:
        while served(hi) < lam:
            hi = 2.0 * hi + 1.0
            if hi > 1e300:
                raise InfeasibleError("load exceeds capped capacity of the on-set")
        if hint_ok and not tried_early:
            w = _WARM_RTOL_WIDE * max(abs(nu_hint), 1e-300)
            wlo, whi = max(lo, nu_hint - w), min(hi, nu_hint + w)
            if wlo < whi:
                s_lo = served(wlo)
                if s_lo < lam:
                    s_hi = served(whi)
                    if lam <= s_hi:
                        lo, hi = wlo, whi
                        f_lo, f_hi = s_lo - lam, s_hi - lam
                        warm = True

    iters = 0
    if warm:
        # Warm refinement: safeguarded regula falsi (Illinois).  The
        # validated bracket already holds ``served(lo) < lam <= served(hi)``
        # with residuals in hand, and ``served`` is monotone, so secant
        # proposals converge superlinearly where bisection would spend
        # ~log2(width/ulp) steps.  Every 4th step takes the plain midpoint,
        # bounding the interval by width * 2^(-iters/4) regardless of how
        # the secant behaves; the loop stops once the bracket shrinks to
        # ``_WARM_XTOL`` relative width (see that constant for why the
        # 1e-9 objective contract still holds with orders of magnitude to
        # spare) or on fp bracket collapse, whichever comes first.
        side = 0
        for _ in range(_NU_ITERS):
            if iters & 3 == 3:
                mid = 0.5 * (lo + hi)
            else:
                mid = hi - f_hi * ((hi - lo) / (f_hi - f_lo))
                if not (lo < mid < hi):
                    mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fm = served(mid) - lam
            iters += 1
            if fm < 0:
                if side < 0:
                    f_hi = 0.5 * f_hi
                lo, f_lo = mid, fm
                side = -1
            else:
                if side > 0:
                    f_lo = 0.5 * f_lo
                hi, f_hi = mid, fm
                side = 1
            if hi - lo <= _WARM_XTOL * max(abs(lo), abs(hi)):
                break
    else:
        for _ in range(_NU_ITERS):
            mid = 0.5 * (lo + hi)
            collapsed = mid == lo or mid == hi
            if served(mid) < lam:
                lo = mid
            else:
                hi = mid
            iters += 1
            if collapsed and _EARLY_EXIT:
                break

    # Close the residual balance exactly on rows strictly inside their box.
    return _close_residual(lam, loads_at(hi), caps, rows.n), hi, iters, warm


def distribute_load(
    problem: SlotProblem,
    levels: np.ndarray,
    *,
    hint: LoadDistribution | None = None,
) -> LoadDistribution:
    """Solve the load-distribution subproblem for a fixed level vector.

    Parameters
    ----------
    problem:
        The slot's P3 instance.
    levels:
        Per-group speed levels (``-1`` = off).
    hint:
        Optional :class:`LoadDistribution` of a neighboring configuration
        (typically the previous candidate of a GSD chain or coordinate
        sweep).  Its dual variable and regime seed the bisection brackets;
        the warm-started solution matches the cold one to <= 1e-9 relative
        objective error.  ``None`` (the default) runs the cold path.

    The result depends on ``levels`` only through its class histogram:
    two level vectors with equal histograms get the same class loads.

    Raises
    ------
    InfeasibleError
        If the on-set cannot serve ``lambda`` within the utilization cap.
    """
    fleet = problem.fleet
    levels = np.asarray(levels, dtype=np.int64)
    lam = problem.arrival_rate

    if lam <= 0.0:
        return LoadDistribution(np.zeros(fleet.num_groups), 0.0, "free", 0.0)
    ids, classes, counts = fleet.class_histogram(levels)
    if classes.size == 0:
        raise InfeasibleError("positive workload but every group is off")

    x = fleet.class_speed[classes]
    c = fleet.class_dyn_coeff[classes]
    if lam > problem.gamma * float(np.dot(counts, x)) * (1.0 + 1e-12):
        raise InfeasibleError("load exceeds capped capacity of the on-set")

    rows = _ClassRows(problem, x, c, counts)
    pue = problem.pue
    slot_h = problem.slot_hours
    static_it = float(np.dot(counts, fleet.class_static_power[classes]))
    power_per_load = (counts * c).tolist()
    total_iters = 0
    warm_any = False

    def facility(loads: list[float]) -> float:
        return pue * (static_it + _served_total(power_per_load, loads))

    def weight_full(brown_guess: float) -> float:
        return problem.V * problem.tariff.marginal(brown_guess, problem.price) + problem.q

    def result(loads, nu, regime, we, duals) -> LoadDistribution:
        class_load = np.array(loads)
        return LoadDistribution(
            _expand(fleet, ids, classes, class_load),
            nu, regime, we, warm_any, total_iters, classes, class_load, duals,
        )

    # Regime "billed": full electricity weight (fixed-point on the tariff
    # marginal for nonlinear tariffs; exact in one pass for LinearTariff).
    billed_hint = hint.nu if hint is not None and hint.regime == "billed" else None
    we = weight_full(0.0)
    for _ in range(1 if isinstance(problem.tariff, LinearTariff) else 3):
        loads_a, nu_a, it_a, warm_a = _waterfill(
            problem, lam, we, rows, nu_hint=billed_hint
        )
        total_iters += it_a
        warm_any |= warm_a
        brown = max(facility(loads_a) - problem.onsite, 0.0) * slot_h
        new_we = weight_full(brown)
        if abs(new_we - we) <= 1e-12 * max(we, 1.0):
            break
        we = new_we
    if facility(loads_a) >= problem.onsite * (1.0 - 1e-12):
        return result(loads_a, nu_a, "billed", we, (nu_a,))

    # Regime "free": renewables may cover everything -> zero weight.
    free_hint = hint.nu if hint is not None and hint.regime == "free" else None
    loads_b, nu_b, it_b, warm_b = _waterfill(
        problem, lam, 0.0, rows, nu_hint=free_hint
    )
    total_iters += it_b
    warm_any |= warm_b
    if facility(loads_b) <= problem.onsite * (1.0 + 1e-12):
        return result(loads_b, nu_b, "free", 0.0, (nu_a, nu_b))

    # Regime "boundary": power pinned at the renewable supply; bisect the
    # multiplier mu in (0, we) so that facility power == onsite supply.
    # A boundary hint seeds a tight mu bracket (verified before use), and
    # each inner water-fill reuses the previous iteration's dual variable
    # as its own hint -- consecutive mu values are close, so the chained
    # hints cut the inner bracket down to the warm width.  The chaining is
    # active only on warm-started solves so cold solves stay exact.
    lo_mu, hi_mu = 0.0, we
    if (
        hint is not None
        and hint.regime == "boundary"
        and 0.0 < hint.electricity_weight < we
    ):
        mu_h = hint.electricity_weight
        for rtol in (_WARM_RTOL, _WARM_RTOL_WIDE):
            w = rtol * max(mu_h, 1e-300)
            cand_lo, cand_hi = max(0.0, mu_h - w), min(we, mu_h + w)
            if cand_lo >= cand_hi:
                continue
            loads_lo, _, it_lo, _ = _waterfill(
                problem, lam, cand_lo, rows, nu_hint=hint.nu
            )
            loads_hi, _, it_hi, _ = _waterfill(
                problem, lam, cand_hi, rows, nu_hint=hint.nu
            )
            total_iters += it_lo + it_hi
            if (
                facility(loads_lo) > problem.onsite
                and facility(loads_hi) <= problem.onsite
            ):
                lo_mu, hi_mu = cand_lo, cand_hi
                warm_any = True
                break
    loads_m, nu_m = loads_b, nu_b
    mu = 0.5 * (lo_mu + hi_mu)
    nu_chain = hint.nu if warm_any and hint is not None else None
    for _ in range(_MU_ITERS):
        mu = 0.5 * (lo_mu + hi_mu)
        collapsed = mu == lo_mu or mu == hi_mu
        loads_m, nu_m, it_m, _ = _waterfill(
            problem, lam, mu, rows, nu_hint=nu_chain
        )
        total_iters += it_m
        if warm_any:
            nu_chain = nu_m
        if facility(loads_m) > problem.onsite:
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
    return result(loads_m, nu_m, "boundary", mu, (nu_a, nu_b))


def solve_fixed_levels(problem: SlotProblem, levels: np.ndarray):
    """Convenience: distribute load for ``levels`` and return the resulting
    ``(FleetAction, SlotEvaluation)`` pair."""
    dist = distribute_load(problem, levels)
    action = FleetAction(
        levels=np.asarray(levels, dtype=np.int64),
        per_server_load=dist.per_server_load,
    )
    return action, problem.evaluate(action)
