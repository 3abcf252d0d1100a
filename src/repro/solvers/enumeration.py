"""Exact P3 engine for homogeneous fleets.

The paper's simulated data center is homogeneous (216 K Opteron 2380s in 200
groups), and for a homogeneous fleet the slot problem collapses: at an
optimum every *on* server runs at the same speed and carries the same load
(the objective is convex and permutation-symmetric in per-server loads), so
a candidate solution is fully described by the pair

    (M, k)  =  (number of servers on, shared speed level),

with the shared per-server load forced to ``lambda / M``.  On-sets are taken
in group-prefix order, so ``M`` ranges over the ``G + 1`` prefix sums of the
group counts; with equal group sizes this is every multiple of the group
size, i.e. the paper's own group-batching granularity.  Failed groups
(:attr:`~repro.solvers.problem.SlotProblem.failed`) stay off: the prefixes
run over the healthy groups in index order.

The engine returns the argmin of that ``(G+1) x K`` cell grid, in the
grid's tie order (fewest servers, then lowest level), without scoring the
grid (THEORY.md section 3).  At a fixed level the feasible cells form an
interval of ``M`` -- the load window and the max-delay cap hold from some
``M`` on, and facility power is convex in ``M`` under the peak-power cap
-- and the objective is convex on it, so bisection finds each edge and
the smallest minimiser.  That needs a convex, nondecreasing tariff
(:class:`~repro.cluster.power.Tariff`) and, when switching is charged
inside the objective, a previous on-set that is a group prefix, which
makes the charge the hinge ``e |M - M_prev|``.  Any other previous on-set
has every feasible cell scanned.  With positive load and delay weight
(:attr:`~repro.solvers.problem.SlotProblem.drops_dominated_levels`) only
:attr:`~repro.cluster.fleet.Fleet.nondominated_levels` are searched: a
level that another beats on speed and on power per request scores
strictly higher at every ``M`` (on the Opteron, one level is left).
Cells are scored by the historical grid's expression, in its order
(``tests/enumeration_oracle.py``), so the choice and ``info`` match it
exactly; ``candidates`` counts the grid's feasible cells from the edges.

The chosen cell is one (profile, level) class row -- ``M`` servers at
level ``k``, each carrying ``lambda / M`` -- and the action carries it as
its :class:`~repro.cluster.fleet.ClassRows`, beside the per-group levels
the next slot's switching charge reads.  Its evaluation is billed from
those three numbers through
:meth:`~repro.solvers.problem.SlotProblem.evaluate_totals`, with the
profile's own power coefficient; it differs from
:meth:`~repro.solvers.problem.SlotProblem.evaluate` of the action only in
rounding.

The one restriction relative to GSD's search space is mixed-speed
configurations (different groups at different positive speeds in the same
slot).  The solver ablation (``repro figure ablation_solvers``) quantifies
the gap, which is negligible for the paper's server profile (the Opteron curve
makes one speed dominate at any given load).
"""

from __future__ import annotations

import time
from bisect import bisect_left

import numpy as np

from ..cluster.fleet import ClassRows, FleetAction
from .base import SlotSolution, SlotSolver
from .problem import InfeasibleError, SlotProblem

__all__ = ["HomogeneousEnumerationSolver"]


def _first(pred, lo: int, hi: int) -> int:
    """Smallest ``j`` in ``[lo, hi]`` with ``pred(j)``, for a ``pred`` that
    is false then true along ``j`` and taken true at ``hi`` (never
    consulted there)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _window_start(M: list[float], lam: float, cap: float) -> int:
    """The fewest prefix groups ``j >= 1`` whose servers carry ``lam`` at
    no more than ``cap`` each (``lam / M[j] <= cap``), ``G + 1`` when none
    do, and ``0`` at zero load.  A bisection on the prefix sizes lands
    within a step of the edge; the predicate itself settles it."""
    if lam <= 0.0:
        return 0
    j = bisect_left(M, lam / cap, 1)
    while j > 1 and lam / M[j - 1] <= cap:
        j -= 1
    while j < len(M) and not lam / M[j] <= cap:
        j += 1
    return j


def _capped(cell, s, c, lo, hi, peak_cap, delay_cap) -> tuple[int, int]:
    """The part ``(lo, hi)`` of a level's non-empty window ``[lo, hi]``
    that meets the caps, from the cells ``cell(j, s, c)`` of speed ``s``
    and dynamic coefficient ``c`` (empty when ``lo > hi``).  The delay
    cost falls with ``j``, so the max-delay cap keeps a suffix; facility
    power is convex in ``j``, so the peak-power cap keeps an interval
    around its minimiser."""
    memo: dict[int, tuple[float, float, float]] = {}

    def score(j):
        out = memo.get(j)
        if out is None:
            out = memo[j] = cell(j, s, c)
        return out

    if delay_cap is not None:
        lo = _first(lambda j: score(j)[1] <= delay_cap, lo, hi + 1)
    if peak_cap is not None and lo <= hi:
        low = _first(lambda j: score(j + 1)[0] >= score(j)[0], lo, hi)
        if score(low)[0] > peak_cap:
            return hi + 1, hi
        lo = _first(lambda j: score(j)[0] <= peak_cap, lo, low)
        hi = _first(lambda j: score(j)[0] > peak_cap, low, hi + 1) - 1
    return lo, hi


def _switching_energies(problem: SlotProblem) -> tuple[list[float], bool]:
    """Switching energy (MWh) of every on-set prefix of the healthy groups
    from their previous on-counts, and whether that previous on-set is a
    prefix (which makes the charge convex in the on-set size).  The
    running sums add in :func:`numpy.cumsum` order."""
    sw = problem.switching
    counts = problem.fleet.counts
    prev = problem.prev_on_counts
    if problem.failed is not None:
        counts, prev = counts[problem.healthy], prev[problem.healthy]
    counts, prev = counts.tolist(), prev.tolist()
    e = sw.energy_per_toggle
    up = 0.0
    turned_on = [0.0]
    for c, p in zip(counts, prev):
        up += max(c - p, 0.0)
        turned_on.append(up)
    energy = [e * u for u in turned_on]
    if sw.charge_off:
        tail = 0.0
        off_tail = [0.0]
        for p in reversed(prev):
            tail += p
            off_tail.append(tail)
        off_tail.reverse()
        energy = [a + e * t for a, t in zip(energy, off_tail)]
    p = 0
    while p < len(prev) and prev[p] == counts[p]:
        p += 1
    return energy, not any(prev[p:])


class HomogeneousEnumerationSolver(SlotSolver):
    """Exact search over (servers-on, shared-speed) candidates.

    Parameters
    ----------
    switching_aware:
        When True and the problem carries a switching model plus previous
        on-counts, transition energy is charged *inside* the objective so
        the solver avoids thrashing; otherwise transitions are only charged
        ex post by the simulator.
    """

    def __init__(self, *, switching_aware: bool = True):
        self.switching_aware = switching_aware

    def solve(self, problem: SlotProblem) -> SlotSolution:
        tele = self.telemetry
        started = time.perf_counter() if tele.enabled else 0.0
        sp = tele.span("enum.solve")
        with sp:
            solution = self._solve(problem, sp)
        if tele.enabled:
            elapsed = time.perf_counter() - started
            tele.metrics.histogram("enum.solve_time_s").observe(elapsed)
            tele.metrics.counter("enum.solves").inc()
        return solution

    def _solve(self, problem: SlotProblem, sp=None) -> SlotSolution:
        fleet = problem.fleet
        if not fleet.is_homogeneous:
            raise ValueError(
                "HomogeneousEnumerationSolver requires a single-profile fleet; "
                "use CoordinateDescentSolver or GSDSolver instead"
            )
        problem.check_feasible()
        t_phase = time.perf_counter() if sp else 0.0

        speeds, coeffs, static = fleet.level_lists  # coeffs in MW per req/s
        # Servers in the first j healthy groups, j = 0..G.
        M = problem.prefix_servers
        G = len(M) - 1
        lam = problem.arrival_rate
        slot_h = problem.slot_hours
        pue, onsite, price, tariff_cost = (
            problem.pue, problem.onsite, problem.price, problem.tariff.cost
        )
        V, q, weight = problem.V, problem.q, problem.delay_weight
        network = problem.network_delay * lam if problem.network_delay > 0.0 else None
        delay_at = problem.delay_model.cost_at
        sw = problem.switching
        charged = (
            self.switching_aware
            and sw is not None
            and sw.enabled
            and problem.prev_on_counts is not None
        )
        sw_energy, convex = _switching_energies(problem) if charged else (None, True)

        def cell(j: int, s: float, c: float) -> tuple[float, float, float]:
            """``(facility power, delay cost, objective)`` of ``M[j]``
            servers at speed ``s`` and dynamic coefficient ``c``.  MW/MWh
            conversion mirrors SlotProblem.evaluate: switching energy
            enters the power balance divided by the slot length, brown
            energy is the shortfall times the slot length."""
            n = M[j]
            load = lam / n if j else 0.0
            facility = pue * (n * (static + c * load))
            if sw_energy is not None:
                facility = facility + sw_energy[j] / slot_h
            brown = max(facility - onsite, 0.0) * slot_h
            delay_sum = n * delay_at(load, s)
            if network is not None:
                # Every feasible candidate serves the full arrival rate.
                delay_sum = delay_sum + network
            delay_cost = weight * delay_sum * slot_h
            return facility, delay_cost, V * (tariff_cost(brown, price) + delay_cost) + q * brown

        # The load window per level, with check_feasible's (1 + 1e-12)
        # slack: a load at the capped capacity may round a few ulps above
        # gamma * s per server.
        window = problem.gamma * (1.0 + 1e-12)
        starts = [_window_start(M, lam, window * s) for s in speeds]
        if min(starts) > G:
            raise InfeasibleError("no (servers-on, speed) candidate can serve the load")

        # Optional operational caps (section 3.1).
        peak_cap = problem.peak_power_cap
        if peak_cap is not None:
            peak_cap = peak_cap * (1 + 1e-12)
        delay_cap = problem.max_delay_cost
        if delay_cap is not None:
            delay_cap = delay_cap * (1 + 1e-12)
        bounds = []
        candidates = 0
        if convex:
            for s, c, lo in zip(speeds, coeffs, starts):
                hi = G
                if (peak_cap is not None or delay_cap is not None) and lo <= hi:
                    lo, hi = _capped(cell, s, c, lo, hi, peak_cap, delay_cap)
                candidates += max(hi - lo + 1, 0)
                bounds.append((lo, hi))
        if sp:
            now = time.perf_counter()
            sp.add("enum.candidates", now - t_phase)
            t_phase = now

        best = None  # (objective, j, k)
        if not convex:
            # A previous on-set that is not a group prefix makes the
            # switching charge non-convex in M: score every feasible cell.
            for k, (s, c, lo) in enumerate(zip(speeds, coeffs, starts)):
                for j in range(lo, G + 1):
                    facility, delay_cost, f = cell(j, s, c)
                    if peak_cap is not None and not facility <= peak_cap:
                        continue
                    if delay_cap is not None and not delay_cost <= delay_cap:
                        continue
                    candidates += 1
                    if best is None or f < best[0] or (f == best[0] and j < best[1]):
                        best = (f, j, k)
        else:
            if problem.drops_dominated_levels:
                searched = fleet.nondominated_levels
            else:
                searched = range(len(speeds))
            for k in searched:
                lo, hi = bounds[k]
                if lo > hi:
                    continue
                s, c = speeds[k], coeffs[k]
                f = {}
                # The smallest minimiser: the first j where f stops falling.
                while lo < hi:
                    mid = (lo + hi) // 2
                    a = f.get(mid)
                    if a is None:
                        a = f[mid] = cell(mid, s, c)[2]
                    b = f.get(mid + 1)
                    if b is None:
                        b = f[mid + 1] = cell(mid + 1, s, c)[2]
                    if b >= a:
                        hi = mid
                    else:
                        lo = mid + 1
                value = f[lo] if lo in f else cell(lo, s, c)[2]
                # Levels ascend, so a tie at equal j keeps the lower level.
                if best is None or value < best[0] or (value == best[0] and lo < best[1]):
                    best = (value, lo, k)
        if best is None:
            raise InfeasibleError("no candidate satisfies the peak-power/max-delay caps")
        if sp:
            now = time.perf_counter()
            sp.add("enum.cost_model", now - t_phase)
            t_phase = now

        _, j, k = best
        # The first j healthy groups: every group below the j-th healthy
        # one, with the failed groups (ascending) held off.
        failed = problem.failed or ()
        end = j
        for g in failed:
            if g >= end:
                break
            end += 1
        levels = np.full(fleet.num_groups, -1, dtype=np.int64)
        levels[:end] = k
        if failed:
            levels.put(failed, -1)
        levels.setflags(write=False)
        if j:
            # The chosen cell as one class row: M_j servers at level k, each
            # carrying lambda / M_j (clipped to the cap it may round a few
            # ulps above).  One profile means profile id 0: class 1 + k.
            n = M[j]
            s = speeds[k]
            x = min(lam / n, problem.gamma * s)
            rows = ClassRows((1 + k,), (n,), (x,))
            it_power = n * (static + coeffs[k] * x)
            delay = n * problem.delay_model.cost_at(x, s)
            served = n * x
        else:
            rows = ClassRows((), (), ())
            it_power = delay = served = 0.0
        action = FleetAction(levels, rows)
        evaluation = problem.evaluate_totals(
            it_power, delay, served, problem.switching_energy(levels)
        )
        if sp:
            sp.add("enum.finalize", time.perf_counter() - t_phase)
        return SlotSolution(
            action=action,
            evaluation=evaluation,
            info={
                "servers_on": M[j],
                "speed_level": k if j > 0 else -1,
                "candidates": candidates,
            },
        )
