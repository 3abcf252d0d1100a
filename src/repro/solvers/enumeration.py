"""Exact vectorized P3 engine for homogeneous fleets.

The paper's simulated data center is homogeneous (216 K Opteron 2380s in 200
groups), and for a homogeneous fleet the slot problem collapses: at an
optimum every *on* server runs at the same speed and carries the same load
(the objective is convex and permutation-symmetric in per-server loads), so
a candidate solution is fully described by the pair

    (M, k)  =  (number of servers on, shared speed level),

with the shared per-server load forced to ``lambda / M``.  On-sets are taken
in group-prefix order, so ``M`` ranges over the ``G`` prefix sums of the
group counts; with equal group sizes this is every multiple of the group
size, i.e. the paper's own group-batching granularity.  All ``(G+1) x K``
candidates are scored in one vectorized pass -- including the ``[.]^+``
kink, switching charges, and arbitrary tariffs, since each candidate's cost
is written in closed form -- and the argmin is exact within the
single-shared-speed family.  This is the engine used for year-long sweeps
(8760 slots run in seconds).

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
slot).  The ablation benchmark ``bench_ablation_solvers`` quantifies the
gap, which is negligible for the paper's server profile (the Opteron curve
makes one speed dominate at any given load).
"""

from __future__ import annotations

import time

import numpy as np

from ..cluster.fleet import ClassRows, FleetAction
from ..cluster.power import LinearTariff, Tariff
from .base import SlotSolution, SlotSolver
from .problem import InfeasibleError, SlotProblem

__all__ = ["HomogeneousEnumerationSolver"]


def _tariff_cost_batch(
    tariff: Tariff, brown: np.ndarray, price: float, feasible: np.ndarray
) -> np.ndarray:
    """Tariff cost over the candidate grid's brown-energy draws.

    ``LinearTariff`` (the common case) is one multiply, bit-identical to
    the scalar ``cost`` per element.  Other tariffs fall back to scalar
    calls (their ``cost`` is scalar Python) on the feasible cells only;
    the rest cost inf.
    """
    if isinstance(tariff, LinearTariff):
        return price * brown
    out = np.full(brown.shape, np.inf)
    out[feasible] = [tariff.cost(float(b), price) for b in brown[feasible]]
    return out


class HomogeneousEnumerationSolver(SlotSolver):
    """Vectorized exact search over (servers-on, shared-speed) candidates.

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

        # The grid is laid out (K, G+1): speed level k by on-set size M[j]
        # (servers in the first j groups, cached on the fleet), so every
        # broadcast runs along the long axis.  Each cell's arithmetic is
        # independent of the layout; the argmin reads the transpose so ties
        # still go to the smallest j, then the smallest k.
        profile = fleet.groups[0].profile
        speeds = profile.speeds[:, None]  # (K, 1)
        M = fleet.prefix_servers  # (G+1,)
        lam = problem.arrival_rate
        slot_h = problem.slot_hours
        # The empty prefix divides by zero and infeasible cells carry
        # inf/nan until the objective masks them: one errstate covers the
        # whole grid.
        with np.errstate(divide="ignore", invalid="ignore"):
            load = lam / M  # per-server load; inf (nan at lam = 0) when M = 0
            # check_feasible's (1 + 1e-12) window: a load at the capped
            # capacity may round a few ulps above gamma * s per server.
            feasible = load <= problem.gamma * (1.0 + 1e-12) * speeds
            if lam <= 0.0:
                feasible[:, 0] = True
                load[0] = 0.0
            if not feasible.any():
                raise InfeasibleError(
                    "no (servers-on, speed) candidate can serve the load"
                )
            if sp:
                now = time.perf_counter()
                sp.add("enum.candidates", now - t_phase)
                t_phase = now

            dyn_coeff = profile.energy_per_request[:, None]  # MW per req/s
            it_power = M * (profile.static_power + dyn_coeff * load)
            # MW/MWh conversion mirrors SlotProblem.evaluate: switching
            # energy enters the power balance divided by the slot length,
            # brown energy is the shortfall times the slot length.
            facility = problem.pue * it_power
            sw_energy = self._switching_energy(problem)
            if sw_energy is not None:
                facility = facility + sw_energy / slot_h
            brown = np.maximum(facility - problem.onsite, 0.0) * slot_h
            e_cost = _tariff_cost_batch(
                problem.tariff, brown, problem.price, feasible
            )
            # With nothing on (j = 0) this is 0 * cost(0) = 0 at lam = 0 and
            # nan otherwise, in a cell that is then infeasible.
            delay_sum = M * problem.delay_model.cost(load, speeds)
            if problem.network_delay > 0.0:
                # Every feasible candidate serves the full arrival rate.
                delay_sum = delay_sum + problem.network_delay * lam
            delay_cost = problem.delay_weight * delay_sum * slot_h
            g_cost = e_cost + delay_cost
            # Optional operational caps (section 3.1).
            if problem.peak_power_cap is not None:
                feasible &= facility <= problem.peak_power_cap * (1 + 1e-12)
            if problem.max_delay_cost is not None:
                feasible &= delay_cost <= problem.max_delay_cost * (1 + 1e-12)
            if not feasible.any():
                raise InfeasibleError(
                    "no candidate satisfies the peak-power/max-delay caps"
                )
            objective = np.where(
                feasible, problem.V * g_cost + problem.q * brown, np.inf
            )
        if sp:
            now = time.perf_counter()
            sp.add("enum.cost_model", now - t_phase)
            t_phase = now

        j, k = divmod(int(objective.T.argmin()), speeds.size)
        G = fleet.num_groups
        levels = np.full(G, -1, dtype=np.int64)
        levels[:j] = k
        if j:
            # The chosen cell as one class row: M_j servers at level k, each
            # carrying lambda / M_j (clipped to the cap it may round a few
            # ulps above).  One profile means profile id 0: class 1 + k.
            n = float(M[j])
            s = float(profile.speeds[k])
            x = min(float(load[j]), problem.gamma * s)
            rows = ClassRows((1 + k,), (n,), (x,))
            it_power = n * (profile.static_power + float(dyn_coeff[k, 0]) * x)
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
                "servers_on": float(M[j]),
                "speed_level": k if j > 0 else -1,
                "candidates": int(feasible.sum()),
            },
        )

    def _switching_energy(self, problem: SlotProblem) -> np.ndarray | None:
        """Switching energy (MWh) of each on-set size from the previous
        slot's on-counts, or None when transitions are not charged inside
        the objective."""
        sw = problem.switching
        prev = problem.prev_on_counts
        if not self.switching_aware or sw is None or not sw.enabled or prev is None:
            return None
        counts = problem.fleet.counts
        turned_on = np.concatenate(
            ([0.0], np.cumsum(np.maximum(counts - prev, 0.0)))
        )
        energy = sw.energy_per_toggle * turned_on
        if sw.charge_off:
            off_tail = np.concatenate(([0.0], np.cumsum(prev[::-1])))[::-1]
            energy = energy + sw.energy_per_toggle * off_tail
        return energy
