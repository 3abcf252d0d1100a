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

The one restriction relative to GSD's search space is mixed-speed
configurations (different groups at different positive speeds in the same
slot).  The ablation benchmark ``bench_ablation_solvers`` quantifies the
gap, which is negligible for the paper's server profile (the Opteron curve
makes one speed dominate at any given load).
"""

from __future__ import annotations

import time

import numpy as np

from ..cluster.fleet import FleetAction
from ..cluster.power import LinearTariff, Tariff
from .base import SlotSolution, SlotSolver
from .problem import InfeasibleError, SlotProblem

__all__ = ["HomogeneousEnumerationSolver"]


def _tariff_cost_batch(
    tariff: Tariff, brown: np.ndarray, price: float
) -> np.ndarray:
    """Tariff cost over an array of brown-energy draws.

    ``LinearTariff`` (the common case) is one multiply, bit-identical to
    the scalar ``cost`` per element; other tariffs fall back to elementwise
    scalar calls (their ``cost`` is scalar Python), skipping non-finite
    entries.  Scores the enumeration engine's candidate grid.
    """
    brown = np.asarray(brown, dtype=np.float64)
    if isinstance(tariff, LinearTariff):
        # Candidate grids carry inf/nan placeholders (infeasible rows);
        # 0 * inf raises "invalid value" without changing any entry.
        with np.errstate(invalid="ignore"):
            return price * brown
    out = np.full(brown.shape, np.inf)
    finite = np.isfinite(brown)
    flat = brown[finite]
    out[finite] = [tariff.cost(float(b), price) for b in flat]
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

        profile = fleet.groups[0].profile
        speeds = profile.speeds  # (K,)
        dyn_coeff = profile.energy_per_request  # (K,) MW per req/s
        counts = fleet.counts  # (G,)
        G, K = fleet.num_groups, speeds.size
        lam = problem.arrival_rate
        pue = problem.pue

        # Candidate on-set sizes: prefix sums, j groups on (j = 0..G).
        prefix = np.concatenate(([0.0], np.cumsum(counts)))  # (G+1,)
        M = prefix[:, None]  # (G+1, 1) servers on
        with np.errstate(divide="ignore", invalid="ignore"):
            load = np.where(M > 0, lam / M, np.inf)  # per-server load
        load = np.broadcast_to(load, (G + 1, K)).copy()

        feasible = load <= problem.gamma * speeds[None, :]
        if lam <= 0.0:
            feasible[0, :] = True
            load[0, :] = 0.0
        if not feasible.any():
            raise InfeasibleError("no (servers-on, speed) candidate can serve the load")
        if sp:
            now = time.perf_counter()
            sp.add("enum.candidates", now - t_phase)
            t_phase = now

        with np.errstate(invalid="ignore"):
            it_power = M * (profile.static_power + dyn_coeff[None, :] * load)
        it_power = np.where(feasible, it_power, np.inf)

        # Switching energy per candidate (depends only on the prefix size).
        sw_energy = np.zeros(G + 1)
        if (
            self.switching_aware
            and problem.switching is not None
            and problem.switching.enabled
            and problem.prev_on_counts is not None
        ):
            prev = problem.prev_on_counts
            turned_on = np.concatenate(
                ([0.0], np.cumsum(np.maximum(counts - prev, 0.0)))
            )
            sw_energy = problem.switching.energy_per_toggle * turned_on
            if problem.switching.charge_off:
                off_tail = np.concatenate(([0.0], np.cumsum(prev[::-1])))[::-1]
                sw_energy = sw_energy + problem.switching.energy_per_toggle * off_tail

        # MW/MWh conversion mirrors SlotProblem.evaluate: switching energy
        # enters the power balance divided by the slot length, brown energy
        # is the shortfall times the slot length.
        slot_h = problem.slot_hours
        facility = pue * it_power + sw_energy[:, None] / slot_h
        brown = np.maximum(facility - problem.onsite, 0.0) * slot_h
        e_cost = _tariff_cost_batch(problem.tariff, brown, problem.price)
        with np.errstate(invalid="ignore"):
            delay_sum = M * problem.delay_model.cost(load, speeds[None, :])
            delay_sum = np.where(M > 0, delay_sum, 0.0)
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

        j, k = np.unravel_index(int(np.argmin(objective)), objective.shape)
        levels = np.where(np.arange(G) < j, k, -1).astype(np.int64)
        per_server = np.where(np.arange(G) < j, load[j, k], 0.0)
        action = FleetAction(levels=levels, per_server_load=per_server)
        evaluation = problem.evaluate(action)
        if sp:
            sp.add("enum.finalize", time.perf_counter() - t_phase)
        return SlotSolution(
            action=action,
            evaluation=evaluation,
            info={
                "servers_on": float(M[j, 0]),
                "speed_level": int(k) if j > 0 else -1,
                "candidates": int(feasible.sum()),
            },
        )
