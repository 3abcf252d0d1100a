"""The exact engine's slot against its historical kernel.

:class:`HomogeneousEnumerationSolver` bisects the servers-on count on each
speed level no other level dominates, over the interval of on-set sizes
the load window and the caps leave (it scans every feasible cell when the
previous on-set is not a group prefix), and bills the chosen cell as one
class row (M_j servers at level k, each at lambda / M_j).  Every test here
replays seeded random slot problems through the shipped engine and
through :mod:`tests.enumeration_oracle` (the historical full-grid kernel
and its per-group evaluation) and asserts ``==`` on the levels, the
per-server loads (by their bytes) and the ``info`` dict.  Every field of
the :class:`SlotEvaluation` agrees within ``RTOL`` relative: the cell's
bill and the per-group sums differ only in rounding.  Infeasible inputs
must raise the same exception type on both.  A paper-scale COCA week, with
and without failed groups, must pick the oracle's cell on every slot, and
the paper fleet's solve may score only a logarithmic number of cells.

A last group guards the cached tables' lifetime: a failed-group sub-fleet
dies with its slot, and a fleet's pickled bytes do not depend on whether
a solve has touched it.
"""

from __future__ import annotations

import gc
import math
import pickle
import weakref
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.fleet import ClassRows, Fleet, FleetAction, ServerGroup, default_fleet
from repro.cluster.power import PowerModel, TieredTariff
from repro.cluster.queueing import MG1PSDelay, SquaredLoadDelay
from repro.cluster.server import cubic_dvfs_profile, opteron_2380
from repro.cluster.switching import SwitchingCostModel
from repro.core import COCA
from repro.faults import FaultSchedule
from repro.scenarios import paper_scenario
from repro.sim import simulate
from repro.solvers.base import SlotSolver
from repro.solvers.enumeration import HomogeneousEnumerationSolver, _window_start
from repro.solvers.problem import InfeasibleError, SlotProblem
from repro.telemetry import Telemetry
from tests.billing_oracle import group_loads
from tests.enumeration_oracle import oracle_evaluate, oracle_solve
from tests.failed_groups_oracle import solve_with_failed_groups, subset

#: Seeded problems per randomized case.
CASES = 40


def random_fleet(rng: np.random.Generator) -> Fleet:
    """A homogeneous fleet with unequal group sizes."""
    profile = opteron_2380() if rng.random() < 0.5 else cubic_dvfs_profile(
        levels=int(rng.integers(1, 6))
    )
    G = int(rng.integers(1, 13))
    return Fleet(
        [ServerGroup(profile, int(rng.integers(1, 60))) for _ in range(G)]
    )


def random_problem(rng: np.random.Generator, fleet: Fleet | None = None, **kw):
    fleet = random_fleet(rng) if fleet is None else fleet
    gamma = float(rng.uniform(0.5, 0.98))
    lam = float(rng.uniform(0.0, 1.0)) * gamma * fleet.max_capacity
    args = dict(
        fleet=fleet,
        arrival_rate=lam,
        onsite=float(rng.uniform(0.0, 1.2)) * fleet.max_power,
        price=float(rng.uniform(0.0, 120.0)),
        q=float(rng.choice([0.0, rng.uniform(0.0, 500.0)])),
        V=float(rng.uniform(0.1, 300.0)),
        beta=float(rng.uniform(0.0, 20.0)),
        gamma=gamma,
    )
    args.update(kw)
    return SlotProblem(**args)


#: Relative tolerance between the engine's one-row bill of its chosen cell
#: and the oracle's per-group evaluation of the same action.
RTOL = 1e-12


def bits(evaluation) -> list[str]:
    return [float(v).hex() for v in astuple(evaluation)]


def outcome(solve, problem):
    """A solve's full result, or the type of what it raised."""
    try:
        sol = solve(problem)
    except (InfeasibleError, ValueError) as exc:
        return type(exc)
    return (
        sol.action.levels.tolist(),
        group_loads(problem.fleet, sol.action).tobytes(),
        sol.info,
        astuple(sol.evaluation),
    )


def assert_same(problem, *, switching_aware=True):
    engine = HomogeneousEnumerationSolver(switching_aware=switching_aware)
    got = outcome(engine.solve, problem)
    want = outcome(
        lambda p: oracle_solve(p, switching_aware=switching_aware), problem
    )
    if isinstance(got, type) or isinstance(want, type):
        assert got == want
        return got
    assert got[:3] == want[:3]
    assert got[3] == pytest.approx(want[3], rel=RTOL, abs=0.0)
    return got


def prev_on(rng, fleet):
    return np.where(rng.random(fleet.num_groups) < 0.5, fleet.counts, 0.0)


class TestKernelMatchesOracle:
    def test_plain(self, rng):
        for _ in range(CASES):
            assert_same(random_problem(rng))

    @pytest.mark.parametrize("charge_off", [False, True])
    @pytest.mark.parametrize("aware", [True, False])
    def test_switching(self, rng, charge_off, aware):
        for _ in range(CASES):
            fleet = random_fleet(rng)
            sw = SwitchingCostModel(
                energy_per_toggle=float(rng.uniform(1e-6, 1e-3)),
                charge_off=charge_off,
            )
            problem = random_problem(
                rng, fleet, switching=sw, prev_on_counts=prev_on(rng, fleet)
            )
            assert_same(problem, switching_aware=aware)

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("charge_off", [False, True])
    def test_switching_from_prefix(self, rng, charge_off, capped):
        """A previous on-set that is a group prefix makes the switching
        charge the convex hinge the bisection relies on; with a peak cap
        the facility power is convex rather than rising in M."""
        for _ in range(CASES):
            fleet = random_fleet(rng)
            sw = SwitchingCostModel(
                energy_per_toggle=float(rng.uniform(1e-6, 1e-3)),
                charge_off=charge_off,
            )
            p = int(rng.integers(0, fleet.num_groups + 1))
            prev = np.where(np.arange(fleet.num_groups) < p, fleet.counts, 0.0)
            cap = {}
            if capped:
                cap["peak_power_cap"] = float(rng.uniform(0.05, 1.5)) * fleet.max_power
            problem = random_problem(
                rng, fleet, switching=sw, prev_on_counts=prev, **cap
            )
            assert_same(problem)

    def test_switching_scan_with_caps(self, rng):
        """A previous on-set that is not a group prefix has every feasible
        cell scanned; the caps are checked cell by cell there."""
        for _ in range(CASES):
            fleet = random_fleet(rng)
            sw = SwitchingCostModel(energy_per_toggle=float(rng.uniform(1e-6, 1e-3)))
            problem = random_problem(
                rng, fleet, switching=sw, prev_on_counts=prev_on(rng, fleet),
                peak_power_cap=float(rng.uniform(0.2, 1.5)) * fleet.max_power,
                max_delay_cost=float(rng.uniform(0.0, 0.5)),
            )
            assert_same(problem)

    def test_peak_power_and_max_delay_caps(self, rng):
        raised = solved = 0
        for _ in range(CASES):
            fleet = random_fleet(rng)
            cap = {}
            if rng.random() < 0.7:
                cap["peak_power_cap"] = float(rng.uniform(0.2, 1.5)) * fleet.max_power
            if rng.random() < 0.7:
                cap["max_delay_cost"] = float(rng.uniform(0.0, 0.5))
            got = assert_same(random_problem(rng, fleet, **cap))
            raised += got is InfeasibleError
            solved += got is not InfeasibleError
        assert raised and solved  # both branches exercised

    def test_network_delay_and_pue_override(self, rng):
        for _ in range(CASES):
            problem = random_problem(
                rng,
                network_delay=float(rng.uniform(0.0, 0.05)),
                pue_override=float(rng.uniform(1.0, 2.0)),
                power_model=PowerModel(pue=float(rng.uniform(1.0, 1.6))),
            )
            assert_same(problem)
            # The network term counts against the delay cap too.
            capped = replace(problem, max_delay_cost=float(rng.uniform(0.0, 0.5)))
            assert_same(capped)

    @pytest.mark.parametrize("slot_hours", [0.25, 1.5, 24.0])
    def test_slot_hours(self, rng, slot_hours):
        for _ in range(CASES):
            fleet = random_fleet(rng)
            sw = SwitchingCostModel(energy_per_toggle=1e-4, charge_off=True)
            problem = random_problem(
                rng, fleet, slot_hours=slot_hours, switching=sw,
                prev_on_counts=prev_on(rng, fleet),
            )
            assert_same(problem)

    def test_tiered_tariff_and_squared_delay(self, rng):
        tariff = TieredTariff(thresholds=(0.001, 0.004), multipliers=(1.0, 1.5, 3.0))
        for _ in range(CASES):
            assert_same(random_problem(rng, tariff=tariff))
            assert_same(random_problem(rng, delay_model=SquaredLoadDelay()))
            assert_same(
                random_problem(rng, tariff=tariff, delay_model=SquaredLoadDelay())
            )

    @pytest.mark.parametrize("charge_off", [False, True])
    def test_zero_arrival(self, rng, charge_off):
        for _ in range(CASES // 4):
            fleet = random_fleet(rng)
            sw = SwitchingCostModel(energy_per_toggle=1e-4, charge_off=charge_off)
            assert_same(random_problem(rng, fleet, arrival_rate=0.0))
            problem = random_problem(
                rng, fleet, arrival_rate=0.0, switching=sw,
                prev_on_counts=prev_on(rng, fleet),
            )
            assert_same(problem)
            assert_same(replace(problem, peak_power_cap=0.5 * fleet.max_power))

    def test_ties_go_to_fewest_groups_then_lowest_level(self, rng):
        """With no price, delay weight or queue every feasible cell scores
        zero: the argmin must still pick the first in (j, k) order."""
        for _ in range(CASES // 4):
            problem = random_problem(rng, price=0.0, beta=0.0, q=0.0)
            got = assert_same(problem)
            if problem.arrival_rate > 0.0:
                assert got[2]["servers_on"] > 0.0

    def test_infeasible_inputs_raise_alike(self, rng, hetero_fleet):
        fleet = random_fleet(rng)
        over = random_problem(rng, fleet, arrival_rate=1.01 * fleet.max_capacity)
        assert assert_same(over) is InfeasibleError
        # Beyond check_feasible's 1e-12 window: no candidate serves it.
        edge = random_problem(
            rng, fleet, gamma=0.9, arrival_rate=0.9 * fleet.max_capacity * (1 + 1e-11)
        )
        assert assert_same(edge) is InfeasibleError
        # Inside the window both engines serve it with every load at its cap.
        inside = random_problem(
            rng, fleet, gamma=0.9, arrival_rate=0.9 * fleet.max_capacity * (1 + 5e-13)
        )
        loads = np.frombuffer(assert_same(inside)[1])
        assert np.all(loads == 0.9 * fleet.groups[0].profile.speeds[-1])
        capped = random_problem(rng, fleet, peak_power_cap=1e-9)
        assert assert_same(capped) is InfeasibleError
        mixed = random_problem(rng, hetero_fleet, arrival_rate=1.0)
        assert assert_same(mixed) is ValueError

    def test_subset_sub_fleets(self, rng):
        for _ in range(CASES):
            fleet = random_fleet(rng)
            keep = np.flatnonzero(rng.random(fleet.num_groups) < 0.6)
            if keep.size == 0:
                keep = np.array([0])
            sub = subset(fleet, rng.permutation(keep))
            assert_same(random_problem(rng, sub))

    def test_evaluate_on_any_action(self, rng):
        """The shipped evaluate (one pass over the class rows) matches the
        historical per-group one within 1e-12 relative beyond the engine's
        prefix-shaped actions: random levels, zero-load classes, all-off,
        saturated servers.  Fields past the ``[.]^+`` kink are held to the
        slot's facility draw."""
        for _ in range(CASES):
            fleet = random_fleet(rng)
            problem = random_problem(
                rng, fleet, network_delay=float(rng.choice([0.0, 0.01]))
            )
            if rng.random() < 0.3:
                problem = replace(problem, delay_model=SquaredLoadDelay())
            levels = rng.integers(-1, fleet.num_levels)
            if rng.random() < 0.1:
                levels[:] = -1
            share = rng.uniform(0.0, 1.05, fleet.num_classes)
            share[rng.random(fleet.num_classes) < 0.2] = 0.0
            load = fleet.class_speed * share
            action = FleetAction(levels, ClassRows.of(fleet, levels, load))
            got = problem.evaluate(action)
            want = oracle_evaluate(problem, levels, group_loads(fleet, action))
            draw = want.facility_power * problem.slot_hours
            scales = {"brown_energy": draw, "electricity_cost": problem.tariff.cost(draw, problem.price)}
            for name in ("it_power", "facility_power", "delay_sum", "delay_cost",
                         "switching_energy", "brown_energy", "electricity_cost"):
                a, b = getattr(got, name), getattr(want, name)
                if math.isinf(b):
                    assert a == b, name
                else:
                    assert abs(a - b) <= 1e-12 * max(abs(b), scales.get(name, 0.0)), name


class CountingDelay(MG1PSDelay):
    """The paper's delay model, counting the (load, speed) elements it is
    asked to score, array or scalar."""

    def __init__(self):
        object.__setattr__(self, "scored", 0)

    def cost(self, load, speed):
        out = super().cost(load, speed)
        object.__setattr__(self, "scored", self.scored + int(np.size(out)))
        return out

    def cost_at(self, load, speed):
        object.__setattr__(self, "scored", self.scored + 1)
        return super().cost_at(load, speed)


class TestSearchCost:
    def test_paper_fleet_scores_a_logarithmic_number_of_cells(self, rng):
        """On the 200-group Opteron fleet only the top level is searched,
        and a bisection over 201 on-set sizes scores two cells a step; the
        finalize bills one more.  The full grid scores 4 x 201."""
        fleet = default_fleet()
        bound = 2 * math.ceil(math.log2(fleet.num_groups + 1)) + 2
        engine = HomogeneousEnumerationSolver()
        for _ in range(CASES):
            counting = CountingDelay()
            problem = random_problem(
                rng, fleet, delay_model=counting, beta=float(rng.uniform(0.1, 20.0))
            )
            got = engine.solve(problem)
            assert 0 < counting.scored <= bound
            want = oracle_solve(replace(problem, delay_model=MG1PSDelay()))
            assert got.info == want.info

    def test_window_start_settles_rounding_at_the_edge(self, rng):
        """The load window's edge from a bisection on the prefix sizes
        equals the first prefix the predicate admits, also when the load
        sits within a few ulps of a prefix's capped capacity."""
        for _ in range(2000):
            counts = rng.integers(1, 2000, int(rng.integers(1, 30))).astype(float)
            M = [0.0, *np.cumsum(counts).tolist()]
            cap = float(rng.uniform(0.1, 10.0))
            lam = M[int(rng.integers(1, len(M)))] * cap
            toward = np.inf if rng.random() < 0.5 else 0.0
            for _ in range(int(rng.integers(0, 4))):
                lam = float(np.nextafter(lam, toward))
            want = next(
                (j for j in range(1, len(M)) if lam / M[j] <= cap), len(M)
            )
            assert _window_start(M, lam, cap) == want
        assert _window_start([0.0, 5.0], 0.0, 1.0) == 0
        assert _window_start([0.0, 5.0], 6.0, 1.0) == 2


class _OracleProbe(SlotSolver):
    """Solves with the exact engine and checks every slot's cell against
    the historical kernel, run on the survivors' sub-fleet when groups
    are down."""

    def __init__(self):
        self.inner = HomogeneousEnumerationSolver()
        self.groups: list[int] = []

    def solve(self, problem):
        solution = self.inner.solve(problem)
        kernel = SimpleNamespace(solve=oracle_solve)
        want = solve_with_failed_groups(
            kernel, replace(problem, failed=None), problem.failed or ()
        )
        cell = ("servers_on", "speed_level")
        assert [solution.info[k] for k in cell] == [want.info[k] for k in cell]
        self.groups.append(problem.healthy.size)
        return solution


class TestCocaWeek:
    @pytest.mark.parametrize("faults", [False, True])
    def test_paper_week_picks_the_oracle_cell(self, faults):
        sc = paper_scenario(horizon=168)
        schedule = None
        if faults:
            schedule = FaultSchedule.generate(
                17, horizon=sc.horizon, num_groups=sc.model.fleet.num_groups,
                failure_rate=0.05, mean_repair=6.0,
            )
        probe = _OracleProbe()
        simulate(
            sc.model,
            COCA(sc.model, sc.environment.portfolio, v_schedule=50.0, solver=probe),
            sc.environment,
            faults=schedule,
        )
        assert len(probe.groups) >= sc.horizon
        full = sc.model.fleet.num_groups
        # With faults, slots with a group down solve on the survivors.
        assert (min(probe.groups) < full) == faults


class _FleetProbe(SlotSolver):
    """Delegates to the exact engine and keeps only weak references to the
    fleets it was asked to solve on."""

    def __init__(self):
        self.inner = HomogeneousEnumerationSolver()
        self.fleets: list[weakref.ref] = []
        self.built: list[bool] = []

    def solve(self, problem):
        solution = self.inner.solve(problem)
        self.fleets.append(weakref.ref(problem.fleet))
        self.built.append("prefix_servers" in vars(problem.fleet))
        return solution


class TestTableLifetime:
    def test_failed_group_sub_fleet_dies_with_its_slot(self):
        fleet = Fleet([ServerGroup(opteron_2380(), 20) for _ in range(6)])
        problem = SlotProblem(
            fleet=fleet, arrival_rate=0.3 * fleet.max_capacity,
            onsite=0.0, price=40.0, q=5.0, V=50.0,
        )
        probe = _FleetProbe()
        solution = solve_with_failed_groups(probe, problem, [1, 4])
        assert solution.action.levels[[1, 4]].tolist() == [-1, -1]
        (ref,) = probe.fleets
        assert probe.built == [True]  # the solve did build the table
        gc.collect()
        assert ref() is None

    def test_pickled_bytes_unchanged_by_a_solve(self):
        fleet = Fleet([ServerGroup(opteron_2380(), n) for n in (10, 20, 30)])
        sub = subset(fleet, [2, 0])
        before = pickle.dumps(fleet), pickle.dumps(sub)
        engine = HomogeneousEnumerationSolver()
        for f in (fleet, sub):
            engine.solve(
                SlotProblem(
                    fleet=f, arrival_rate=0.4 * f.max_capacity,
                    onsite=0.0, price=40.0, q=1.0, V=10.0,
                )
            )
            assert "prefix_servers" in vars(f)
        assert (pickle.dumps(fleet), pickle.dumps(sub)) == before
        assert pickle.dumps(Fleet(fleet.groups)) == before[0]


class TestSpans:
    def test_enum_solve_records_its_phases(self):
        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(4)])
        engine = HomogeneousEnumerationSolver()
        tele = Telemetry.recording()
        engine.bind_telemetry(tele)
        engine.solve(
            SlotProblem(
                fleet=fleet, arrival_rate=0.5 * fleet.max_capacity,
                onsite=0.0, price=40.0,
            )
        )
        (event,) = [
            e for e in tele.tracer.events
            if e["kind"] == "span" and e["name"] == "enum.solve"
        ]
        children = event["children"]
        assert set(children) == {"enum.candidates", "enum.cost_model", "enum.finalize"}
        assert all(count == 1 for count, _seconds in children.values())
