"""Tests for the shared solver fast path (:mod:`repro.solvers.fastpath`).

Three exactness contracts are pinned here:

- cold cache-on and cache-off runs of every engine return
  **bit-identical** solutions (the memo cache, class-histogram memo and
  delta screen are exact by construction); GSD's shipped default (cache +
  warm starts) stays within 1e-9 of the cold chain;
- the early-exit bisections return exactly what the historical fixed-count
  loops return (flip ``_EARLY_EXIT`` and compare bytes);
- warm-started inner solves match cold ones to <= 1e-9 relative objective
  error, in every regime of the ``[.]^+`` kink.

Plus the slot-length unit fix: switching *energy* (MWh) enters facility
*power* (MW) divided by ``slot_hours``, pinned at a non-unit slot length.
"""

import dataclasses

import numpy as np
import pytest

import repro.solvers.load_distribution as ld
from repro.cluster import (
    Fleet,
    FleetAction,
    ServerGroup,
    cubic_dvfs_profile,
    opteron_2380,
)
from repro.cluster.switching import SwitchingCostModel
from repro.core import DataCenterModel
from repro.solvers import (
    BruteForceSolver,
    CoordinateDescentSolver,
    EvaluationCache,
    GSDSolver,
    HomogeneousEnumerationSolver,
    InfeasibleError,
    distribute_load,
)
from tests.conftest import make_problem


def cold_objective(problem, levels):
    """The historical inline scoring path: cold solve, no cache."""
    try:
        dist = distribute_load(problem, np.asarray(levels, dtype=np.int64))
    except InfeasibleError:
        return np.inf
    action = FleetAction(
        levels=np.asarray(levels, dtype=np.int64),
        per_server_load=dist.per_server_load,
    )
    evaluation = problem.evaluate(action)
    if problem.violates_caps(evaluation):
        return np.inf
    return evaluation.objective


@pytest.fixture(scope="module")
def wide_model():
    """40 mixed-profile groups: one group flip is a small perturbation, the
    regime the warm-start bracket is sized for."""
    groups = [ServerGroup(opteron_2380(), 27) for _ in range(20)] + [
        ServerGroup(cubic_dvfs_profile(), 27) for _ in range(20)
    ]
    return DataCenterModel(fleet=Fleet(groups), beta=10.0)


def mixed_levels(model):
    """A level vector with *distinct* speeds across groups, so billed and
    free distributions differ (a uniform homogeneous configuration is
    regime-degenerate: the uniform split is optimal under any weight)."""
    top = (model.fleet.num_levels - 1).astype(np.int64)
    return np.maximum(top - (np.arange(top.size) % 3), 0).astype(np.int64)


def boundary_problem(model, levels, *, lam_frac=0.5, q=5.0):
    """A problem whose optimal distribution at ``levels`` sits in the
    *boundary* regime: onsite strictly between billed and free facility
    power.  ``lam_frac`` is relative to the on-set's capacity at ``levels``
    so high fractions stay feasible on down-clocked configurations."""
    fleet = model.fleet
    on = np.nonzero(levels >= 0)[0]
    cap = model.gamma * float(
        np.sum(fleet.counts[on] * fleet.speed_table[on, levels[on]])
    )
    p = dataclasses.replace(
        make_problem(model, lam_frac=0.5, onsite=0.0, q=q),
        arrival_rate=lam_frac * cap,
    )

    def fac(problem):
        dist = distribute_load(problem, levels)
        action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
        return problem.evaluate(action).facility_power

    billed = fac(p)
    free = fac(dataclasses.replace(p, onsite=1e9))
    assert free > billed, "mixed levels must spread load when electricity is free"
    return dataclasses.replace(p, onsite=0.5 * (billed + free))


# ---------------------------------------------------------------------------
# Bit-identity: cache on vs cache off
# ---------------------------------------------------------------------------
class TestCacheBitIdentity:
    def _assert_identical(self, a, b):
        assert np.array_equal(a.action.levels, b.action.levels)
        assert a.action.per_server_load.tobytes() == b.action.per_server_load.tobytes()
        assert a.objective == b.objective  # exact, not approx

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    def test_gsd(self, request, model_name):
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.55, onsite=0.2, q=3.0)
        sols = [
            GSDSolver(
                iterations=150,
                rng=np.random.default_rng(11),
                use_cache=flag,
                warm_start=False,
            ).solve(p)
            for flag in (True, False)
        ]
        self._assert_identical(*sols)

    @pytest.mark.parametrize("model_name", ["hetero_model", "wide_model"])
    def test_gsd_shipped_default_within_contract(self, request, model_name):
        """GSD's default (cache + warm starts) against the cold cache-off
        chain: the same decisions, objective within 1e-9."""
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.55, onsite=0.2, q=3.0)
        shipped = GSDSolver(iterations=150, rng=np.random.default_rng(11)).solve(p)
        cold = GSDSolver(
            iterations=150, rng=np.random.default_rng(11), use_cache=False
        ).solve(p)
        assert np.array_equal(shipped.action.levels, cold.action.levels)
        assert shipped.objective == pytest.approx(cold.objective, rel=1e-9)

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    def test_coordinate_descent(self, request, model_name):
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.4, onsite=0.1, q=2.0)
        sols = [
            CoordinateDescentSolver(
                restarts=3, rng=np.random.default_rng(5), use_cache=flag
            ).solve(p)
            for flag in (True, False)
        ]
        self._assert_identical(*sols)

    def test_brute_force(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.45, q=1.0)
        sols = [BruteForceSolver(use_cache=flag).solve(p) for flag in (True, False)]
        self._assert_identical(*sols)
        # The `evaluated` info key keeps its historical meaning.
        assert (
            sols[0].info["configs_feasible"] > 0
            and sols[0].info["configs_total"] == sols[1].info["configs_total"]
        )

    def test_brute_force_with_caps(self, tiny_model):
        base = make_problem(tiny_model, lam_frac=0.5, q=2.0)
        unbounded = BruteForceSolver().solve(base)
        p = dataclasses.replace(
            base,
            peak_power_cap=1.05 * unbounded.evaluation.facility_power,
            max_delay_cost=2.0 * unbounded.evaluation.delay_cost,
        )
        sols = [BruteForceSolver(use_cache=flag).solve(p) for flag in (True, False)]
        self._assert_identical(*sols)

    def test_gsd_under_peak_power_cap(self, tiny_model):
        base = make_problem(tiny_model, lam_frac=0.5, q=2.0)
        unbounded = BruteForceSolver().solve(base)
        p = dataclasses.replace(
            base, peak_power_cap=1.05 * unbounded.evaluation.facility_power
        )
        sols = [
            GSDSolver(
                iterations=150,
                rng=np.random.default_rng(3),
                use_cache=flag,
                warm_start=False,
            ).solve(p)
            for flag in (True, False)
        ]
        self._assert_identical(*sols)

    def test_warm_start_requires_cache(self):
        with pytest.raises(ValueError):
            GSDSolver(use_cache=False, warm_start=True)
        with pytest.raises(ValueError):
            CoordinateDescentSolver(use_cache=False, warm_start=True)
        with pytest.raises(ValueError):
            BruteForceSolver(use_cache=False, warm_start=True)


# ---------------------------------------------------------------------------
# Evaluation cache correctness against the historical scoring path
# ---------------------------------------------------------------------------
class TestEvaluationCache:
    def test_random_walk_matches_cold_path(self, hetero_model, rng):
        """A GSD-like random walk of single-group flips: every query must
        match the historical cold computation -- the same verdict on every
        screened-out and cap-violating candidate, and the same objective up
        to summation order (the cache sums class rows, the cold path
        groups: <= 1e-12 relative)."""
        base = make_problem(hetero_model, lam_frac=0.6, onsite=0.1, q=2.0)
        unbounded = BruteForceSolver().solve(base)
        p = dataclasses.replace(
            base, peak_power_cap=1.2 * unbounded.evaluation.facility_power
        )
        fleet = p.fleet
        cache = EvaluationCache(p)
        levels = (fleet.num_levels - 1).astype(np.int64)
        cache.note_all()
        for _ in range(300):
            g = int(rng.integers(0, fleet.num_groups))
            levels[g] = int(rng.integers(-1, fleet.num_levels[g]))
            cache.note_changed(g)
            got = cache.objective_of(levels)
            expected = cold_objective(p, levels)
            assert np.isinf(got) == np.isinf(expected)
            if np.isfinite(expected):
                assert got == pytest.approx(expected, rel=1e-12)
            if rng.random() < 0.3:  # occasional revert, as engines do
                old = levels[g]
                levels[g] = -1 if old != -1 else 0
                cache.note_changed(g)
        stats = cache.stats
        assert stats.evaluations == (
            stats.cold_solves
            + stats.warm_solves
            + stats.cache_hits
            + stats.histogram_hits
            + stats.screened_infeasible
            + stats.infeasible
        )
        assert stats.cache_hits > 0  # the tiny lattice guarantees revisits

    def test_screen_rejects_undercapacity_onsets(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.9)
        cache = EvaluationCache(p)
        levels = np.array([3, -1, -1], dtype=np.int64)  # cannot carry 90%
        assert cache.objective_of(levels) == np.inf
        assert cache.stats.screened_infeasible == 1
        assert cache.stats.inner_solves == 0
        # The all-off set is screened too.
        assert cache.objective_of(np.full(3, -1, dtype=np.int64)) == np.inf
        assert cache.stats.screened_infeasible == 2

    def test_solution_for_reuses_cached_solve(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        cache = EvaluationCache(p)
        levels = (p.fleet.num_levels - 1).astype(np.int64)
        obj = cache.objective_of(levels)
        solves_before = cache.stats.inner_solves
        action, evaluation = cache.solution_for(levels)
        assert cache.stats.inner_solves == solves_before
        assert evaluation.objective == obj
        dist = distribute_load(p, levels)
        assert action.per_server_load.tobytes() == dist.per_server_load.tobytes()

    def test_gsd_counters_add_up(self, tiny_model, wide_model):
        p = make_problem(tiny_model, lam_frac=0.55, q=2.0)
        sol = GSDSolver(
            iterations=400, rng=np.random.default_rng(2), warm_start=True
        ).solve(p)
        fp = sol.info["fastpath"]
        assert sol.info["evaluations"] <= fp["evaluations"]
        assert fp["inner_solves"] == fp["cold_solves"] + fp["warm_starts"]
        assert fp["cache_hits"] > 0  # 3-group lattice: proposals repeat
        # Three identical groups: a new vector often repeats a histogram.
        assert fp["histogram_hits"] > 0
        # On 3 groups each new histogram moves a third of the fleet, too far
        # for the hint bracket; the 40-group fleet's flips move 1/40th.
        p = make_problem(wide_model, lam_frac=0.55, q=2.0)
        fp = GSDSolver(iterations=200, rng=np.random.default_rng(2)).solve(p).info[
            "fastpath"
        ]
        assert fp["warm_starts"] > 0
        assert fp["inner_solves"] == fp["cold_solves"] + fp["warm_starts"]
        assert sol.info["inner_solves"] < sol.info["evaluations"]


# ---------------------------------------------------------------------------
# Early exit is exact
# ---------------------------------------------------------------------------
class TestEarlyExitExact:
    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    @pytest.mark.parametrize("lam_frac", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("regime", ["billed", "free", "boundary"])
    def test_bit_identical_to_fixed_count(
        self, request, monkeypatch, model_name, lam_frac, regime
    ):
        model = request.getfixturevalue(model_name)
        if regime == "billed":
            p = make_problem(model, lam_frac=lam_frac, onsite=0.0, q=5.0)
            levels = (model.fleet.num_levels - 1).astype(np.int64)
        elif regime == "free":
            p = make_problem(model, lam_frac=lam_frac, onsite=1e9, q=5.0)
            levels = (model.fleet.num_levels - 1).astype(np.int64)
        else:
            levels = mixed_levels(model)
            p = boundary_problem(model, levels, lam_frac=lam_frac)

        fast = distribute_load(p, levels)
        monkeypatch.setattr(ld, "_EARLY_EXIT", False)
        slow = distribute_load(p, levels)

        assert fast.regime == slow.regime
        assert fast.per_server_load.tobytes() == slow.per_server_load.tobytes()
        assert fast.nu == slow.nu
        assert fast.electricity_weight == slow.electricity_weight
        assert fast.inner_iters <= slow.inner_iters

    def test_early_exit_saves_iterations(self, tiny_model, monkeypatch):
        p = make_problem(tiny_model, lam_frac=0.5, q=3.0)
        levels = np.full(3, 3, dtype=np.int64)
        fast = distribute_load(p, levels)
        monkeypatch.setattr(ld, "_EARLY_EXIT", False)
        slow = distribute_load(p, levels)
        assert fast.inner_iters < slow.inner_iters


# ---------------------------------------------------------------------------
# Warm starts: <= 1e-9 relative objective error vs cold
# ---------------------------------------------------------------------------
class TestWarmStart:
    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model", "wide_model"])
    @pytest.mark.parametrize("regime", ["billed", "free", "boundary"])
    def test_neighbor_hint_objective_error(self, request, model_name, regime):
        model = request.getfixturevalue(model_name)
        if regime == "billed":
            p = make_problem(model, lam_frac=0.6, onsite=0.0, q=5.0)
            base = (model.fleet.num_levels - 1).astype(np.int64)
        elif regime == "free":
            p = make_problem(model, lam_frac=0.6, onsite=1e9, q=5.0)
            base = (model.fleet.num_levels - 1).astype(np.int64)
        else:
            base = mixed_levels(model)
            p = boundary_problem(model, base, lam_frac=0.6)
        hint = distribute_load(p, base)

        def objective(levels, dist):
            action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
            return p.evaluate(action).objective

        for g in range(min(model.fleet.num_groups, 12)):
            for delta_level in (1, 2):
                neighbor = base.copy()
                neighbor[g] = max(0, int(base[g]) - delta_level)
                try:
                    cold = distribute_load(p, neighbor)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        distribute_load(p, neighbor, hint=hint)
                    continue
                warm = distribute_load(p, neighbor, hint=hint)
                co = objective(neighbor, cold)
                wo = objective(neighbor, warm)
                assert abs(wo - co) <= 1e-9 * max(abs(co), 1.0)
                assert warm.regime == cold.regime

    def test_warm_start_used_on_chain_neighbors(self, wide_model):
        """The GSD-sized step (one group flipped on a wide fleet) must
        actually validate the warm bracket, not silently fall back cold."""
        p = make_problem(wide_model, lam_frac=0.6, onsite=0.0, q=5.0)
        top = (wide_model.fleet.num_levels - 1).astype(np.int64)
        hint = distribute_load(p, top)
        neighbor = top.copy()
        neighbor[0] = int(top[0]) - 1
        warm = distribute_load(p, neighbor, hint=hint)
        assert warm.warm_started
        cold = distribute_load(p, neighbor)
        assert warm.inner_iters < cold.inner_iters

    def test_small_fleet_falls_back_cold(self, hetero_model):
        """On a 2-group fleet one flip moves the dual far outside any warm
        bracket: the hint must be rejected and the cold result returned."""
        p = make_problem(hetero_model, lam_frac=0.6, onsite=0.0, q=5.0)
        top = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        hint = distribute_load(p, top)
        neighbor = top.copy()
        neighbor[0] = int(top[0]) - 1
        warm = distribute_load(p, neighbor, hint=hint)
        cold = distribute_load(p, neighbor)
        assert not warm.warm_started
        assert warm.per_server_load.tobytes() == cold.per_server_load.tobytes()

    def test_gsd_warm_objective_close_to_cold(self, wide_model):
        p = make_problem(wide_model, lam_frac=0.55, onsite=0.0, q=3.0)
        cold = GSDSolver(
            iterations=200, rng=np.random.default_rng(9), warm_start=False
        ).solve(p)
        warm = GSDSolver(iterations=200, rng=np.random.default_rng(9)).solve(p)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
        assert warm.info["fastpath"]["warm_starts"] > 0


# ---------------------------------------------------------------------------
# Slot-length units: switching MWh -> MW conversion
# ---------------------------------------------------------------------------
class TestSlotHours:
    def _problem_with_switching(self, model, slot_hours):
        fleet = model.fleet
        switching = SwitchingCostModel(energy_per_toggle=0.002)
        prev = np.zeros(fleet.num_groups)  # everything was off: all toggles on
        p = make_problem(model, lam_frac=0.5, onsite=0.0, price=40.0, q=2.0)
        return dataclasses.replace(
            p, switching=switching, prev_on_counts=prev, slot_hours=slot_hours
        )

    def test_quarter_hour_slot_pins_unit_conversion(self, tiny_model):
        """At 0.25 h slots, switching energy must enter facility *power*
        divided by the slot length, and brown energy must be the shortfall
        times the slot length -- pinned against a by-hand computation."""
        h = 0.25
        p = self._problem_with_switching(tiny_model, h)
        levels = (p.fleet.num_levels - 1).astype(np.int64)
        dist = distribute_load(p, levels)
        action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
        ev = p.evaluate(action)

        sw_energy = p.switching.energy(p.prev_on_counts, action.on_counts(p.fleet))
        assert sw_energy > 0.0
        facility_expected = p.pue * ev.it_power + sw_energy / h
        assert ev.facility_power == pytest.approx(facility_expected, rel=1e-12)
        brown_expected = max(facility_expected - p.onsite, 0.0) * h
        assert ev.brown_energy == pytest.approx(brown_expected, rel=1e-12)
        delay_expected = p.delay_weight * ev.delay_sum * h
        assert ev.delay_cost == pytest.approx(delay_expected, rel=1e-12)

        # Regression guard for the historical bug (energy added to power
        # un-converted): at h != 1 the two bookkeepings must differ.
        wrong_facility = p.pue * ev.it_power + sw_energy
        assert ev.facility_power != pytest.approx(wrong_facility, rel=1e-6)

    @pytest.mark.parametrize("h", [0.25, 2.0])
    def test_enumeration_solver_consistent_at_nonunit_slots(self, tiny_model, h):
        """The vectorized enumeration engine's internal objective must agree
        with ``SlotProblem.evaluate`` on its own chosen action -- that is,
        the solver and the evaluator apply the same unit conversion."""
        p = self._problem_with_switching(tiny_model, h)
        sol = HomogeneousEnumerationSolver().solve(p)
        again = p.evaluate(sol.action)
        assert sol.evaluation.objective == pytest.approx(again.objective, rel=1e-12)
        # ... and the choice is exactly the brute-force optimum.
        oracle = BruteForceSolver().solve(p)
        assert sol.evaluation.objective == pytest.approx(
            oracle.evaluation.objective, rel=1e-9
        )

    def test_slot_hours_validation(self, tiny_model):
        with pytest.raises(ValueError):
            dataclasses.replace(make_problem(tiny_model), slot_hours=0.0)
