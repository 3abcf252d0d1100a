"""Tests for the shared solver fast path (:mod:`repro.solvers.fastpath`).

Four exactness contracts are pinned here:

- every cache query matches the cold, uncached scoring path: the same
  verdict, the same objective up to summation order (1e-12; 1e-9 with warm
  starts); brute force returns the exhaustive optimum over that path to the
  last bit, coordinate descent a local minimum of it, and GSD's shipped
  chain (warm starts) stays within 1e-9 of its cold chain;
- the early-exit bisections return exactly what the historical fixed-count
  loops return (flip ``_EARLY_EXIT`` and compare bytes);
- warm-started inner solves match cold ones to <= 1e-9 relative objective
  error, in every regime of the ``[.]^+`` kink;
- the class histogram the cache keeps up to date flip by flip equals
  :meth:`Fleet.class_histogram` of the current vector bit for bit.

Plus the slot-length unit fix: switching *energy* (MWh) enters facility
*power* (MW) divided by ``slot_hours``, pinned at a non-unit slot length.
"""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    CoordinateDescentSolver,
    EvaluationCache,
    GSDSolver,
    HomogeneousEnumerationSolver,
    InfeasibleError,
    distribute_load,
)
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import assert_local_minimum, cold_objective, make_problem, solve_cold


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
# Bit-identity: engine answers vs the cold, uncached scoring path
# ---------------------------------------------------------------------------
class TestCacheBitIdentity:
    def _assert_cold_exact(self, problem, sol):
        """The chosen action is the one the cold path builds, to the bit."""
        levels = sol.action.levels
        dist = distribute_load(problem, levels)
        assert sol.action.per_server_load.tobytes() == dist.per_server_load.tobytes()
        assert sol.objective == cold_objective(problem, levels)  # exact
        assert sol.info["final_objective"] == pytest.approx(sol.objective, rel=1e-12)

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    def test_gsd(self, request, model_name):
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.55, onsite=0.2, q=3.0)
        sol = solve_cold(GSDSolver(iterations=150, rng=np.random.default_rng(11)), p)
        self._assert_cold_exact(p, sol)

    @pytest.mark.parametrize("model_name", ["hetero_model", "wide_model"])
    def test_gsd_shipped_default_within_contract(self, request, model_name):
        """GSD's shipped chain (warm starts) against the cold chain: the
        same decisions, objective within 1e-9."""
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.55, onsite=0.2, q=3.0)
        shipped = GSDSolver(iterations=150, rng=np.random.default_rng(11)).solve(p)
        cold = solve_cold(GSDSolver(iterations=150, rng=np.random.default_rng(11)), p)
        assert np.array_equal(shipped.action.levels, cold.action.levels)
        assert shipped.objective == pytest.approx(cold.objective, rel=1e-9)

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    def test_coordinate_descent(self, request, model_name):
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.4, onsite=0.1, q=2.0)
        sol = CoordinateDescentSolver(restarts=3, rng=np.random.default_rng(5)).solve(p)
        assert_local_minimum(p, sol)

    def _assert_exhaustive_optimum(self, problem):
        """The cache walked in exhaustive enumeration order -- one trailing
        group flipped at a time, the access pattern its delta screen is
        built for -- scores every configuration exactly as the cold path
        does, and its first minimizer is the oracle's, to the bit."""
        cache = EvaluationCache(problem)
        levels = np.empty(problem.fleet.num_groups, dtype=np.int64)
        best, best_levels, prev = np.inf, None, None
        for combo in product(*(range(-1, int(k)) for k in problem.fleet.num_levels)):
            if prev is None:
                levels[:] = combo
                cache.note_all()
            else:
                for g, cand in enumerate(combo):
                    if cand != prev[g]:
                        levels[g] = cand
                        cache.note_changed(g)
            prev = combo
            obj = cache.objective_of(levels)
            assert obj == cold_objective(problem, levels)  # exact, not approx
            if obj < best:
                best, best_levels = obj, levels.copy()
        oracle = BruteForceOracle().solve(problem)
        assert np.array_equal(oracle.action.levels, best_levels)
        action, evaluation = cache.solution_for(best_levels)
        assert evaluation.objective == oracle.objective
        assert action.per_server_load.tobytes() == oracle.action.per_server_load.tobytes()
        return cache, oracle

    def test_brute_force(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.45, q=1.0)
        cache, oracle = self._assert_exhaustive_optimum(p)
        assert cache.stats.inner_solves > 0
        assert oracle.info["configs_total"] == int(np.prod(hetero_model.fleet.num_levels + 1))

    def test_brute_force_with_caps(self, tiny_model):
        base = make_problem(tiny_model, lam_frac=0.5, q=2.0)
        unbounded = BruteForceOracle().solve(base)
        p = dataclasses.replace(
            base,
            peak_power_cap=1.05 * unbounded.evaluation.facility_power,
            max_delay_cost=2.0 * unbounded.evaluation.delay_cost,
        )
        self._assert_exhaustive_optimum(p)

    def test_gsd_under_peak_power_cap(self, tiny_model):
        base = make_problem(tiny_model, lam_frac=0.5, q=2.0)
        unbounded = BruteForceOracle().solve(base)
        p = dataclasses.replace(
            base, peak_power_cap=1.05 * unbounded.evaluation.facility_power
        )
        sol = solve_cold(GSDSolver(iterations=150, rng=np.random.default_rng(3)), p)
        assert not p.violates_caps(sol.evaluation)
        self._assert_cold_exact(p, sol)


# ---------------------------------------------------------------------------
# Evaluation cache correctness against the cold scoring path
# ---------------------------------------------------------------------------
class TestEvaluationCache:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model", "wide_model"])
    def test_random_walk_matches_cold_path(self, request, rng, model_name, capped, warm):
        """A GSD-like random walk of single-group flips: every query must
        match the cold computation -- the same verdict on every screened-out
        and cap-violating candidate, and the same objective up to summation
        order (the cache sums class rows, the cold path groups: <= 1e-12
        relative) or, with warm starts, within their 1e-9 contract."""
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.6, onsite=0.1, q=2.0)
        fleet = p.fleet
        top = (fleet.num_levels - 1).astype(np.int64)
        if capped:
            # Below the all-top draw, so the cap binds on part of the walk.
            top_power = p.evaluate(
                FleetAction(levels=top, per_server_load=distribute_load(p, top).per_server_load)
            ).facility_power
            p = dataclasses.replace(p, peak_power_cap=0.9 * top_power)
        cache = EvaluationCache(p, warm_start=warm)
        levels = top.copy()
        cache.note_all()
        verdicts = set()
        for _ in range(300):
            g = int(rng.integers(0, fleet.num_groups))
            levels[g] = int(rng.integers(-1, fleet.num_levels[g]))
            cache.note_changed(g)
            got = cache.objective_of(levels)
            expected = cold_objective(p, levels)
            assert np.isinf(got) == np.isinf(expected)
            verdicts.add(bool(np.isinf(got)))
            if np.isfinite(expected):
                assert got == pytest.approx(expected, rel=1e-9 if warm else 1e-12)
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
        assert stats.cache_hits > 0  # unchanged proposals revisit the vector
        assert verdicts == {False, True}  # the walk crosses the feasibility edge
        if warm and model_name == "wide_model":
            assert stats.warm_solves > 0  # 1/40th-fleet flips keep the hint useful

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

    def test_zero_workload_prices_idle_servers(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.0)
        cache = EvaluationCache(p)
        levels = (p.fleet.num_levels - 1).astype(np.int64)
        assert cache.objective_of(levels) == pytest.approx(
            cold_objective(p, levels), rel=1e-12
        )
        assert cache.stats.screened_infeasible == 0

    def test_inner_solve_infeasible_memoized_per_histogram(self, tiny_model):
        """Two of three groups on, with a load 1e-10 above their capped
        capacity: inside the screen's margin, beyond the exact check.  The
        inner solve rejects it once; the mirrored vector (same class
        histogram) reuses that verdict."""
        p = make_problem(tiny_model, lam_frac=(2.0 / 3.0) * (1.0 + 1e-10))
        cache = EvaluationCache(p)
        levels = np.array([3, 3, -1], dtype=np.int64)
        assert cache.objective_of(levels) == np.inf
        assert cache.distribution_of(levels) is None
        levels[[0, 2]] = levels[[2, 0]]
        cache.note_changed(0)
        cache.note_changed(2)
        assert cache.objective_of(levels) == np.inf
        stats = cache.stats
        assert stats.infeasible == stats.histogram_hits == 1
        assert stats.screened_infeasible == 0

    def test_distribution_of_and_unscored_solution(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        cache = EvaluationCache(p)
        scored = np.array([3, 2, -1], dtype=np.int64)
        cache.objective_of(scored)
        assert cache.distribution_of(scored).classes is not None
        unscored = np.array([3, 3, 3], dtype=np.int64)
        assert cache.distribution_of(unscored) is None
        action, evaluation = cache.solution_for(unscored)
        want = distribute_load(p, unscored).per_server_load
        assert action.per_server_load.tobytes() == want.tobytes()
        assert evaluation.objective == pytest.approx(cold_objective(p, unscored))

    def test_gsd_counters_add_up(self, tiny_model, wide_model):
        p = make_problem(tiny_model, lam_frac=0.55, q=2.0)
        sol = GSDSolver(iterations=400, rng=np.random.default_rng(2)).solve(p)
        fp = sol.info["fastpath"]
        assert sol.info["evaluations"] <= fp["evaluations"]
        assert fp["inner_solves"] == fp["cold_solves"] + fp["warm_starts"]
        assert fp["cache_hits"] > 0  # 3-group lattice: proposals repeat
        # Three identical groups: a new vector often repeats a histogram.
        assert fp["histogram_hits"] > 0
        # The 40-group fleet's flips move 1/40th of it: the hints seed
        # warm solves there.
        p = make_problem(wide_model, lam_frac=0.55, q=2.0)
        fp = GSDSolver(iterations=200, rng=np.random.default_rng(2)).solve(p).info[
            "fastpath"
        ]
        assert fp["warm_starts"] > 0
        assert fp["inner_solves"] == fp["cold_solves"] + fp["warm_starts"]
        assert sol.info["inner_solves"] < sol.info["evaluations"]


@st.composite
def histogram_walks(draw):
    """A mixed fleet (a zero-count group possible) and a walk over its
    level vectors: single flips, reverts of the last flip, several writes
    between two syncs, and bulk rewrites announced with ``note_all``."""
    G = draw(st.integers(1, 8))
    profiles = (opteron_2380, cubic_dvfs_profile)
    groups = [
        ServerGroup(profiles[draw(st.integers(0, 1))](), draw(st.integers(1, 60)))
        for _ in range(G)
    ]
    fleet = Fleet(groups)
    if draw(st.booleans()):
        counts = fleet.counts.copy()
        counts[draw(st.integers(0, G - 1))] = 0.0
        counts.setflags(write=False)
        fleet.counts = counts
    level = st.integers(-1, int(fleet.num_levels.min()) - 1)
    start = draw(st.lists(level, min_size=G, max_size=G))
    step = st.one_of(
        st.tuples(st.just("flip"), st.integers(0, G - 1), level),
        st.tuples(st.just("revert"), st.just(0), st.just(0)),
        st.tuples(st.just("burst"), st.integers(0, G - 1), level),
        st.tuples(st.just("note_all"), st.integers(0, 2**31), st.just(0)),
    )
    return fleet, np.array(start, dtype=np.int64), draw(st.lists(step, max_size=60))


class TestIncrementalHistogram:
    """The cache's class histogram, updated flip by flip, equals the one
    :meth:`Fleet.class_histogram` builds from scratch -- bit for bit."""

    @staticmethod
    def _assert_matches(cache, fleet, levels):
        cache._sync_screen(levels)
        _, classes, counts = fleet.class_histogram(levels)
        hist = np.array(cache._hist)
        assert np.flatnonzero(hist).tolist() == classes.tolist()
        assert hist[classes].tobytes() == counts.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(histogram_walks())
    def test_walk_matches_fleet_histogram(self, walk):
        fleet, levels, steps = walk
        model = DataCenterModel(fleet=fleet, beta=10.0)
        p = model.slot_problem(arrival_rate=1.0, onsite=0.0, price=40.0)
        cache = EvaluationCache(p)
        self._assert_matches(cache, fleet, levels)
        last = None  # (group, level before the last flip)
        for kind, g, new in steps:
            if kind == "note_all":
                rng = np.random.default_rng(g)
                levels = rng.integers(-1, fleet.num_levels.min(), fleet.num_groups)
                cache.note_all()
            elif kind == "revert":
                if last is None:
                    continue
                g, new = last
                levels[g] = new
                cache.note_changed(g)
            else:
                last = (g, int(levels[g]))
                levels[g] = new
                cache.note_changed(g)
                if kind == "burst":
                    continue  # more writes before the next sync
            self._assert_matches(cache, fleet, levels)
        self._assert_matches(cache, fleet, levels)

    def test_long_chain_does_not_drift(self, wide_model):
        """A GSD-shaped walk far past any refresh interval: propose, score
        through the public path, revert about half the time."""
        fleet = wide_model.fleet
        p = make_problem(wide_model, lam_frac=0.5, onsite=0.0, q=5.0)
        cache = EvaluationCache(p, warm_start=True)
        rng = np.random.default_rng(3)
        levels = (fleet.num_levels - 1).astype(np.int64)
        cache.objective_of(levels)
        for _ in range(2000):
            g = int(rng.integers(fleet.num_groups))
            old = int(levels[g])
            levels[g] = int(rng.integers(-1, fleet.num_levels[g]))
            cache.note_changed(g)
            cache.objective_of(levels)
            if rng.random() < 0.5:
                levels[g] = old
                cache.note_changed(g)
        self._assert_matches(cache, fleet, levels)
        assert cache.objective_of(levels) == pytest.approx(
            cold_objective(p, levels), rel=1e-9
        )


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

    def _far_neighbor(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.6, onsite=0.0, q=5.0)
        top = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        neighbor = top.copy()
        neighbor[0] = int(top[0]) - 1
        return p, distribute_load(p, top), neighbor

    def test_far_hint_converges_to_cold(self, hetero_model):
        """On a 2-group fleet one flip moves the dual far from the hint's:
        the Newton refinement still converges from it (the bisection
        safeguard keeps it inside the bracket) and lands within the 1e-9
        contract of the cold solve."""
        p, hint, neighbor = self._far_neighbor(hetero_model)
        warm = distribute_load(p, neighbor, hint=hint)
        cold = distribute_load(p, neighbor)
        assert abs(hint.nu - cold.nu) > 0.05 * cold.nu
        assert warm.warm_started
        assert warm.inner_iters < cold.inner_iters

        def objective(dist):
            action = FleetAction(levels=neighbor, per_server_load=dist.per_server_load)
            return p.evaluate(action).objective

        assert objective(warm) == pytest.approx(objective(cold), rel=1e-9)

    def test_hint_outside_cold_bracket_falls_back_cold(self, hetero_model):
        """A hint dual outside the cold bracket -- here the unbounded dual of
        a saturated on-set -- seeds nothing: the cold result comes back bit
        for bit."""
        p, hint, neighbor = self._far_neighbor(hetero_model)
        hint = dataclasses.replace(hint, nu=math.inf)
        warm = distribute_load(p, neighbor, hint=hint)
        cold = distribute_load(p, neighbor)
        assert not warm.warm_started
        assert warm.per_server_load.tobytes() == cold.per_server_load.tobytes()

    def test_gsd_warm_objective_close_to_cold(self, wide_model):
        p = make_problem(wide_model, lam_frac=0.55, onsite=0.0, q=3.0)
        cold = solve_cold(GSDSolver(iterations=200, rng=np.random.default_rng(9)), p)
        warm = GSDSolver(iterations=200, rng=np.random.default_rng(9)).solve(p)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
        assert cold.info["fastpath"]["warm_starts"] == 0
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
        oracle = BruteForceOracle().solve(p)
        assert sol.evaluation.objective == pytest.approx(
            oracle.evaluation.objective, rel=1e-9
        )

    def test_slot_hours_validation(self, tiny_model):
        with pytest.raises(ValueError):
            dataclasses.replace(make_problem(tiny_model), slot_hours=0.0)
