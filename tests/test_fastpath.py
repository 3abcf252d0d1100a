"""Tests for the shared solver fast path (:mod:`repro.solvers.fastpath`).

Four contracts are pinned here:

- every cache query matches the uncached scoring path: the same verdict,
  the same objective up to summation order (1e-12); brute force returns
  the exhaustive optimum over that path to the last bit, coordinate
  descent a local minimum of it, and GSD's chosen action is the one that
  path builds, to the bit;
- the class histogram the cache keeps up to date flip by flip equals
  :meth:`Fleet.class_counts` of the current vector bit for bit (the
  transition count beside it: ``tests/test_chain_key.py``);
- the early-exit bisections return the one-ulp bracket a fixed-count loop
  would end on;
- the solve records carry the counters ``benchmarks/e2e/layers.py`` reads.

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
    distribute_load,
    solve_fixed_levels,
)
from tests.billing_oracle import solve_action
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import assert_local_minimum, cold_objective, make_problem


@pytest.fixture(scope="module")
def wide_model():
    """40 mixed-profile groups: one group flip is a small perturbation."""
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
        return solve_fixed_levels(problem, levels)[1].facility_power

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
        assert sol.action.rows == solve_fixed_levels(problem, levels)[0].rows
        assert sol.objective == cold_objective(problem, levels)  # exact
        assert sol.info["final_objective"] == pytest.approx(sol.objective, rel=1e-12)

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    def test_gsd(self, request, model_name):
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.55, onsite=0.2, q=3.0)
        sol = GSDSolver(iterations=150, rng=np.random.default_rng(11)).solve(p)
        self._assert_cold_exact(p, sol)

    @pytest.mark.parametrize("model_name", ["hetero_model", "wide_model"])
    def test_gsd_shipped_default_within_contract(self, request, model_name):
        """GSD at its shipped defaults on the mixed fleets, 40 groups
        included: its answer is the uncached path's, to the bit."""
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.55, onsite=0.2, q=3.0)
        sol = GSDSolver(iterations=150, rng=np.random.default_rng(11)).solve(p)
        self._assert_cold_exact(p, sol)

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
        best, best_levels, prev = np.inf, None, None
        for combo in product(*(range(-1, int(k)) for k in problem.fleet.num_levels)):
            if prev is None:
                obj = cache.reset(combo)
            else:
                for g, cand in enumerate(combo):
                    cache.move(g, cand)
                obj = cache.lookup()
            prev = combo
            levels = np.array(cache.levels)
            assert obj == cold_objective(problem, levels)  # exact, not approx
            if obj < best:
                best, best_levels = obj, levels.copy()
        oracle = BruteForceOracle().solve(problem)
        assert np.array_equal(oracle.action.levels, best_levels)
        action, evaluation = cache.solution_for(best_levels)
        assert evaluation.objective == oracle.objective
        assert action.rows == oracle.action.rows
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
        sol = GSDSolver(iterations=150, rng=np.random.default_rng(3)).solve(p)
        assert not p.violates_caps(sol.evaluation)
        self._assert_cold_exact(p, sol)


# ---------------------------------------------------------------------------
# Evaluation cache correctness against the cold scoring path
# ---------------------------------------------------------------------------
class TestEvaluationCache:
    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model", "wide_model"])
    def test_random_walk_matches_cold_path(self, request, rng, model_name, capped):
        """A GSD-like random walk of single-group flips: every query must
        match the uncached computation -- the same verdict on every
        screened-out and cap-violating candidate, and the same objective up
        to summation order (the cache sums class rows, the uncached path
        groups: <= 1e-12 relative)."""
        model = request.getfixturevalue(model_name)
        p = make_problem(model, lam_frac=0.6, onsite=0.1, q=2.0)
        fleet = p.fleet
        top = (fleet.num_levels - 1).astype(np.int64)
        if capped:
            # Below the all-top draw, so the cap binds on part of the walk.
            top_power = solve_fixed_levels(p, top)[1].facility_power
            p = dataclasses.replace(p, peak_power_cap=0.9 * top_power)
        cache = EvaluationCache(p)
        cache.reset(top)
        verdicts = set()
        for _ in range(300):
            g = int(rng.integers(0, fleet.num_groups))
            got = cache.flip(g, int(rng.integers(-1, fleet.num_levels[g])))
            expected = cold_objective(p, np.array(cache.levels))
            assert np.isinf(got) == np.isinf(expected)
            verdicts.add(bool(np.isinf(got)))
            if np.isfinite(expected):
                assert got == pytest.approx(expected, rel=1e-12)
            if rng.random() < 0.3:  # occasional revert, as engines do
                cache.move(g, -1 if cache.levels[g] != -1 else 0)
        stats = cache.stats
        assert stats.evaluations == (
            stats.inner_solves
            + stats.cache_hits
            + stats.histogram_hits
            + stats.screened_infeasible
            + stats.infeasible
        )
        assert stats.cache_hits > 0  # unchanged proposals revisit the key
        assert verdicts == {False, True}  # the walk crosses the feasibility edge

    def test_screen_rejects_undercapacity_onsets(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.9)
        cache = EvaluationCache(p)
        levels = np.array([3, -1, -1], dtype=np.int64)  # cannot carry 90%
        assert cache.reset(levels) == np.inf
        assert cache.stats.screened_infeasible == 1
        assert cache.stats.inner_solves == 0
        # The all-off set is screened too.
        assert cache.flip(0, -1) == np.inf
        assert cache.stats.screened_infeasible == 2

    def test_solution_for_reuses_cached_solve(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        cache = EvaluationCache(p)
        levels = (p.fleet.num_levels - 1).astype(np.int64)
        obj = cache.reset(levels)
        solves_before = cache.stats.inner_solves
        action, evaluation = cache.solution_for(levels)
        assert cache.stats.inner_solves == solves_before
        assert evaluation.objective == obj
        assert action.rows == solve_fixed_levels(p, levels)[0].rows
        assert evaluation == p.evaluate(action)

    def test_zero_workload_prices_idle_servers(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.0)
        cache = EvaluationCache(p)
        levels = (p.fleet.num_levels - 1).astype(np.int64)
        assert cache.reset(levels) == pytest.approx(
            cold_objective(p, levels), rel=1e-12
        )
        assert cache.stats.screened_infeasible == 0

    def test_inner_solve_infeasible_memoized_per_histogram(self, tiny_model):
        """Two of three groups on, with a load 1e-10 above their capped
        capacity: inside the screen's margin, beyond the exact check.  The
        inner solve rejects it once.  Without switching the mirrored vector
        has the same key and is a memo hit; when group 0 alone was on last
        slot the mirror turns two groups on, not one, so its key differs
        and it reuses the histogram's verdict."""
        base = make_problem(tiny_model, lam_frac=(2.0 / 3.0) * (1.0 + 1e-10))
        switching = SwitchingCostModel(energy_per_toggle=0.002)
        prev = np.array([base.fleet.counts[0], 0.0, 0.0])
        for p, hits in ((base, "cache_hits"), (
            dataclasses.replace(base, switching=switching, prev_on_counts=prev),
            "histogram_hits",
        )):
            cache = EvaluationCache(p)
            assert cache.reset([3, 3, -1]) == np.inf
            assert cache.distribution_of(cache.key()) is None
            cache.move(0, -1)
            assert cache.flip(2, 3) == np.inf
            stats = cache.stats
            assert stats.infeasible == getattr(stats, hits) == 1
            assert stats.evaluations == 2
            assert stats.screened_infeasible == 0

    def test_distribution_of_and_unscored_solution(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        cache = EvaluationCache(p)
        scored = np.array([3, 2, -1], dtype=np.int64)
        cache.reset(scored)
        assert cache.distribution_of(cache.key()).classes is not None
        unscored = np.array([3, 3, 3], dtype=np.int64)
        assert cache.distribution_of(cache.key_of(unscored)) is None
        action, evaluation = cache.solution_for(unscored)
        assert action.rows == solve_fixed_levels(p, unscored)[0].rows
        assert evaluation.objective == pytest.approx(cold_objective(p, unscored))

    def test_gsd_counters_add_up(self, tiny_model):
        # Switching splits one histogram into keys by transition count.
        p = dataclasses.replace(
            make_problem(tiny_model, lam_frac=0.55, q=2.0),
            switching=SwitchingCostModel(energy_per_toggle=1e-4),
            prev_on_counts=np.array([tiny_model.fleet.counts[0], 0.0, 0.0]),
        )
        sol = GSDSolver(iterations=400, rng=np.random.default_rng(2)).solve(p)
        fp = sol.info["fastpath"]
        assert sol.info["evaluations"] <= fp["evaluations"]
        assert fp["evaluations"] == sum(
            fp[k]
            for k in (
                "inner_solves", "cache_hits", "histogram_hits",
                "screened_infeasible", "infeasible",
            )
        )
        assert fp["cache_hits"] > 0  # 3-group lattice: proposals repeat
        # Three identical groups: a new key often repeats a histogram.
        assert fp["histogram_hits"] > 0
        assert sol.info["inner_solves"] < sol.info["evaluations"]


@st.composite
def histogram_walks(draw):
    """A mixed fleet (a zero-count group possible) and a walk over its
    level vectors: single flips, reverts of the last flip, several writes
    between two checks, and bulk rewrites loaded with ``reset``."""
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
        st.tuples(st.just("reset"), st.integers(0, 2**31), st.just(0)),
    )
    return fleet, np.array(start, dtype=np.int64), draw(st.lists(step, max_size=60))


class TestIncrementalHistogram:
    """The cache's class histogram, updated flip by flip, equals the one
    :meth:`Fleet.class_counts` builds from scratch -- bit for bit."""

    @staticmethod
    def _assert_matches(cache, fleet):
        counts = fleet.class_counts(np.array(cache.levels))[1]
        assert np.array(cache.key()[:-1]).tobytes() == counts.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(histogram_walks())
    def test_walk_matches_fleet_histogram(self, walk):
        fleet, levels, steps = walk
        model = DataCenterModel(fleet=fleet, beta=10.0)
        p = model.slot_problem(arrival_rate=1.0, onsite=0.0, price=40.0)
        cache = EvaluationCache(p)
        cache.reset(levels)
        self._assert_matches(cache, fleet)
        last = None  # (group, level before the last flip)
        for kind, g, new in steps:
            if kind == "reset":
                rng = np.random.default_rng(g)
                cache.reset(rng.integers(-1, fleet.num_levels.min(), fleet.num_groups))
            elif kind == "revert":
                if last is None:
                    continue
                cache.move(*last)
            else:
                last = (g, cache.levels[g])
                cache.move(g, new)
                if kind == "burst":
                    continue  # more writes before the next check
            self._assert_matches(cache, fleet)
        self._assert_matches(cache, fleet)

    def test_long_chain_does_not_drift(self, wide_model):
        """A GSD-shaped walk far past any refresh interval: propose, score
        through the public path, revert about half the time."""
        fleet = wide_model.fleet
        p = make_problem(wide_model, lam_frac=0.5, onsite=0.0, q=5.0)
        cache = EvaluationCache(p)
        rng = np.random.default_rng(3)
        cache.reset((fleet.num_levels - 1).astype(np.int64))
        for _ in range(2000):
            g = int(rng.integers(fleet.num_groups))
            old = cache.levels[g]
            cache.flip(g, int(rng.integers(-1, fleet.num_levels[g])))
            if rng.random() < 0.5:
                cache.move(g, old)
        self._assert_matches(cache, fleet)
        assert cache.lookup() == pytest.approx(
            cold_objective(p, np.array(cache.levels)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Early exit is exact
# ---------------------------------------------------------------------------
def _rows_at(problem, levels, weight):
    """What ``ld._waterfill`` reads of ``levels`` at electricity weight
    ``weight``: its positional arguments after ``lam`` and ``we``."""
    counts = problem.fleet.class_counts(levels)[1].tolist()
    table = ld.ClassTable(problem)
    ids = [k for k, nk in enumerate(counts) if nk > 0.0]
    n = [counts[k] for k in ids]
    return table, ids, n, ld._served_total(n, [table.caps[k] for k in ids])


class TestEarlyExitExact:
    """Each bisection stops once its midpoint rounds onto an endpoint.  A
    fixed-count loop would keep halving a bracket of adjacent floats and
    return the same upper end, so the early exit is exact if every
    returned bracket is one ulp wide and straddles its crossing."""

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    @pytest.mark.parametrize("lam_frac", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("regime", ["billed", "free", "boundary"])
    def test_bit_identical_to_fixed_count(self, request, model_name, lam_frac, regime):
        model = request.getfixturevalue(model_name)
        if regime == "boundary":
            levels = mixed_levels(model)
            p = boundary_problem(model, levels, lam_frac=lam_frac)
        else:
            onsite = 0.0 if regime == "billed" else 1e9
            p = make_problem(model, lam_frac=lam_frac, onsite=onsite, q=5.0)
            levels = (model.fleet.num_levels - 1).astype(np.int64)
        got = distribute_load(p, levels)
        assert got.regime == regime
        lam = p.arrival_rate
        table, ids, n, capped = _rows_at(p, levels, got.electricity_weight)
        if len(ids) == 1:
            assert got.inner_iters == 0  # closed form: nothing to bisect
            return

        def nu_crossing(weight):
            rows = [
                (e, x, cap, nk)
                for (e, x, cap, _, _), nk in zip(table.weighted(weight, ids), n)
            ]
            nu = ld._waterfill(lam, weight, table, ids, n, capped)[1]
            below = math.nextafter(nu, -math.inf)
            assert ld._served_at(rows, table.wd, table.inv, below) < lam
            assert ld._served_at(rows, table.wd, table.inv, nu) >= lam
            return nu

        # The dual of the returned loads is the one-ulp nu crossing.
        assert got.nu == nu_crossing(got.electricity_weight)
        if regime != "boundary":
            return

        # The weight is the one-ulp crossing of facility power with the
        # on-site supply: over the supply at one end, at or under it at the
        # other.
        def facility(weight):
            loads = ld._waterfill(lam, weight, table, ids, n, capped)[0]
            return ld._facility(
                p.pue,
                sum(nk * table.static[k] for k, nk in zip(ids, n)),
                [nk * table.coeff[k] for k, nk in zip(ids, n)],
                loads,
            )

        mu = got.electricity_weight
        if facility(mu) > p.onsite:
            assert facility(math.nextafter(mu, math.inf)) <= p.onsite
        else:
            assert facility(math.nextafter(mu, -math.inf)) > p.onsite

    def test_early_exit_saves_iterations(self, tiny_model):
        # Two classes on: a one-class on-set is solved in closed form, with
        # no bisection to exit early from.
        p = make_problem(tiny_model, lam_frac=0.5, q=3.0)
        got = distribute_load(p, np.array([3, 3, 2], dtype=np.int64))
        assert got.regime == "billed"  # one nu bisection
        assert 0 < got.inner_iters < ld._NU_ITERS


# ---------------------------------------------------------------------------
# What the end-to-end benchmark's tracer reads of a real solve
# ---------------------------------------------------------------------------
class TestTracerReads:
    """``benchmarks/e2e/layers.py`` reads these fields of real solves:
    ``warm_started`` and ``inner_iters`` of every :func:`distribute_load`
    record, and four keys of GSD's ``info["fastpath"]``.  A rename here
    would make its per-layer metrics read a silent 0."""

    def test_distribute_load_record(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5, q=3.0)
        mixed = distribute_load(p, np.array([3, 3, 2], dtype=np.int64))
        one = distribute_load(p, np.array([3, -1, 3], dtype=np.int64))
        assert mixed.warm_started is False and one.warm_started is False
        assert "warm_started" not in mixed._fields  # a class attribute only
        assert mixed.inner_iters > 0  # two classes: the nu bisection ran
        assert one.inner_iters == 0  # one class: closed form
        # The cache counts both as inner solves and sums their steps.
        cache = EvaluationCache(p)
        cache.reset([3, 3, 2])
        cache.reset([3, -1, 3])
        assert (cache.stats.inner_solves, cache.stats.inner_iters) == (2, mixed.inner_iters)

    def test_gsd_fastpath_info(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.55, q=2.0)
        fp = GSDSolver(iterations=100, rng=np.random.default_rng(2)).solve(p).info[
            "fastpath"
        ]
        for key in ("evaluations", "inner_solves", "cache_hits", "inner_iters"):
            assert type(fp[key]) is int, key
        assert fp["evaluations"] > fp["inner_solves"] > 0
        assert fp["cache_hits"] > 0
        assert fp["inner_iters"] > 0  # two profiles: some on-sets bisect


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
        action = solve_action(p.fleet, levels, dist)
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
