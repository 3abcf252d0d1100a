"""Contract of the class-compressed water-fill against the group-level oracle.

:func:`repro.solvers.distribute_load` solves Eq. (18) over (profile, level)
classes.  On randomized fleets and slot problems it must agree with the
group-level oracle
(:mod:`tests.waterfill_oracle`) on three things:

- the P3 objective, to <= 1e-9 relative error;
- the regime (billed / free / boundary);
- feasibility: the rows check ``tests.conftest.validate_action`` accepts
  the returned action, one row per on class of the level vector.

The draws cover heterogeneous profiles, unequal and zero server counts,
failed-group sub-fleets, peak-power and delay caps, switching costs, all
three regimes, both delay models, ``Wd == 0`` and a non-linear tariff.
Pinned ``@example`` draws make the degenerate cases run on every seed:
``Wd == 0``, a tiered tariff billed above its threshold, a zero-count
group that is switched on, a boundary-regime instance, an all-off
level vector, and a load at the on-set's capped capacity that the class
rows' capped total rounds below.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.cluster.power import LinearTariff, TieredTariff
from repro.cluster.queueing import MG1PSDelay, SquaredLoadDelay
from repro.cluster.switching import SwitchingCostModel
from repro.core import DataCenterModel
from repro.solvers import InfeasibleError, SlotProblem, distribute_load
from tests.billing_oracle import evaluate, solve_action
from tests.conftest import validate_action
from tests.waterfill_oracle import oracle_distribute

OBJ_RTOL = 1e-9
_PROFILES = (opteron_2380, cubic_dvfs_profile)


def _pinned(
    *,
    levels=(3, 1, 2, 0),
    regime="billed",
    zero_group=None,
    lam_frac=0.5,
    **problem_kw,
):
    """One fixed draw of :func:`cases` on a 4-group mixed fleet, for
    ``@example``."""
    fleet = Fleet([ServerGroup(_PROFILES[g % 2](), 4 + 3 * g) for g in range(4)])
    if zero_group is not None:
        zeroed = fleet.counts.copy()
        zeroed[zero_group] = 0.0
        zeroed.setflags(write=False)
        fleet.counts = zeroed
    levels = np.array(levels, dtype=np.int64)
    model = DataCenterModel(fleet=fleet, beta=problem_kw.pop("beta", 10.0))
    on_cap = float(
        np.sum(np.where(levels >= 0, fleet.counts * fleet.group_speeds(levels), 0.0))
    )
    problem = model.slot_problem(
        arrival_rate=lam_frac * model.gamma * max(on_cap, 1.0),
        onsite=0.0,
        price=40.0,
        q=5.0,
    )
    problem = replace(problem, **problem_kw)
    return problem, levels, regime, None


@st.composite
def cases(draw):
    """A slot problem plus a level vector, a target regime and caps."""
    G = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.integers(0, 1), min_size=G, max_size=G))
    counts = draw(st.lists(st.integers(1, 20), min_size=G, max_size=G))
    groups = [ServerGroup(_PROFILES[k](), n) for k, n in zip(kinds, counts)]
    if draw(st.booleans()):
        # The survivors of a failed set, as the sub-fleet oracle builds them.
        failed = set(draw(st.lists(st.integers(0, G - 1), max_size=G - 1)))
        groups = [grp for g, grp in enumerate(groups) if g not in failed]
    fleet = Fleet(groups)
    if fleet.num_groups > 1 and draw(st.booleans()):
        # A group emptied in place (count 0), as the zero-count tests do.
        zeroed = fleet.counts.copy()
        zeroed[draw(st.integers(0, fleet.num_groups - 1))] = 0.0
        zeroed.setflags(write=False)
        fleet.counts = zeroed

    beta = draw(st.sampled_from([0.0, 10.0]))
    delay_model = draw(st.sampled_from([MG1PSDelay(), SquaredLoadDelay()]))
    G = fleet.num_groups
    levels = np.array(
        [draw(st.integers(-1, int(fleet.num_levels[g]) - 1)) for g in range(G)],
        dtype=np.int64,
    )
    on_cap = float(
        np.sum(
            np.where(
                levels >= 0,
                fleet.counts * fleet.group_speeds(levels),
                0.0,
            )
        )
    )
    gamma = 0.95
    lam = draw(st.floats(0.05, 1.05)) * gamma * max(on_cap, 1.0)
    tariff = draw(
        st.sampled_from(
            [
                LinearTariff(),
                TieredTariff(thresholds=(1e-3,), multipliers=(1.0, 3.0)),
            ]
        )
    )
    switching = None
    prev = None
    if draw(st.booleans()):
        switching = SwitchingCostModel(energy_per_toggle=2e-4)
        prev = np.array(
            [draw(st.sampled_from([0.0, float(n)])) for n in fleet.counts]
        )
    problem = SlotProblem(
        fleet=fleet,
        arrival_rate=lam,
        onsite=0.0,
        beta=beta,
        gamma=gamma,
        delay_model=delay_model,
        price=draw(st.floats(5.0, 90.0)),
        q=draw(st.sampled_from([0.0, 5.0, 50.0])),
        V=draw(st.sampled_from([1.0, 20.0])),
        tariff=tariff,
        switching=switching,
        prev_on_counts=prev,
    )
    regime = draw(st.sampled_from(["billed", "free", "boundary"]))
    caps = draw(st.sampled_from([None, 0.9, 1.1]))
    return problem, levels, regime, caps


def _facility(problem, levels, dist):
    return evaluate(problem, levels, dist.per_server_load).facility_power


def _target_regime(problem, levels, regime):
    """Move the renewable supply so the oracle lands in ``regime`` (a
    boundary target degenerates to billed when the two extremes agree)."""
    if regime == "billed":
        return problem
    free = replace(problem, onsite=1e9)
    if regime == "free":
        return free
    billed_p = _facility(problem, levels, oracle_distribute(problem, levels))
    free_p = _facility(free, levels, oracle_distribute(free, levels))
    return replace(problem, onsite=0.5 * (billed_p + free_p))


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(cases())
@example(_pinned(beta=0.0))  # Wd == 0: the greedy delay-free fill
@example(_pinned(tariff=TieredTariff(thresholds=(1e-4,), multipliers=(1.0, 3.0))))
@example(_pinned(zero_group=1))  # a zero-count group, on
@example(_pinned(regime="boundary"))
@example(_pinned(levels=(-1, -1, -1, -1)))  # all off: infeasible
@example(_pinned(levels=(-1, 3, 1, 0), lam_frac=1.0))  # capped total rounds below
def test_compressed_matches_group_oracle(case):
    problem, levels, regime, caps = case
    try:
        problem = _target_regime(problem, levels, regime)
        want = oracle_distribute(problem, levels)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            distribute_load(problem, levels)
        return
    got = distribute_load(problem, levels)

    fleet = problem.fleet
    if caps is not None:
        # Caps straddling the oracle's own footprint: the verdicts must
        # agree on every draw whose value is not within 1e-9 of the cap.
        ev = evaluate(problem, levels, want.per_server_load)
        problem = replace(
            problem,
            peak_power_cap=caps * ev.facility_power if ev.facility_power > 0 else None,
            max_delay_cost=caps * ev.delay_cost if ev.delay_cost > 0 else None,
        )
    ev_w = evaluate(problem, levels, want.per_server_load)
    action_g = solve_action(fleet, levels, got)
    ev_g = problem.evaluate(action_g)

    assert got.regime == want.regime
    # Relative to the objective, floored at the price of the whole facility
    # draw: in a boundary regime that pins power at the renewable supply,
    # the objective can be a few ulps of brown energy away from zero.
    scale = max(
        abs(ev_w.objective),
        (problem.V * problem.price + problem.q) * ev_w.facility_power,
    )
    assert abs(ev_g.objective - ev_w.objective) <= OBJ_RTOL * scale
    if caps is not None and caps != 1.0:
        assert problem.violates_caps(ev_g) == problem.violates_caps(ev_w)
    validate_action(fleet, action_g, problem.arrival_rate, problem.gamma)


def test_homogeneous_fleet_collapses_to_level_rows():
    """200 identical groups over mixed levels solve as at most 4 rows."""
    fleet = Fleet([ServerGroup(opteron_2380(), 1080) for _ in range(200)])
    levels = np.arange(200, dtype=np.int64) % 5 - 1
    ids, counts = fleet.class_counts(levels)
    assert np.count_nonzero(counts) == 4
    assert counts.sum() == 1080 * np.count_nonzero(levels >= 0)
    assert np.all(ids[levels < 0] == 0)
