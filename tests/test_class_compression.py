"""Contract of the class-compressed water-fill against the group-level oracle.

:func:`repro.solvers.distribute_load` solves Eq. (18) over (profile, level)
classes, warm-started from a hint when one is given.  On randomized fleets
and slot problems it must agree with the cold group-level oracle
(:mod:`tests.waterfill_oracle`) on four things:

- the P3 objective, to <= 1e-9 relative error;
- the regime (billed / free / boundary);
- feasibility: :meth:`Fleet.validate_action` accepts the returned action;
- symmetry: every group of a class carries the same per-server load.

The draws cover heterogeneous profiles, unequal and zero server counts,
failed-group sub-fleets, peak-power and delay caps, switching costs, all
three regimes, both delay models, ``Wd == 0`` and a non-linear tariff.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Fleet, FleetAction, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.cluster.power import LinearTariff, TieredTariff
from repro.cluster.queueing import MG1PSDelay, SquaredLoadDelay
from repro.cluster.switching import SwitchingCostModel
from repro.core import DataCenterModel
from repro.solvers import InfeasibleError, SlotProblem, distribute_load
from tests.waterfill_oracle import oracle_distribute

OBJ_RTOL = 1e-9
_PROFILES = (opteron_2380, cubic_dvfs_profile)


@st.composite
def cases(draw):
    """A slot problem plus a level vector and a hint source."""
    G = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.integers(0, 1), min_size=G, max_size=G))
    counts = draw(st.lists(st.integers(1, 20), min_size=G, max_size=G))
    groups = [ServerGroup(_PROFILES[k](), n) for k, n in zip(kinds, counts)]
    if draw(st.booleans()):
        # A failed-group sub-fleet, built the way degraded solves build it.
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
    hint_kind = draw(st.sampled_from(["cold", "self", "neighbor"]))
    neighbor = levels.copy()
    g = draw(st.integers(0, G - 1))
    neighbor[g] = draw(st.integers(-1, int(fleet.num_levels[g]) - 1))
    caps = draw(st.sampled_from([None, 0.9, 1.1]))
    return problem, levels, regime, hint_kind, neighbor, caps


def _facility(problem, levels, dist):
    action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
    return problem.evaluate(action).facility_power


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


def _solve_shipped(problem, levels, hint_kind, neighbor):
    if hint_kind == "cold":
        return distribute_load(problem, levels)
    source = levels if hint_kind == "self" else neighbor
    try:
        hint = distribute_load(problem, source)
    except InfeasibleError:
        hint = None
    return distribute_load(problem, levels, hint=hint)


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(cases())
def test_compressed_matches_group_oracle(case):
    problem, levels, regime, hint_kind, neighbor, caps = case
    try:
        problem = _target_regime(problem, levels, regime)
        want = oracle_distribute(problem, levels)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            distribute_load(problem, levels)
        return
    got = _solve_shipped(problem, levels, hint_kind, neighbor)

    fleet = problem.fleet
    action_w = FleetAction(levels=levels, per_server_load=want.per_server_load)
    if caps is not None:
        # Caps straddling the oracle's own footprint: the verdicts must
        # agree on every draw whose value is not within 1e-9 of the cap.
        ev = problem.evaluate(action_w)
        problem = replace(
            problem,
            peak_power_cap=caps * ev.facility_power if ev.facility_power > 0 else None,
            max_delay_cost=caps * ev.delay_cost if ev.delay_cost > 0 else None,
        )
    ev_w = problem.evaluate(action_w)
    action_g = FleetAction(levels=levels, per_server_load=got.per_server_load)
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
    fleet.validate_action(
        levels, got.per_server_load, problem.arrival_rate, problem.gamma
    )
    ids, _, _ = fleet.class_histogram(levels)
    for cls in np.unique(ids[levels >= 0]):
        loads = got.per_server_load[ids == cls]
        assert np.all(loads == loads[0])


@pytest.mark.parametrize("regime", ["billed", "free", "boundary"])
def test_self_hint_takes_the_warm_path(regime):
    """The warm path is what ships: a self-hint must validate in every
    regime, so the randomized contract above exercises it."""
    fleet = Fleet(
        [ServerGroup(opteron_2380(), 7), ServerGroup(cubic_dvfs_profile(), 11)] * 3
    )
    model = DataCenterModel(fleet=fleet, beta=10.0)
    levels = np.array([3, 2, 1, 0, 3, 1], dtype=np.int64)
    p = model.slot_problem(
        arrival_rate=0.5 * model.gamma * float(
            np.sum(fleet.counts * fleet.group_speeds(levels))
        ),
        onsite=0.0,
        price=40.0,
        q=5.0,
    )
    p = _target_regime(p, levels, regime)
    cold = distribute_load(p, levels)
    assert cold.regime == regime
    warm = distribute_load(p, levels, hint=cold)
    assert warm.warm_started
    assert warm.regime == regime


def test_homogeneous_fleet_collapses_to_level_rows():
    """200 identical groups over mixed levels solve as at most 4 rows."""
    fleet = Fleet([ServerGroup(opteron_2380(), 1080) for _ in range(200)])
    levels = np.arange(200, dtype=np.int64) % 5 - 1
    ids, classes, counts = fleet.class_histogram(levels)
    assert classes.size == 4
    assert counts.sum() == 1080 * np.count_nonzero(levels >= 0)
    assert np.all(ids[levels < 0] == 0)
