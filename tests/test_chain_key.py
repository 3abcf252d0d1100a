"""The chain key :class:`~repro.solvers.fastpath.EvaluationCache` keeps.

The P3 objective of a level vector depends on it only through the on-set's
class histogram and its count of charged server transitions (the switching
energy is ``energy_per_toggle`` times the count).  The cache updates both
flip by flip; server counts are integers, so after any sequence of flips
and reverts the key must equal the from-scratch one bit for bit:
:meth:`~repro.cluster.fleet.Fleet.class_counts` and
:meth:`~repro.solvers.problem.SlotProblem.switching_energy`.  A failed
group's forced power-off is billed by the evaluation but decided by no
candidate, so the count leaves it out: it is the switching energy of the
problem with the failed groups' previous on-counts zeroed.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.cluster.switching import SwitchingCostModel
from repro.core import DataCenterModel
from repro.solvers import EvaluationCache
from tests.conftest import make_problem

SWITCHING = {
    "none": None,
    "on_only": SwitchingCostModel(energy_per_toggle=2.5e-4),
    "charge_off": SwitchingCostModel(energy_per_toggle=2.5e-4, charge_off=True),
}


def _problem(switching, failed):
    profiles = (opteron_2380, cubic_dvfs_profile)
    counts = (7, 12, 3, 20, 9, 15, 1, 11)
    fleet = Fleet(
        [ServerGroup(profiles[g % 2](), n) for g, n in enumerate(counts)]
    )
    # Last slot: some groups fully on, some off, some partly on (a
    # realized action that dropped servers), so both transition
    # directions occur and charge_off matters.
    prev = np.array([7.0, 0.0, 1.0, 20.0, 0.0, 15.0, 1.0, 4.0])
    model = DataCenterModel(fleet=fleet, beta=10.0)
    problem = make_problem(model, lam_frac=0.3, q=5.0, failed=failed)
    return dataclasses.replace(problem, switching=switching, prev_on_counts=prev)


def _scoring(problem):
    """The problem whose switching energy a score charges."""
    if problem.failed is None:
        return problem
    prev = problem.prev_on_counts.copy()
    prev[list(problem.failed)] = 0.0
    return dataclasses.replace(problem, prev_on_counts=prev)


def _assert_key_from_scratch(cache, problem):
    levels = np.array(cache.levels)
    key = cache.key()
    hist = problem.fleet.class_counts(levels)[1]
    assert np.array(key[:-1]).tobytes() == hist.tobytes()
    per_toggle = 0.0 if problem.switching is None else problem.switching.energy_per_toggle
    energy = per_toggle * key[-1]
    assert energy.hex() == _scoring(problem).switching_energy(levels).hex()
    assert key == cache.key_of(levels)


@pytest.mark.parametrize("failed", [None, (1, 4)], ids=["healthy", "failed"])
@pytest.mark.parametrize("switching", list(SWITCHING), ids=list(SWITCHING))
def test_incremental_key_matches_from_scratch(switching, failed):
    problem = _problem(SWITCHING[switching], failed)
    fleet = problem.fleet
    healthy = problem.healthy.tolist()
    rng = np.random.default_rng(17)
    cache = EvaluationCache(problem)
    start = (fleet.num_levels - 1).astype(np.int64)
    start[list(failed or ())] = -1
    cache.reset(start)
    _assert_key_from_scratch(cache, problem)
    for _ in range(600):
        g = healthy[int(rng.integers(len(healthy)))]
        old = cache.levels[g]
        cache.flip(g, int(rng.integers(-1, fleet.num_levels[g])))
        _assert_key_from_scratch(cache, problem)
        if rng.random() < 0.5:  # revert, as a rejected proposal does
            cache.move(g, old)
            _assert_key_from_scratch(cache, problem)
    if switching != "none":
        assert cache.key()[-1] > 0.0  # the walk did charge transitions


def test_vectors_with_one_key_share_one_memo_entry():
    """Three equal groups, the first two on last slot.  Moving the one on
    group from 0 to 1 keeps the key (one group of ten switched off): a memo
    hit, no solve.  Moving it on to group 2 keeps the histogram but
    charges thirty transitions: the inner solve is reused and only the
    switching term is new."""
    fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
    problem = dataclasses.replace(
        make_problem(DataCenterModel(fleet=fleet, beta=10.0), lam_frac=0.2, q=5.0),
        switching=SWITCHING["charge_off"],
        prev_on_counts=np.array([10.0, 10.0, 0.0]),
    )
    cache = EvaluationCache(problem)
    first = cache.reset([3, -1, -1])
    cache.move(0, -1)
    assert cache.flip(1, 3) == first
    cache.move(1, -1)
    third = cache.flip(2, 3)
    assert cache.key()[-1] == 30.0
    stats = cache.stats
    assert (stats.inner_solves, stats.cache_hits, stats.histogram_hits) == (1, 1, 1)
    assert third > first
