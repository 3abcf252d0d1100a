"""The one-class water-fill's closed form against the group-level oracle.

With a single (profile, level) class on, the balance ``sum n l = lambda``
alone fixes every on server's load at ``lambda / n``, and the dual is the
class's marginal price at that load, ``e + Wd d'(lambda / n, x)``
(THEORY.md §3).  :func:`~repro.solvers.distribute_load` answers such an
on-set without a bisection.  These tests pin that answer against the cold
group-level bisection of :mod:`tests.waterfill_oracle` on seeded random
one-class on-sets: linear and tiered tariffs, the billed and free regimes,
both delay models, one to six groups in the class, and failed groups.
"""

import itertools

import numpy as np
import pytest

from repro.cluster import (
    Fleet,
    MG1PSDelay,
    ServerGroup,
    cubic_dvfs_profile,
    opteron_2380,
)
from repro.cluster.power import LinearTariff, TieredTariff
from repro.cluster.queueing import SquaredLoadDelay
from repro.core import DataCenterModel
from repro.solvers import distribute_load
from repro.solvers.messaging import pricing_bill
from tests.waterfill_oracle import oracle_distribute, oracle_nu_bracket

#: The oracle's final nu bracket is one ulp wide, and the two sides round
#: differently: the closed form evaluates the marginal price once, the
#: oracle inverts it at every bisection step.  The closed-form dual may sit
#: a few ulps outside the bracket (3e-15 relative at worst on 400 seeds);
#: this widening is a hundredfold above that.
BRACKET_RTOL = 1e-13

SEEDS = range(25)
TARIFFS = ("linear", "tiered")
REGIMES = ("billed", "free")
DELAYS = {"mg1ps": MG1PSDelay(), "squared": SquaredLoadDelay()}


def _one_class_case(seed: int, tariff: str, regime: str, delay: str):
    """A random fleet of one profile with one class on: every up group at
    one level, or off; some groups failed.  Returns ``(problem, levels)``."""
    rng = np.random.default_rng(seed)
    profile = (opteron_2380, cubic_dvfs_profile)[seed % 2]()
    num_groups = int(rng.integers(1, 9))
    fleet = Fleet(
        [ServerGroup(profile, int(rng.integers(1, 1200))) for _ in range(num_groups)]
    )
    # Each group is failed, off or on, with at least one on.
    role = rng.integers(0, 3, size=num_groups)  # 0 failed, 1 off, 2 on
    role[rng.integers(0, num_groups)] = 2
    level = int(rng.integers(0, fleet.num_levels[0]))
    levels = np.where(role == 2, level, -1).astype(np.int64)
    failed = np.flatnonzero(role == 0).tolist()

    peak = fleet.max_power
    tariffs = {
        "linear": LinearTariff(),
        "tiered": TieredTariff(
            thresholds=(0.2 * peak, 0.5 * peak), multipliers=(1.0, 1.5, 3.0)
        ),
    }
    model = DataCenterModel(
        fleet=fleet,
        beta=float(rng.uniform(1.0, 20.0)),
        delay_model=DELAYS[delay],
        tariff=tariffs[tariff],
    )
    on = levels >= 0
    capacity = model.gamma * float(
        np.sum(fleet.counts[on] * fleet.speed_table[on, level])
    )
    problem = model.slot_problem(
        arrival_rate=float(rng.uniform(0.01, 0.999)) * capacity,
        onsite=0.0 if regime == "billed" else 10.0 * peak,
        price=float(rng.uniform(5.0, 120.0)),
        q=float(rng.uniform(0.0, 50.0)),
        V=float(rng.uniform(0.5, 200.0)),
        failed=failed or None,
    )
    return problem, levels


CASES = list(itertools.product(TARIFFS, REGIMES, DELAYS))


@pytest.mark.parametrize("tariff, regime, delay", CASES)
def test_closed_form_matches_oracle(tariff, regime, delay):
    for seed in SEEDS:
        problem, levels = _one_class_case(seed, tariff, regime, delay)
        got = distribute_load(problem, levels)
        want = oracle_distribute(problem, levels)
        assert len(got.classes) == 1
        assert got.inner_iters == 0

        assert got.regime == want.regime == regime
        assert got.electricity_weight == want.electricity_weight

        on = levels >= 0
        n = float(problem.fleet.counts[on].sum())
        load = got.class_load[0]
        assert load == pytest.approx(want.per_server_load[on], rel=1e-12)
        assert n * load == pytest.approx(problem.arrival_rate, rel=1e-15)
        assert got.served == pytest.approx(problem.arrival_rate, rel=1e-15)

        lo, hi = oracle_nu_bracket(problem, levels, want.electricity_weight)
        slack = BRACKET_RTOL * abs(hi)
        assert lo - slack <= got.nu <= hi + slack
        assert len(got.duals) == len(want.duals)
        for mine, theirs in zip(got.duals, want.duals):
            assert mine == pytest.approx(theirs, rel=BRACKET_RTOL)

        assert pricing_bill(problem, got) == pricing_bill(problem, want)
