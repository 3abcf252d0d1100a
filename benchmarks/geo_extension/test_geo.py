"""Tests for the geo-distributed extension."""

import numpy as np
import pytest

from geo_extension import (
    GeoCOCA,
    GeoEnvironment,
    ProportionalGeo,
    Site,
    dispatch_slot,
    proportional_shares,
    simulate_geo,
)
from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.core import DataCenterModel
from repro.solvers import InfeasibleError
from repro.traces import Trace, fiu_workload, price_trace, solar_trace


def make_site(name, horizon, *, groups=4, servers=40, price_mean=35.0,
              price_seed=1, solar_scale=0.0, net_delay=0.0):
    fleet = Fleet([ServerGroup(opteron_2380(), servers) for _ in range(groups)])
    model = DataCenterModel(fleet=fleet, beta=10.0)
    onsite = solar_trace(horizon, seed=price_seed + 50)
    onsite = onsite.scale(solar_scale) if solar_scale > 0 else onsite.scale(0.0)
    price = price_trace(horizon, mean_price=price_mean, seed=price_seed)
    return Site(name=name, model=model, onsite=onsite, price=price,
                network_delay=net_delay)


@pytest.fixture(scope="module")
def geo_env():
    horizon = 24 * 5
    sites = (
        make_site("cheap-far", horizon, price_mean=20.0, price_seed=1, net_delay=0.08),
        make_site("dear-near", horizon, price_mean=60.0, price_seed=2, net_delay=0.0),
        make_site("sunny", horizon, price_mean=40.0, price_seed=3, solar_scale=0.02,
                  net_delay=0.03),
    )
    total_cap = sum(s.capacity() for s in sites)
    workload = fiu_workload(horizon, peak=0.5 * total_cap, seed=7)
    offsite = solar_trace(horizon, seed=99).scale_to_total(20.0)
    return GeoEnvironment(
        workload=workload, sites=sites, offsite=offsite, recs=30.0
    )


class TestSite:
    def test_validation(self):
        site = make_site("a", 48)
        assert site.horizon == 48
        with pytest.raises(ValueError):
            Site(
                name="bad",
                model=site.model,
                onsite=Trace(np.zeros(10)),
                price=Trace(np.ones(20)),
            )
        with pytest.raises(ValueError):
            Site(name="bad", model=site.model, onsite=site.onsite,
                 price=site.price, network_delay=-1.0)
        mixed = Fleet([ServerGroup(opteron_2380(), 8),
                       ServerGroup(cubic_dvfs_profile(), 12)])
        with pytest.raises(ValueError, match="homogeneous"):
            Site(name="mixed", model=DataCenterModel(fleet=mixed),
                 onsite=site.onsite, price=site.price)

    def test_slot_problem_carries_network_delay(self):
        site = make_site("a", 48, net_delay=0.07)
        p = site.slot_problem(3, 100.0, q=2.0, V=5.0)
        assert p.network_delay == 0.07
        assert p.q == 2.0 and p.V == 5.0


class TestDispatch:
    def test_shares_conserve_load(self, geo_env):
        total = geo_env.workload[10]
        result = dispatch_slot(geo_env.sites, 10, total)
        assert result.shares.sum() == pytest.approx(total, rel=1e-9)
        assert np.all(result.shares >= -1e-9)

    def test_respects_capacity(self, geo_env):
        caps = np.array([s.capacity() for s in geo_env.sites])
        total = 0.95 * caps.sum()
        result = dispatch_slot(geo_env.sites, 10, total)
        assert np.all(result.shares <= caps * (1 + 1e-9))

    def test_beats_proportional(self, geo_env):
        """The optimizer must never do worse than its own starting point."""
        t = 14
        total = geo_env.workload[t]
        optimized = dispatch_slot(geo_env.sites, t, total, rounds=30)
        fixed = dispatch_slot(
            geo_env.sites,
            t,
            total,
            rounds=0,
            initial_shares=proportional_shares(geo_env.sites, total),
        )
        assert optimized.total_objective <= fixed.total_objective + 1e-9

    def test_near_grid_optimum_two_sites(self):
        """Against a dense grid search on a 2-site instance."""
        horizon = 24
        sites = (
            make_site("a", horizon, price_mean=20.0, price_seed=11),
            make_site("b", horizon, price_mean=70.0, price_seed=12),
        )
        total = 0.5 * sum(s.capacity() for s in sites)
        result = dispatch_slot(sites, 5, total, rounds=40)

        best = np.inf
        caps = [s.capacity() for s in sites]
        for frac in np.linspace(0, 1, 201):
            xa = frac * total
            if xa > caps[0] or total - xa > caps[1]:
                continue
            from repro.solvers import HomogeneousEnumerationSolver

            sa = HomogeneousEnumerationSolver().solve(sites[0].slot_problem(5, xa))
            sb = HomogeneousEnumerationSolver().solve(
                sites[1].slot_problem(5, total - xa)
            )
            best = min(best, sa.objective + sb.objective)
        assert result.total_objective <= best * 1.01

    def test_prefers_cheap_site(self):
        """With identical latency, the cheap-power site should carry more."""
        horizon = 24
        sites = (
            make_site("cheap", horizon, price_mean=15.0, price_seed=21),
            make_site("dear", horizon, price_mean=90.0, price_seed=22),
        )
        total = 0.4 * sum(s.capacity() for s in sites)
        result = dispatch_slot(sites, 12, total, rounds=40)
        assert result.shares[0] > result.shares[1]

    def test_latency_pulls_load_back(self):
        """A large network-delay penalty on the cheap site offsets its
        price advantage."""
        horizon = 24
        near = make_site("near", horizon, price_mean=60.0, price_seed=31)
        cheap_far = make_site(
            "far", horizon, price_mean=20.0, price_seed=32, net_delay=5.0
        )
        total = 0.4 * (near.capacity() + cheap_far.capacity())
        result = dispatch_slot((near, cheap_far), 12, total, rounds=40)
        assert result.shares[0] > result.shares[1]

    def test_overload_rejected(self, geo_env):
        with pytest.raises(InfeasibleError):
            dispatch_slot(geo_env.sites, 0, 10.0 * geo_env.total_capacity)

    def test_zero_load(self, geo_env):
        result = dispatch_slot(geo_env.sites, 0, 0.0)
        assert result.total_brown >= 0.0
        assert result.shares.sum() == 0.0


class TestGeoEnvironment:
    def test_validation(self, geo_env):
        with pytest.raises(ValueError, match="horizons"):
            GeoEnvironment(
                workload=Trace(np.ones(10)),
                sites=geo_env.sites,
                offsite=geo_env.offsite,
                recs=0.0,
            )
        with pytest.raises(ValueError):
            GeoEnvironment(
                workload=geo_env.workload,
                sites=(),
                offsite=geo_env.offsite,
                recs=0.0,
            )

    def test_budget(self, geo_env):
        assert geo_env.carbon_budget == pytest.approx(
            geo_env.offsite.total + geo_env.recs
        )


class TestGeoCOCA:
    def test_full_run_conserves_and_records(self, geo_env):
        controller = GeoCOCA(geo_env, v=1.0, dispatch_rounds=10)
        record = simulate_geo(controller, geo_env)
        assert record.horizon == geo_env.horizon
        np.testing.assert_allclose(
            record.shares.sum(axis=1), geo_env.workload.values, rtol=1e-9
        )
        assert record.site_share_of_load().sum() == pytest.approx(1.0)

    def test_queue_enforces_global_neutrality(self, geo_env):
        tight = GeoCOCA(geo_env, v=1e-4, dispatch_rounds=10)
        tight_record = simulate_geo(tight, geo_env)
        loose = GeoCOCA(geo_env, v=1e6, dispatch_rounds=10)
        loose_record = simulate_geo(loose, geo_env)
        assert tight_record.total_brown <= loose_record.total_brown + 1e-9
        assert tight_record.average_cost >= loose_record.average_cost - 1e-9

    def test_beats_proportional_baseline(self, geo_env):
        coca = GeoCOCA(geo_env, v=1e6, dispatch_rounds=16)
        coca_record = simulate_geo(coca, geo_env)
        naive = ProportionalGeo(geo_env)
        naive_record = simulate_geo(naive, geo_env)
        assert coca_record.average_cost <= naive_record.average_cost * 1.001

    def test_warm_start_used(self, geo_env):
        controller = GeoCOCA(geo_env, v=1.0, dispatch_rounds=6)
        controller.decide(0)
        warm = controller._warm_start(1)
        assert warm is not None
        assert warm.sum() == pytest.approx(geo_env.workload[1], rel=1e-9)
