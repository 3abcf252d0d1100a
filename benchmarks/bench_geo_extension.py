"""Extension bench: geo-distributed COCA vs naive dispatch.

Not a paper figure -- the ``geo_extension`` package beside this bench
extends the paper toward its related work (geographical load balancing
[21, 29, 32]).  Three sites with
different markets/renewables/latencies, one month, one global carbon
budget: GeoCOCA (marginal-cost dispatch + global deficit queue) against a
capacity-proportional carbon-unaware split.
"""

import numpy as np

from geo_extension import GeoCOCA, GeoEnvironment, ProportionalGeo, Site, simulate_geo
from repro.analysis import render_table
from repro.cluster import Fleet, ServerGroup, opteron_2380
from repro.core import DataCenterModel
from repro.traces import fiu_workload, price_trace, solar_trace, wind_trace

HORIZON = 24 * 30


def _site(name, price_mean, price_seed, renewable, delay):
    fleet = Fleet([ServerGroup(opteron_2380(), 60) for _ in range(4)])
    return Site(
        name=name,
        model=DataCenterModel(fleet=fleet, beta=10.0),
        onsite=renewable,
        price=price_trace(HORIZON, mean_price=price_mean, seed=price_seed),
        network_delay=delay,
    )


def test_geo_extension(benchmark, publish):
    sites = (
        _site("oregon", 22.0, 11, wind_trace(HORIZON, seed=41).scale(0.01), 0.06),
        _site("virginia", 55.0, 12, solar_trace(HORIZON, seed=42).scale(0.002), 0.0),
        _site("arizona", 38.0, 13, solar_trace(HORIZON, seed=43).scale(0.03), 0.02),
    )
    capacity = sum(s.capacity() for s in sites)
    env = GeoEnvironment(
        workload=fiu_workload(HORIZON, peak=0.5 * capacity, seed=5),
        sites=sites,
        offsite=wind_trace(HORIZON, seed=44).scale_to_total(110.0),
        recs=170.0,
    )

    def run():
        naive = simulate_geo(ProportionalGeo(env), env)
        lo, hi, v_star = 1e-4, 1e4, None
        for _ in range(7):
            mid = float(np.sqrt(lo * hi))
            rec = simulate_geo(GeoCOCA(env, v=mid, dispatch_rounds=10), env)
            if rec.is_neutral(env):
                lo, v_star = mid, mid
            else:
                hi = mid
        v_star = v_star if v_star is not None else lo
        best = simulate_geo(GeoCOCA(env, v=v_star, dispatch_rounds=10), env)
        return naive, best, v_star

    naive, geo, v_star = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "controller": rec.controller,
            "avg cost $/h": rec.average_cost,
            "brown MWh": rec.total_brown,
            "neutral": rec.is_neutral(env),
            **{
                f"{name} share": share
                for name, share in zip(rec.site_names, rec.site_share_of_load())
            },
        }
        for rec in (naive, geo)
    ]
    table = render_table(
        rows,
        title=f"Geo extension: proportional dispatch vs GeoCOCA (V*={v_star:.3g}, "
        "one month, 3 sites, global budget)",
    )
    publish("geo_extension", table)

    assert geo.is_neutral(env)
    assert geo.average_cost < naive.average_cost
    # The cheap site should carry more than its capacity share under GeoCOCA.
    assert geo.site_share_of_load()[0] > 1.05 / 3.0
    benchmark.extra_info["saving"] = 1 - geo.average_cost / naive.average_cost
