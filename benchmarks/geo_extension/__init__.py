"""Geo-distributed extension: COCA across multiple data center sites.

Fuses the paper's online carbon-neutral control with geographical load
balancing (the related-work direction of [21, 29, 32]): one global carbon
budget and deficit queue, per-site fleets/prices/renewables/latencies, and
a marginal-cost-equalizing dispatcher.  ``bench_geo_extension.py`` runs it;
see DESIGN.md section 5.
"""

from .controller import GeoCOCA, GeoEnvironment, ProportionalGeo
from .dispatch import DispatchResult, dispatch_slot, proportional_shares
from .engine import GeoRecord, simulate_geo
from .site import Site

__all__ = [
    "Site",
    "GeoEnvironment",
    "GeoCOCA",
    "ProportionalGeo",
    "DispatchResult",
    "dispatch_slot",
    "proportional_shares",
    "GeoRecord",
    "simulate_geo",
]
