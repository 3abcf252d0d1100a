"""Data-center substrate: servers, fleets, queueing, power, switching."""

from .fleet import ClassRows, Fleet, FleetAction, ServerGroup, default_fleet
from .power import LinearTariff, PowerModel, Tariff, TieredTariff, brown_energy
from .queueing import DELAY_UNIT_COST, DelayCostModel, MG1PSDelay, SquaredLoadDelay
from .server import WATT, ServerProfile, cubic_dvfs_profile, opteron_2380
from .switching import OPTERON_MAX_HOURLY_KWH, SwitchingCostModel

__all__ = [
    "ServerProfile",
    "opteron_2380",
    "cubic_dvfs_profile",
    "WATT",
    "ClassRows",
    "Fleet",
    "FleetAction",
    "ServerGroup",
    "default_fleet",
    "DelayCostModel",
    "MG1PSDelay",
    "SquaredLoadDelay",
    "DELAY_UNIT_COST",
    "PowerModel",
    "Tariff",
    "LinearTariff",
    "TieredTariff",
    "brown_energy",
    "SwitchingCostModel",
    "OPTERON_MAX_HOURLY_KWH",
]
