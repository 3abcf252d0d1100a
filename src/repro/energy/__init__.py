"""Energy and carbon substrate: renewables, RECs, neutrality accounting."""

from .carbon import CarbonLedger
from .rec_market import (
    PurchasingReport,
    ThresholdRECTrader,
    evaluate_purchasing,
    rec_price_trace,
)
from .renewables import RenewablePortfolio, onsite_mix

__all__ = [
    "RenewablePortfolio",
    "onsite_mix",
    "rec_price_trace",
    "ThresholdRECTrader",
    "PurchasingReport",
    "evaluate_purchasing",
    "CarbonLedger",
]
