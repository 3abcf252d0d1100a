"""Synthetic hourly real-time electricity price trace.

The paper assumes the data center participates in a real-time (hourly)
electricity market and uses CAISO's 2012 hourly price for Mountain View.
We synthesize a price series with the structure real-time LMP data shows:

* a diurnal shape (cheap overnight, expensive late afternoon),
* a weekday premium over weekends,
* a seasonal summer peak (air-conditioning load),
* mean-reverting stochastic wander, and
* occasional short lognormal price spikes (scarcity events).

Prices are in $/MWh, the native unit of wholesale markets; typical values
land in the $25-70/MWh band with spikes to a few hundred, matching 2012-era
CAISO statistics.
"""

from __future__ import annotations

import numpy as np

from .base import HOURS_PER_DAY, HOURS_PER_YEAR, Trace, ar1

__all__ = ["price_trace", "DEFAULT_MEAN_PRICE"]

#: Approximate 2012 CAISO average day-ahead price, $/MWh.
DEFAULT_MEAN_PRICE = 35.0


def _diurnal_shape() -> np.ndarray:
    """Hour-of-day multipliers for the price curve (length 24)."""
    hours = np.arange(HOURS_PER_DAY)
    evening_peak = np.exp(-0.5 * ((hours - 17.5) / 3.0) ** 2)
    morning_ramp = 0.4 * np.exp(-0.5 * ((hours - 8.0) / 2.0) ** 2)
    return 0.75 + 0.5 * evening_peak + morning_ramp


def price_trace(
    horizon: int = HOURS_PER_YEAR,
    *,
    mean_price: float = DEFAULT_MEAN_PRICE,
    seed: int = 55,
    rng: np.random.Generator | None = None,
    spike_rate_per_day: float = 0.08,
    spike_scale: float = 2.5,
    floor: float = 5.0,
) -> Trace:
    """Generate an hourly real-time price trace in $/MWh.

    Parameters
    ----------
    horizon:
        Number of hourly slots.
    mean_price:
        Target mean price ($/MWh) after shaping.
    seed, rng:
        Randomness controls (``rng`` wins if supplied).
    spike_rate_per_day:
        Expected scarcity-spike onsets per day.
    spike_scale:
        Mean multiplicative height of a spike.
    floor:
        Lower clamp ($/MWh); real-time prices rarely stay below this and the
        controller's cost model assumes non-negative prices.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gen = rng if rng is not None else np.random.default_rng(seed)

    hour = np.arange(horizon)
    hod = hour % HOURS_PER_DAY
    dow = (hour // HOURS_PER_DAY) % 7
    weekday = np.where(dow < 5, 1.0, 0.88)
    seasonal = 1.0 + 0.18 * np.exp(
        -0.5 * (((hour / HOURS_PER_DAY) % 365 - 200.0) / 40.0) ** 2
    )

    shape = _diurnal_shape()[hod] * weekday * seasonal

    # Mean-reverting wander (Ornstein-Uhlenbeck in discrete time).
    rho, sigma = 0.95, 0.035
    wander = ar1(gen.normal(0.0, sigma, size=horizon), rho)

    values = shape * np.exp(wander)

    # Scarcity spikes: short-lived multiplicative excursions.
    n_spikes = gen.poisson(spike_rate_per_day * horizon / HOURS_PER_DAY)
    for _ in range(n_spikes):
        onset = int(gen.integers(0, horizon))
        duration = int(gen.integers(1, 4))
        height = 1.0 + gen.exponential(spike_scale - 1.0)
        values[onset : onset + duration] *= height

    trace = Trace(values, name="electricity-price", unit="$/MWh")
    trace = trace.scale(mean_price / trace.mean)
    return trace.clip(lo=floor)
