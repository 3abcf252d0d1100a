"""Synthetic hourly wind-generation trace.

Companion to :mod:`repro.traces.solar`: the paper mixes CAISO solar and wind
for its on-site and off-site renewable supplies.  Wind differs from solar in
the ways that matter to an online energy-budgeting controller: it is
available at night, far less diurnally structured, strongly autocorrelated
over hours-to-days, and occasionally calm for long stretches.

We model hub-height wind speed as an AR(1) process with a Weibull-like
marginal (the standard wind-resource model), then map speed to turbine power
through the canonical cut-in / rated / cut-out power curve.
"""

from __future__ import annotations

import numpy as np

from .base import HOURS_PER_YEAR, Trace, ar1

__all__ = ["wind_trace"]


def _power_curve(
    speed: np.ndarray, cut_in: float, rated: float, cut_out: float
) -> np.ndarray:
    """Map wind speed (m/s) to normalized turbine output in [0, 1].

    Cubic ramp between cut-in and rated speed, flat at 1 until cut-out,
    zero outside -- the textbook three-segment curve.
    """
    ramp = ((speed - cut_in) / (rated - cut_in)) ** 3
    out = np.where(speed < cut_in, 0.0, np.where(speed < rated, ramp, 1.0))
    return np.where(speed >= cut_out, 0.0, out)


def wind_trace(
    horizon: int = HOURS_PER_YEAR,
    *,
    seed: int = 88,
    rng: np.random.Generator | None = None,
    persistence: float = 0.96,
    mean_speed: float = 7.0,
    speed_sigma: float = 3.2,
    cut_in: float = 3.0,
    rated: float = 12.0,
    cut_out: float = 25.0,
    seasonal_amplitude: float = 0.15,
) -> Trace:
    """Generate a normalized hourly wind-power trace.

    Parameters
    ----------
    horizon:
        Number of hourly slots.
    seed, rng:
        Randomness controls (``rng`` wins if supplied).
    persistence:
        Hourly AR(1) coefficient of the latent wind-speed process.
    mean_speed, speed_sigma:
        Marginal mean and spread of hub-height wind speed (m/s).
    cut_in, rated, cut_out:
        Turbine power-curve breakpoints (m/s).
    seasonal_amplitude:
        Relative strength of the springtime wind maximum typical of
        California sites.

    Returns
    -------
    Trace
        Output in [0, 1] (fraction of rated capacity); scale with
        :meth:`Trace.scale_to_total` for a target annual energy.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gen = rng if rng is not None else np.random.default_rng(seed)

    # Latent AR(1) Gaussian; stationary std chosen to hit speed_sigma.
    innov_sigma = np.sqrt(1.0 - persistence**2)
    innov = gen.normal(0.0, innov_sigma, size=horizon)
    innov[0] = gen.normal()  # the chain starts from its stationary law
    latent = ar1(innov, persistence)

    hour = np.arange(horizon, dtype=np.float64)
    seasonal = 1.0 + seasonal_amplitude * np.sin(
        2.0 * np.pi * (hour / HOURS_PER_YEAR - 0.12)
    )
    speed = np.maximum(mean_speed * seasonal + speed_sigma * latent, 0.0)
    values = _power_curve(speed, cut_in, rated, cut_out)
    return Trace(values, name="wind", unit="MW")
