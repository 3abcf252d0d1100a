"""Synthetic FIU-style workload trace generator.

The paper drives its default experiments with the server I/O usage log of
Florida International University over calendar year 2012, normalized to the
peak arrival rate and then scaled so the peak equals 1.1 M req/s (about 50%
of the simulated data center's full-speed capacity).  The raw trace is not
public, so this module synthesizes an *hourly* arrival-rate series with the
features the paper describes and that matter to the controller:

* a strong diurnal cycle (campus usage peaks in the afternoon),
* a weekly cycle (weekend load noticeably lower),
* an academic-calendar seasonal modulation with a pronounced surge in late
  July ("the trace exhibits a significant increase around late July, 2012,
  due to the summer activities" -- Fig. 1(a)),
* bursty multiplicative noise and occasional traffic spikes, the phenomenon
  motivating the paper's online (prediction-free) design.

All randomness flows through a caller-supplied or seeded
:class:`numpy.random.Generator` so traces are exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import HOURS_PER_DAY, HOURS_PER_YEAR, Trace, ar1

__all__ = ["fiu_workload", "DEFAULT_PEAK_REQ_PER_S"]

#: The paper scales the FIU trace so the maximum arrival rate is 1.1 M req/s.
DEFAULT_PEAK_REQ_PER_S = 1.1e6


def _diurnal_profile() -> np.ndarray:
    """Hour-of-day multipliers for a campus-driven service (length 24).

    Low overnight, ramping from ~7am, peaking early-to-mid afternoon, with a
    secondary evening shoulder from residential usage.
    """
    hours = np.arange(HOURS_PER_DAY)
    day = np.exp(-0.5 * ((hours - 14.0) / 4.5) ** 2)  # afternoon peak
    evening = 0.35 * np.exp(-0.5 * ((hours - 21.0) / 2.0) ** 2)
    base = 0.25
    profile = base + day + evening
    return profile / profile.max()


def _weekly_profile() -> np.ndarray:
    """Day-of-week multipliers, Monday-indexed (length 7)."""
    return np.array([1.0, 1.02, 1.03, 1.0, 0.95, 0.72, 0.68])


def _seasonal_profile(horizon_days: int) -> np.ndarray:
    """Day-of-year multipliers encoding the academic calendar.

    Spring and fall semesters run hot; intersession dips in May and December;
    a sharp late-July surge reproduces the distinctive feature of Fig. 1(a).
    """
    day = np.arange(horizon_days, dtype=np.float64)
    # Smooth semester envelope: two humps (spring, fall) via harmonics.
    year_frac = day / 365.0
    base = 0.85 + 0.10 * np.cos(4.0 * np.pi * (year_frac - 0.08))
    # Intersession dips (mid May ~ day 135, late December ~ day 355).
    base -= 0.12 * np.exp(-0.5 * ((day - 135.0) / 9.0) ** 2)
    base -= 0.15 * np.exp(-0.5 * ((day - 355.0) / 7.0) ** 2)
    # Late-July summer-activity surge (centered ~July 25 = day 206).
    base += 0.55 * np.exp(-0.5 * ((day - 206.0) / 10.0) ** 2)
    return base


def fiu_workload(
    horizon: int = HOURS_PER_YEAR,
    *,
    peak: float = DEFAULT_PEAK_REQ_PER_S,
    seed: int = 2012,
    rng: np.random.Generator | None = None,
    noise: float = 0.08,
    spike_rate_per_day: float = 0.05,
    spike_magnitude: float = 0.35,
) -> Trace:
    """Generate the FIU-style hourly arrival-rate trace.

    Parameters
    ----------
    horizon:
        Number of hourly slots (default one year, 8760).
    peak:
        Target maximum arrival rate in req/s after scaling (paper: 1.1e6).
    seed:
        Seed used when ``rng`` is not supplied.
    rng:
        Optional externally-managed random generator.
    noise:
        Standard deviation of the lognormal multiplicative hourly noise.
    spike_rate_per_day:
        Expected number of traffic-spike onsets per day; each spike lasts a
        few hours and lifts load by up to ``spike_magnitude`` of the peak.
    spike_magnitude:
        Relative amplitude of traffic spikes.

    Returns
    -------
    Trace
        Arrival-rate trace in req/s with ``max == peak``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gen = rng if rng is not None else np.random.default_rng(seed)

    days = int(np.ceil(horizon / HOURS_PER_DAY))
    hours = np.arange(days * HOURS_PER_DAY)
    hour_of_day = hours % HOURS_PER_DAY
    day_index = hours // HOURS_PER_DAY
    day_of_week = day_index % 7

    shape = (
        _diurnal_profile()[hour_of_day]
        * _weekly_profile()[day_of_week]
        * _seasonal_profile(days)[day_index]
    )

    # Smooth AR(1) weather/demand wander plus i.i.d. lognormal jitter.
    rho, sigma = 0.97, 0.02
    wander = ar1(gen.normal(0.0, sigma, size=len(hours)), rho)
    jitter = gen.lognormal(mean=0.0, sigma=noise, size=len(hours))

    values = shape * np.exp(wander) * jitter

    # Occasional multi-hour traffic spikes (flash crowds).
    n_spikes = gen.poisson(spike_rate_per_day * days)
    for _ in range(n_spikes):
        onset = int(gen.integers(0, len(hours)))
        duration = int(gen.integers(2, 8))
        amp = spike_magnitude * gen.uniform(0.3, 1.0)
        end = min(onset + duration, len(hours))
        ramp = np.linspace(1.0, 0.2, end - onset)
        values[onset:end] += amp * ramp

    values = values[:horizon]
    trace = Trace(values, name="fiu-workload", unit="req/s")
    return trace.scale_to_peak(peak)
