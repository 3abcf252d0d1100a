"""Trace containers for hourly time series.

Every exogenous input to the COCA simulation -- workload arrival rates,
on-site/off-site renewable supply, electricity price -- is an hourly time
series over the budgeting period (the paper uses one year = 8760 slots).
:class:`Trace` is a thin, immutable wrapper around a 1-D ``float64`` NumPy
array that carries a name and a unit, and provides the handful of
transformations the experiments need: scaling to a target peak or total,
slicing, repetition, noise-free resampling, and moving averages.

The guides for this domain ask for vectorized NumPy throughout; all methods
here operate on whole arrays and return *new* traces (views are never
mutated in place, because traces are shared across experiment sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

__all__ = ["Trace", "HOURS_PER_DAY", "HOURS_PER_WEEK", "HOURS_PER_YEAR"]

HOURS_PER_DAY = 24
HOURS_PER_WEEK = 7 * 24
#: Non-leap year, matching the paper's Jan 1 -- Dec 31, 2012 budgeting period
#: truncated to 365 days (the paper reports hourly traces for one year).
HOURS_PER_YEAR = 365 * 24


@dataclass(frozen=True)
class Trace:
    """An immutable hourly time series.

    Parameters
    ----------
    values:
        1-D array of per-slot values. Stored as ``float64`` and made
        read-only so that traces can be shared between runs safely.
    name:
        Human-readable identifier (e.g. ``"fiu-workload"``).
    unit:
        Unit string for reporting (e.g. ``"req/s"``, ``"MW"``, ``"$/MWh"``).
    """

    values: np.ndarray
    name: str = "trace"
    unit: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"trace must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("trace must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trace contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, t: int) -> float:
        return float(self.values[t])

    @property
    def horizon(self) -> int:
        """Number of time slots in the trace."""
        return len(self)

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def peak(self) -> float:
        """Maximum value over the trace."""
        return float(self.values.max())

    @property
    def total(self) -> float:
        """Sum over all slots (e.g. total energy for an MW trace of 1 h slots)."""
        return float(self.values.sum())

    @property
    def mean(self) -> float:
        """Arithmetic mean over all slots."""
        return float(self.values.mean())

    # ------------------------------------------------------------------
    # Transformations (all return new traces)
    # ------------------------------------------------------------------
    def scale(self, factor: float) -> "Trace":
        """Multiply every value by ``factor``."""
        return replace(self, values=self.values * float(factor))

    def scale_to_peak(self, peak: float) -> "Trace":
        """Rescale so the maximum equals ``peak`` (paper: FIU trace scaled to
        a 1.1 M req/s peak)."""
        if self.peak <= 0:
            raise ValueError("cannot rescale a non-positive trace to a peak")
        return self.scale(float(peak) / self.peak)

    def scale_to_total(self, total: float) -> "Trace":
        """Rescale so the sum over slots equals ``total`` (paper: renewables
        scaled so on-site supply covers ~20% of consumption)."""
        if self.total <= 0:
            raise ValueError("cannot rescale a non-positive trace to a total")
        return self.scale(float(total) / self.total)

    def normalized(self) -> "Trace":
        """Divide by the peak so values lie in [min/peak, 1] (Fig. 1 style)."""
        return self.scale_to_peak(1.0)

    def clip(self, lo: float = 0.0, hi: float = np.inf) -> "Trace":
        """Clip values into ``[lo, hi]``."""
        return replace(self, values=np.clip(self.values, lo, hi))

    def shift(self, offset: float) -> "Trace":
        """Add a constant offset to every value."""
        return replace(self, values=self.values + float(offset))

    def slice(self, start: int, stop: int) -> "Trace":
        """Return the sub-trace for slots ``start:stop``."""
        if not (0 <= start < stop <= len(self)):
            raise ValueError(f"invalid slice [{start}:{stop}] for horizon {len(self)}")
        return replace(self, values=self.values[start:stop])

    def repeat_to(self, horizon: int) -> "Trace":
        """Tile the trace until it covers ``horizon`` slots, truncating the
        final repetition (paper: MSR one-week trace repeated for a year)."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        reps = int(np.ceil(horizon / len(self)))
        return replace(self, values=np.tile(self.values, reps)[:horizon])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Trace":
        """Apply an arbitrary vectorized transformation to the values."""
        return replace(self, values=np.asarray(fn(self.values), dtype=np.float64))

    def with_noise(
        self, rng: np.random.Generator, relative: float, floor: float = 0.0
    ) -> "Trace":
        """Multiply by i.i.d. uniform noise in ``[1-relative, 1+relative]``.

        This is the paper's recipe for extending the MSR week to a year
        ("adding random noises of up to +/-40%").
        """
        if relative < 0:
            raise ValueError("relative noise must be non-negative")
        factors = rng.uniform(1.0 - relative, 1.0 + relative, size=len(self))
        return replace(self, values=np.maximum(self.values * factors, floor))

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def daily_profile(self) -> np.ndarray:
        """Mean value for each hour-of-day (length-24 array)."""
        n = (len(self) // HOURS_PER_DAY) * HOURS_PER_DAY
        if n == 0:
            raise ValueError("trace shorter than one day")
        return self.values[:n].reshape(-1, HOURS_PER_DAY).mean(axis=0)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}[{len(self)}h] unit={self.unit or '-'} "
            f"mean={self.mean:.4g} peak={self.peak:.4g} total={self.total:.4g}"
        )
