"""Descriptive statistics for traces and run records.

Autocorrelation (how predictable the next hour is) and the one-stop trace
summary the report generator prints, peak-to-mean ratio included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.base import Trace

__all__ = [
    "autocorrelation",
    "TraceSummary",
    "summarize_trace",
]


def autocorrelation(values: np.ndarray, max_lag: int = 48) -> np.ndarray:
    """Sample autocorrelation at lags ``0..max_lag`` (biased estimator)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least two samples")
    max_lag = min(max_lag, values.size - 1)
    x = values - values.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return np.concatenate(([1.0], np.zeros(max_lag)))
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(np.dot(x[: values.size - lag], x[lag:])) / denom
    return out


@dataclass(frozen=True)
class TraceSummary:
    """One-stop descriptive summary of a trace."""

    name: str
    horizon: int
    mean: float
    peak: float
    p95: float
    peak_to_mean: float
    lag1_autocorr: float
    lag24_autocorr: float
    coefficient_of_variation: float

    def as_row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "trace": self.name,
            "mean": self.mean,
            "p95": self.p95,
            "peak": self.peak,
            "peak/mean": self.peak_to_mean,
            "rho(1h)": self.lag1_autocorr,
            "rho(24h)": self.lag24_autocorr,
            "CV": self.coefficient_of_variation,
        }


def summarize_trace(trace: Trace) -> TraceSummary:
    """Compute the :class:`TraceSummary` of a trace."""
    acf = autocorrelation(trace.values, max_lag=min(24, len(trace) - 1))
    mean = trace.mean
    return TraceSummary(
        name=trace.name,
        horizon=len(trace),
        mean=mean,
        peak=trace.peak,
        p95=float(np.quantile(trace.values, 0.95)),
        peak_to_mean=trace.peak / mean if mean > 0 else np.inf,
        lag1_autocorr=float(acf[1]) if acf.size > 1 else 1.0,
        lag24_autocorr=float(acf[24]) if acf.size > 24 else float("nan"),
        coefficient_of_variation=float(trace.values.std() / mean) if mean > 0 else np.inf,
    )
