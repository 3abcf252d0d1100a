"""Run-level metrics: counters, gauges, and histograms behind one registry.

Where the tracer answers "what happened at slot t", the registry answers
"how did the run behave overall": how long P3 solves took, how many GSD
iterations were needed, how deep the deficit queue got.  Components
get-or-create instruments by name (``registry.histogram("gsd.solve_time_s")``)
so metric identity is a string contract, not an object one -- the same
convention as Prometheus-style registries in production controllers.

Histograms keep every observation, so any percentile is exact: a run ends
at its horizon, and a histogram gains at most one sample per slot solve,
fewer rows than the run's record holds.  Registries from process-pool
workers merge losslessly via :meth:`MetricsRegistry.state` /
:meth:`MetricsRegistry.merge_state`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing total (events, MWh, solves)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        self.value += amount


class Gauge:
    """Last-observed value of a fluctuating quantity (queue depth, rate)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


class Histogram:
    """Distribution of observations, every one retained: exact percentiles."""

    __slots__ = ("name", "_values", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self._values.append(v)
        if v > self._max:
            self._max = v

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        # A fresh left-to-right sum, so merged and serial registries agree
        # bit for bit.
        return float(sum(self._values))

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    @property
    def max(self) -> float:
        return self._max if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100] (linear interpolation)."""
        return self.percentiles((p,))[0]

    def percentiles(self, ps) -> list[float]:
        """:meth:`percentile` of each ``p`` in ``ps``, from one sort.

        The arithmetic is numpy's default ``"linear"`` method, so each
        value equals ``np.percentile(values, p)`` bit for bit, without its
        per-call overhead (a serve board reads three quantiles per slot).
        """
        if not all(0.0 <= p <= 100.0 for p in ps):
            raise ValueError("percentile must be in [0, 100]")
        if not self._values:
            return [0.0] * len(ps)
        ordered = np.sort(np.asarray(self._values))
        if np.isnan(ordered[-1]):  # the sort puts NaNs last
            return [math.nan] * len(ps)
        last = ordered.size - 1
        out = []
        for p in ps:
            pos = last * (p / 100)
            lo = int(pos)
            if lo >= last:
                out.append(float(ordered[last]))
                continue
            a, b = float(ordered[lo]), float(ordered[lo + 1])
            t = pos - lo
            # Interpolate from the nearer neighbour, as numpy does.
            out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
        return out

    def values(self) -> np.ndarray:
        """Copy of the observations."""
        return np.asarray(self._values, dtype=np.float64)

    def _ingest(self, values, vmax: float | None) -> None:
        """Fold another histogram's exported values into this one (``vmax``
        is None when that histogram saw no observations)."""
        self._values.extend(float(v) for v in values)
        if vmax is not None and vmax > self._max:
            self._max = float(vmax)


class MetricsRegistry:
    """Name -> instrument store with get-or-create accessors.

    A name is bound to one instrument type for the registry's lifetime;
    asking for the same name with a different accessor raises, catching
    typo-induced double registration early.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # ----------------------------------------------------- reporting
    def snapshot_rows(self) -> list[dict]:
        """One flat dict per instrument, sorted by name (table-ready)."""
        rows: list[dict] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                rows.append({"metric": name, "type": "counter", "value": inst.value})
            elif isinstance(inst, Gauge):
                rows.append({"metric": name, "type": "gauge", "value": inst.value})
            else:
                p50, p90, p99 = inst.percentiles((50, 90, 99))
                rows.append(
                    {
                        "metric": name,
                        "type": "histogram",
                        "count": inst.count,
                        "mean": inst.mean,
                        "p50": p50,
                        "p90": p90,
                        "p99": p99,
                        "max": inst.max,
                    }
                )
        return rows

    # ----------------------------------------------------- merge transport
    def state(self) -> dict:
        """Picklable full state (for process-pool workers)."""
        return {
            "counters": {
                n: i.value for n, i in self._instruments.items() if isinstance(i, Counter)
            },
            "gauges": {
                n: i.value for n, i in self._instruments.items() if isinstance(i, Gauge)
            },
            "histograms": {
                n: {
                    "values": list(i._values),
                    "max": i._max if i._values else None,
                }
                for n, i in self._instruments.items()
                if isinstance(i, Histogram)
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`state` into this one.

        Counters add, histograms concatenate, gauges take the incoming
        value (last write wins, matching serial execution order).  Each
        histogram payload carries its values and their max.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in state.get("histograms", {}).items():
            self.histogram(name)._ingest(payload["values"], payload["max"])
