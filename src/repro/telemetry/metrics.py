"""Run-level metrics: counters, gauges, and histograms behind one registry.

Where the tracer answers "what happened at slot t", the registry answers
"how did the run behave overall": how long P3 solves took, how many GSD
iterations were needed, how deep the deficit queue got.  Components
get-or-create instruments by name (``registry.histogram("gsd.solve_time_s")``)
so metric identity is a string contract, not an object one -- the same
convention as Prometheus-style registries in production controllers.

Histograms keep raw observations by default (batch runs are at most a few
hundred thousand slots), so any percentile is exact; registries from
process-pool workers merge losslessly via :meth:`MetricsRegistry.state` /
:meth:`MetricsRegistry.merge_state`.

Long-running services are the exception: ``repro serve`` observes one
latency sample per slot forever, so an unbounded raw list is a slow memory
leak.  ``MetricsRegistry(reservoir=N)`` opts every histogram into a
deterministic seeded reservoir (Algorithm R): the first ``N`` observations
are kept verbatim (percentiles stay exact), after which each new sample
replaces a uniformly-chosen slot, giving a uniform sample of the whole
stream under fixed memory.  ``count``/``total``/``mean``/``max`` stay exact
in either mode via running accumulators.
"""

from __future__ import annotations

import math
import zlib

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
    """Distribution of observations: exact by default, reservoir-bounded opt-in.

    Without ``reservoir``, every observation is retained and percentiles are
    exact (the original contract).  With ``reservoir=N``, at most ``N``
    observations are kept -- exact until ``N`` samples have arrived, a
    seeded uniform reservoir sample of the full stream afterwards -- while
    ``count``/``total``/``mean``/``max`` remain exact running statistics.
    The replacement draws come from a private ``numpy`` generator seeded
    from ``(seed, crc32(name))``, so identically-configured registries fed
    the same stream keep identical samples (no global RNG is touched).
    """

    __slots__ = ("name", "_values", "_reservoir", "_rng", "_stream", "_count", "_total", "_max")

    def __init__(self, name: str, *, reservoir: int | None = None, seed: int = 0) -> None:
        if reservoir is not None and reservoir <= 0:
            raise ValueError("reservoir size must be positive (or None for exact)")
        self.name = name
        self._values: list[float] = []
        self._reservoir = reservoir
        self._rng = (
            np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
            if reservoir is not None
            else None
        )
        self._stream = 0  # samples offered to the reservoir (drives slot choice)
        self._count = 0  # logical observations (exact, survives merges)
        self._total = 0.0
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self._count += 1
        self._total += v
        if v > self._max:
            self._max = v
        self._offer(v)

    def _offer(self, v: float) -> None:
        self._stream += 1
        r = self._reservoir
        if r is None or len(self._values) < r:
            self._values.append(v)
        else:
            j = int(self._rng.integers(0, self._stream))
            if j < r:
                self._values[j] = v

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        # Unbounded histograms recompute from the raw list so merged and
        # serial registries agree bit-for-bit (same left-to-right sum);
        # bounded (or cross-mode merged) ones use the running accumulator.
        if self._reservoir is None and self._count == len(self._values):
            return float(sum(self._values))
        return self._total

    @property
    def mean(self) -> float:
        return self.total / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100] (linear interpolation).

        Exact in unbounded mode; in reservoir mode, computed over the
        uniform sample (exact until the reservoir first fills).
        """
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
        """Copy of the retained observations (the reservoir sample if bounded)."""
        return np.asarray(self._values, dtype=np.float64)

    def _ingest(
        self,
        values,
        count: int | None = None,
        total: float | None = None,
        vmax: float | None = None,
    ) -> None:
        """Fold another histogram's exported state into this one."""
        vals = [float(v) for v in values]
        n = int(count) if count is not None else len(vals)
        t = float(total) if total is not None else float(sum(vals))
        m = float(vmax) if vmax is not None else (max(vals) if vals else None)
        if self._reservoir is None:
            self._values.extend(vals)
            self._stream += len(vals)
        else:
            for v in vals:
                self._offer(v)
        self._count += n
        self._total += t
        if m is not None and m > self._max:
            self._max = m


class MetricsRegistry:
    """Name -> instrument store with get-or-create accessors.

    A name is bound to one instrument type for the registry's lifetime;
    asking for the same name with a different accessor raises, catching
    typo-induced double registration early.
    """

    def __init__(self, *, reservoir: int | None = None, seed: int = 0) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._reservoir = reservoir
        self._seed = seed

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
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Histogram(name, reservoir=self._reservoir, seed=self._seed)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, not a Histogram"
            )
        return instrument

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
                    "count": i._count,
                    "total": i.total,
                    "max": i._max if i._count else None,
                }
                for n, i in self._instruments.items()
                if isinstance(i, Histogram)
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`state` into this one.

        Counters add, histograms concatenate (or feed the reservoir when
        bounded), gauges take the incoming value (last write wins, matching
        serial execution order).  Histogram payloads may be the legacy bare
        list of values or the dict form carrying exact count/total/max.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in state.get("histograms", {}).items():
            hist = self.histogram(name)
            if isinstance(payload, dict):
                hist._ingest(
                    payload.get("values", ()),
                    count=payload.get("count"),
                    total=payload.get("total"),
                    vmax=payload.get("max"),
                )
            else:
                hist._ingest(payload)
