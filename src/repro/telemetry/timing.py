"""Scoped wall-clock timers feeding histograms.

``with telemetry.timer("sim.solve_time_s") as t:`` measures the block with
``time.perf_counter`` and records the elapsed seconds into the named
histogram; ``t.elapsed`` is available afterwards for attaching to events.
A timer is not a span: attribution in the span tree comes from
``telemetry.span(...)`` alone, so no interval is booked twice.
Disabled telemetry hands out the shared :data:`NULL_TIMER`, whose enter and
exit do nothing at all -- the hot loops stay clean of clock syscalls.
"""

from __future__ import annotations

import time

from .metrics import Histogram

__all__ = ["ScopedTimer", "NULL_TIMER"]


class ScopedTimer:
    """Context manager timing one block into a histogram."""

    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "ScopedTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._start
        self._histogram.observe(self.elapsed)
        return False


class _NullTimer:
    """Do-nothing timer handed out by disabled telemetry."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Shared stateless instance.
NULL_TIMER = _NullTimer()
