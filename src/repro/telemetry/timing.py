"""Scoped wall-clock timers feeding histograms and spans.

``with telemetry.timer("gsd.solve_time_s") as t:`` measures the block with
``time.perf_counter`` and records the elapsed seconds into the named
histogram; ``t.elapsed`` is available afterwards for attaching to events.
When a span is open, the same clock pair also lands in the enclosing span's
aggregated child bucket of the same name (it rides the parent's own
``span`` event rather than paying for one of its own), so the existing
``gsd.*``/``cd.*``/``sim.*`` timer call sites gain parent attribution.
Disabled telemetry hands out the shared :data:`NULL_TIMER`, whose enter and
exit do nothing at all -- the hot loops stay clean of clock syscalls.
"""

from __future__ import annotations

import time

from .metrics import Histogram
from .spans import Span

__all__ = ["ScopedTimer", "NULL_TIMER"]


class ScopedTimer:
    """Context manager timing one block into a histogram and, when given
    an open ``parent`` span, into its child bucket named after the
    histogram."""

    __slots__ = ("_histogram", "_parent", "_start", "elapsed")

    def __init__(self, histogram: Histogram, parent: Span | None = None) -> None:
        self._histogram = histogram
        self._parent = parent
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "ScopedTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._start
        if self._parent is not None:
            self._parent.add(self._histogram.name, self.elapsed)
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
