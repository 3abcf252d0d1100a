"""Host-speed reference for the timed pass.

The benchmark runs on a few vCPUs of a shared host.  For a second or a
minute at a time a vCPU runs the same code up to twice as slowly, and
the vCPUs switch independently of one another, so a slow stretch can
outlast a whole run and a per-slot minimum over repeats does not remove
it.  Every time the timed pass reports is therefore taken at a reference
speed: a fixed kernel is timed beside the measured interval, and the
interval is multiplied by the kernel's time on a quiet host over its
time measured there.

Different code slows by different factors when the host is busy, so
there are two kernels (README, "How a run measures").  A slot of the
program is mostly interpreter work and follows :func:`interpreter_kernel`;
set-up is mostly work on large arrays (trace generation, the enumeration
tables) and follows :func:`array_kernel`, which slows less.  Both kernels
are this directory's code and no commit of the program changes them, so
a faster program still reads faster.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable

import numpy as np

__all__ = [
    "ARRAY_QUIET_S", "INTERPRETER_QUIET_S", "SpeedProbe", "array_kernel", "interpreter_kernel",
]

perf = time.perf_counter

#: Minimum gap between two samples in the slot loop, which is sampled
#: between slots, so a slot longer than this has a sample on each side.
SAMPLE_EVERY_S = 0.04

#: Samples this close to a measured interval give its local speed.  The
#: host changes speed every half second or more, rarely faster.
WINDOW_S = 0.1

_SMALL = np.linspace(0.0, 1.0, 200)
_LARGE = np.linspace(0.0, 1.0, 4000)


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


def _affine(item: _Item, k: int) -> float:
    return item.a * k + item.b


def interpreter_kernel() -> float:
    """About 0.45 ms of fixed work on a quiet host; returns a checksum.

    A third of the time goes to ufuncs on a fleet-sized array inside an
    interpreter loop, two thirds to building, calling and sorting small
    Python objects.
    """
    acc = 0.0
    x = _SMALL
    for i in range(24):
        y = np.minimum(x * (i + 1.0), 0.5) + np.sqrt(x)
        acc += float(y.sum()) + float(np.dot(x, y))
        for j in range(20):
            acc += (j * 0.5) % 3.0
    table: dict[int, float] = {}
    items = [_Item(i * 0.5, i) for i in range(150)]
    for k in range(6):
        for item in items:
            acc += _affine(item, k)
            table[item.b % 17] = acc
        items.sort(key=lambda item: (item.a * 7919) % 13)
    return acc + sum(table.values())


def array_kernel() -> float:
    """About 0.4 ms of sorts, scans and ufuncs on 4000-element arrays on
    a quiet host; returns a checksum."""
    acc = 0.0
    for i in range(4):
        z = np.sort(_LARGE * (i + 0.3) % 1.0)
        w = np.cumsum(z) / (1.0 + z)
        acc += float(w[-1]) + float(np.maximum(w - 0.5, 0.0).sum())
    return acc


#: Each kernel's time on this benchmark's host when nothing else runs on
#: its core (2 vCPU x86_64 VM, Xeon at 2.1 GHz, Python 3.11, numpy 2.4):
#: scaled times are what the work would take at that speed.
INTERPRETER_QUIET_S = 0.44e-3
ARRAY_QUIET_S = 0.38e-3


class SpeedProbe:
    """Samples of one kernel taken through a run, and the scale they give;
    ``quiet_s`` is the kernel's time on a quiet host."""

    def __init__(self, kernel: Callable[[], float], quiet_s: float) -> None:
        self.kernel = kernel
        self.quiet_s = quiet_s
        #: End time and duration of every sample, in time order.
        self.ends: list[float] = []
        self.durations: list[float] = []

    def due(self) -> bool:
        return not self.ends or perf() - self.ends[-1] >= SAMPLE_EVERY_S

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times, each after one untimed call
        that puts it back in cache; returns the wall time spent."""
        kernel = self.kernel
        begin = perf()
        for _ in range(count):
            kernel()
            start = perf()
            kernel()
            end = perf()
            self.ends.append(end)
            self.durations.append(end - start)
        return perf() - begin

    def scale(self, start: float, end: float) -> float:
        """``quiet_s`` over the median kernel time sampled within
        ``WINDOW_S`` of ``[start, end]`` (the nearest sample if none)."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        local = self.durations[lo:hi]
        if not local:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.ends)]
            i = min(near, key=lambda i: min(abs(self.ends[i] - start), abs(self.ends[i] - end)))
            local = [self.durations[i]]
        return self.quiet_s / statistics.median(local)
