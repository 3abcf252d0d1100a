"""`repro.profile`: where the wall-clock time actually goes.

Two tools behind ``repro profile``, turning "the run takes 0.63 s" into an
attribution to the functions that spend it:

- :class:`~repro.profile.sampler.StackSampler`: a signal-free sampling
  profiler built on ``sys.setprofile``, keyed off the same
  ``time.perf_counter`` clock the telemetry spans use.  Samples collapse
  into folded-stack lines (``a;b;c 42``), optionally prefixed with the live
  span path so flamegraphs and span trees line up.
- :mod:`~repro.profile.flame`: renders folded stacks as a self-contained
  HTML flame (icicle) view -- no external assets, openable from CI
  artifacts directly.

The profiler *observes* a run without participating in it: it never draws
from any RNG and never mutates profiled state, so a profiled run's outputs
are bit-identical to an unprofiled one.
"""

from .flame import flamegraph_html, write_flamegraph, write_folded
from .sampler import StackSampler

__all__ = [
    "StackSampler",
    "flamegraph_html",
    "write_flamegraph",
    "write_folded",
]
