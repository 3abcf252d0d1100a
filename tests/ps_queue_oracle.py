"""Discrete-event M/G/1/PS queue simulator: the test oracle for Eq. (4).

The paper's evaluation is an "event-based simulation" whose delay metric is
the M/G/1/PS mean-number-in-system formula (Eq. (4)); this module is the
request-level simulator that *validates* that formula: jobs arrive
Poisson, bring i.i.d. service requirements, and share the server capacity
equally (processor sharing).  For M/G/1/PS the mean number in system is
``rho / (1 - rho)`` regardless of the service-time distribution
(insensitivity), which is exactly Eq. (4) with ``rho = lambda / x`` --
the property tests exercise this with exponential, deterministic, and
heavy-tailed service laws.

The simulator uses the *virtual-time* construction: under PS, each in-system
job accrues service at rate ``x / n(t)``; defining virtual time ``V`` with
``dV/dt = x / n(t)``, a job arriving at wall time ``a`` with requirement
``S`` (seconds of dedicated service times speed, i.e. "work") departs when
``V`` reaches ``V(a) + S``.  Completions therefore pop from a min-heap of
virtual departure thresholds, and between events ``V`` advances linearly --
an O((#jobs) log(#jobs)) exact simulation.

No command, workload or engine runs it: the slot simulator bills delay
with the analytic formula, and ``tests/test_events.py`` checks that
formula against this simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PSQueueStats", "simulate_ps_queue", "empirical_delay_sum"]


@dataclass(frozen=True)
class PSQueueStats:
    """Outcome of a processor-sharing simulation.

    Attributes
    ----------
    mean_jobs:
        Time-averaged number of jobs in system (the Eq. (4) quantity).
    mean_response_time:
        Average sojourn time of *completed* jobs (seconds).
    utilization:
        Busy fraction of the server.
    completed:
        Number of jobs that finished within the simulated window.
    duration:
        Simulated wall-clock seconds.
    """

    mean_jobs: float
    mean_response_time: float
    utilization: float
    completed: int
    duration: float


def simulate_ps_queue(
    arrival_rate: float,
    service_rate: float,
    *,
    duration: float,
    rng: np.random.Generator,
    service_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
    warmup_fraction: float = 0.1,
) -> PSQueueStats:
    """Simulate an M/G/1/PS queue for ``duration`` seconds.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival intensity ``lambda`` (req/s); must be below
        ``service_rate`` for stability.
    service_rate:
        Server speed ``x`` (req/s): work is measured so that a job's mean
        requirement is one unit and the server clears ``x`` units/second.
    duration:
        Wall-clock seconds to simulate (after warmup discard).
    rng:
        Randomness source.
    service_sampler:
        Draws job work requirements with mean 1; default exponential
        (M/M/1-PS).  PS mean metrics are insensitive to this choice.
    warmup_fraction:
        Leading fraction of the window excluded from the time averages.
    """
    if arrival_rate < 0 or service_rate <= 0:
        raise ValueError("need arrival_rate >= 0 and service_rate > 0")
    if arrival_rate >= service_rate:
        raise ValueError("queue unstable: arrival rate must be below service rate")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if service_sampler is None:
        service_sampler = lambda g, n: g.exponential(1.0, size=n)

    horizon = duration * (1.0 + warmup_fraction)
    warmup = duration * warmup_fraction

    # Pre-draw arrivals over the horizon.
    n_expect = int(arrival_rate * horizon * 1.3) + 16
    gaps = rng.exponential(1.0 / arrival_rate, size=n_expect) if arrival_rate > 0 else np.empty(0)
    arrivals = np.cumsum(gaps)
    while arrivals.size and arrivals[-1] < horizon:
        more = np.cumsum(rng.exponential(1.0 / arrival_rate, size=n_expect)) + arrivals[-1]
        arrivals = np.concatenate([arrivals, more])
    arrivals = arrivals[arrivals < horizon]
    works = service_sampler(rng, arrivals.size)
    if np.any(works <= 0):
        raise ValueError("service sampler must draw positive work")

    # Virtual-time sweep.
    heap: list[tuple[float, int]] = []  # (virtual departure threshold, job id)
    vnow = 0.0  # virtual time
    tnow = 0.0  # wall time
    area_jobs = 0.0  # integral of n(t) dt over [warmup, horizon]
    busy_time = 0.0
    response_sum = 0.0
    completed = 0
    arrival_wall: dict[int, float] = {}
    next_arrival = 0
    n_jobs = arrivals.size

    def advance(to_time: float) -> None:
        """Advance wall clock to ``to_time``, accruing integrals."""
        nonlocal tnow, vnow, area_jobs, busy_time
        dt = to_time - tnow
        n = len(heap)
        if n > 0:
            vnow += dt * service_rate / n
            lo = max(tnow, warmup)
            if to_time > lo:
                area_jobs += n * (to_time - lo)
            busy_time += dt
        tnow = to_time

    while True:
        t_arr = arrivals[next_arrival] if next_arrival < n_jobs else np.inf
        if heap:
            v_dep = heap[0][0]
            n = len(heap)
            t_dep = tnow + (v_dep - vnow) * n / service_rate
        else:
            t_dep = np.inf
        t_next = min(t_arr, t_dep, horizon)
        advance(t_next)
        if t_next >= horizon:
            break
        if t_dep <= t_arr:
            _, job = heapq.heappop(heap)
            response_sum += tnow - arrival_wall.pop(job)
            completed += 1
        else:
            heapq.heappush(heap, (vnow + works[next_arrival], next_arrival))
            arrival_wall[next_arrival] = tnow
            next_arrival += 1

    measured = horizon - warmup
    return PSQueueStats(
        mean_jobs=area_jobs / measured,
        mean_response_time=response_sum / completed if completed else 0.0,
        utilization=busy_time / horizon,
        completed=completed,
        duration=measured,
    )


def empirical_delay_sum(
    fleet,
    levels: np.ndarray,
    per_server_load: np.ndarray,
    *,
    duration: float = 2000.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Event-driven estimate of the Eq. (4) delay sum for a fleet action.

    Servers within a group are stochastically identical, so one server per
    *on* group is simulated and its mean jobs-in-system is multiplied by the
    group count -- the event-based counterpart of
    :meth:`Fleet.action_delay_sum`, used to validate the analytic model.
    """
    gen = rng if rng is not None else np.random.default_rng(13)
    levels = np.asarray(levels)
    total = 0.0
    for g in np.nonzero(levels >= 0)[0]:
        lam = float(per_server_load[g])
        if lam <= 0:
            continue
        x = float(fleet.speed_table[g, levels[g]])
        stats = simulate_ps_queue(lam, x, duration=duration, rng=gen)
        total += fleet.counts[g] * stats.mean_jobs
    return total
