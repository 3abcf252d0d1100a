"""Whole-horizon vectorized P3 sweeps for homogeneous fleets.

The offline baselines (through :func:`repro.baselines.dual_sweep`: OPT's
and the T-step lookahead's dual bisection, PerfectHP's per-hour capped
subproblems) and every scenario's budget calibration repeatedly need
"solve every slot of the horizon for a given brown-energy penalty".  For
homogeneous fleets with a linear tariff the (servers-on, shared-speed)
candidates of
:class:`~repro.solvers.enumeration.HomogeneousEnumerationSolver` can be
searched for *all slots at once*: per slot and speed level, the smallest
optimal on-set size is found by bisection, then the levels are compared.
When delay is priced (``beta * delay_unit_cost > 0``) only the fleet's
:attr:`~repro.cluster.fleet.Fleet.nondominated_levels` are searched, as in
the per-slot engine: on the paper's Opteron fleet that is the top level
alone.  A paper year (8760 slots, 200 groups, one searched level of four)
sweeps in about 5 ms on a 2-CPU x86_64 host (33-50 ms with all four
levels searched).

The bisection is exact: at a fixed speed the slot objective is convex in
the servers-on count M -- a nonnegative weight times [affine in M]^+, plus
M*d(lambda/M, s), the perspective of a convex delay cost -- so the first
size at which it stops falling is the smallest minimizer.  That needs
price >= 0, q >= 0, V > 0 and PUE >= 1, which the sweep checks.

The sweep intentionally ignores switching charges (the baselines plan
without them; realized transitions are still billed by the simulator) and
the optional section-3.1 operational caps (the per-slot engines, and so
the baselines' replays, still honour them).  The per-slot deficit weight
``q`` may be a scalar or a per-slot array -- the latter is what PerfectHP's
per-hour multiplier search needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.power import LinearTariff
from .problem import InfeasibleError

__all__ = ["BatchResult", "batch_enumerate", "supports_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Per-slot optima of a vectorized sweep (see module docstring)."""

    servers_on: np.ndarray  # number of servers on per slot
    speed_level: np.ndarray  # shared speed level per slot (-1 when all off)
    it_power: np.ndarray  # MW
    brown_energy: np.ndarray  # MWh
    electricity_cost: np.ndarray  # $
    delay_cost: np.ndarray  # $
    cost: np.ndarray  # $ (g = e + beta kappa D)
    objective: np.ndarray  # V g + q y

    @property
    def total_brown(self) -> float:
        """Total brown energy over the sweep (MWh)."""
        return float(self.brown_energy.sum())

    @property
    def average_cost(self) -> float:
        """Mean hourly cost over the sweep ($)."""
        return float(self.cost.mean())


def supports_batch(model) -> bool:
    """Whether the fast sweep applies: homogeneous fleet + linear tariff."""
    return model.fleet.is_homogeneous and isinstance(model.tariff, LinearTariff)


def batch_enumerate(
    model,
    arrival: np.ndarray,
    onsite: np.ndarray,
    price: np.ndarray,
    *,
    q: np.ndarray | float = 0.0,
    V: float = 1.0,
    pue: np.ndarray | float | None = None,
) -> BatchResult:
    """Solve every slot's P3 (without switching terms) at once.

    Parameters
    ----------
    model:
        A :class:`~repro.core.config.DataCenterModel` with a homogeneous
        fleet and linear tariff (checked via :func:`supports_batch`).
    arrival, onsite, price:
        Per-slot inputs (req/s, MW, $/MWh).  Slots with no arrivals are
        left all off.
    q:
        Brown-energy penalty: scalar, or one value per slot.
    V:
        Cost weight (Eq. (16)).
    pue:
        Optional PUE override: scalar or per-slot array (defaults to the
        model's constant).

    Ties go to the fewest servers on, then the lowest speed level, as in
    the per-slot enumeration.  Raises :class:`InfeasibleError` when some
    slot's workload exceeds the fleet's capped capacity.
    """
    if not supports_batch(model):
        raise ValueError("batch sweep needs a homogeneous fleet and linear tariff")
    arrival = np.asarray(arrival, dtype=np.float64)
    onsite = np.asarray(onsite, dtype=np.float64)
    price = np.asarray(price, dtype=np.float64)
    n = arrival.size
    if onsite.size != n or price.size != n:
        raise ValueError("per-slot inputs must share a length")
    q_arr = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,))
    pue_arr = np.broadcast_to(
        np.asarray(
            model.power_model.pue if pue is None else pue, dtype=np.float64
        ),
        (n,),
    )
    # The preconditions of the convexity argument (module docstring).
    if np.any(price < 0):
        raise ValueError("electricity price must be non-negative")
    if np.any(q_arr < 0):
        raise ValueError("carbon-deficit weight must be non-negative")
    if not V > 0:
        raise ValueError("V must be positive")
    if np.any(pue_arr < 1.0):
        raise ValueError("PUE must be >= 1")

    fleet = model.fleet
    profile = fleet.groups[0].profile
    speeds = profile.speeds  # (K,)
    coeff = profile.energy_per_request  # (K,)
    prefix = np.concatenate(([0.0], np.cumsum(fleet.counts)))  # (G+1,)
    G = prefix.size - 1
    kappa = model.beta * model.delay_unit_cost
    cap_per_server = model.gamma * speeds  # (K,)
    # MW -> MWh per slot; delay cost likewise accrues over the slot length.
    slot_h = getattr(model, "slot_hours", 1.0)
    lam = arrival[:, None]  # (n, 1), against (n, L) arrays over searched levels

    def cell(j: np.ndarray, k: np.ndarray):
        """The slot terms of prefix size ``j`` at level ``k``, in the
        expression order of the full candidate grid (kept as
        ``tests/batch_oracle.py``), so every field matches it bit for bit."""
        M = prefix[j]
        load = np.minimum(lam / M, cap_per_server[k])
        it_power = M * (profile.static_power + coeff[k] * load)
        brown = np.maximum(pue_arr[:, None] * it_power - onsite[:, None], 0.0) * slot_h
        e_cost = price[:, None] * brown
        delay = M * model.delay_model.cost(load, speeds[k]) * slot_h
        g = e_cost + kappa * delay
        return it_power, brown, e_cost, delay, g, V * g + q_arr[:, None] * brown

    # With delay priced, a dominated level scores strictly worse than the
    # level that dominates it at every positive load (THEORY.md section 3),
    # so only the undominated ones are searched; zero-arrival slots are
    # masked off below.  Without a delay charge every level is searched.
    # The top level is never dominated, so a slot no searched level can
    # serve is one no level can.
    if kappa > 0:
        levels = np.array(fleet.nondominated_levels)
    else:
        levels = np.arange(speeds.size)
    window = cap_per_server[levels] * (1.0 + 1e-12)  # check_feasible's tolerance
    shape = (n, levels.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Smallest on-set serving the load at each level, G + 1 if none,
        # within check_feasible's (1 + 1e-12) window; the cells clamp the
        # per-server load of a window cell to its cap.
        j_min = _first_true(
            lambda j: lam / prefix[j] <= window,
            np.ones(shape, dtype=np.int64),
            np.full(shape, G + 1),
            top=G,
        )
        feasible = j_min <= G
        if not feasible.any(axis=1).all():
            raise InfeasibleError("some slot's workload exceeds capped capacity")
        # Smallest minimizer per level: the first j where f stops falling.
        j = _first_true(
            lambda j: cell(j + 1, levels)[-1] >= cell(j, levels)[-1],
            np.minimum(j_min, G),
            np.full(shape, G),
            top=G - 1,
        )
        f = np.where(feasible, cell(j, levels)[-1], np.inf)
        col = np.argmin(np.where(f == f.min(axis=1, keepdims=True), j, G + 1), axis=1)
        j = j[np.arange(n), col]
        k = levels[col]
        terms = cell(j[:, None], k[:, None])

    # Slots without arrivals stay all off: every term is nonnegative, so the
    # empty on-set ties for best, and ties go to fewer servers.
    busy = arrival > 0.0
    it_power, brown, e_cost, delay, g, obj = (
        np.where(busy, x[:, 0], 0.0) for x in terms
    )
    return BatchResult(
        servers_on=np.where(busy, prefix[j], 0.0),
        speed_level=np.where(busy, k, -1),
        it_power=it_power,
        brown_energy=np.where(busy, brown, np.maximum(-onsite, 0.0)),
        electricity_cost=e_cost,
        delay_cost=kappa * delay,
        cost=g,
        objective=obj,
    )


def _first_true(pred, lo: np.ndarray, hi: np.ndarray, *, top: int) -> np.ndarray:
    """Elementwise smallest ``j`` in ``[lo, hi]`` with ``pred(j)`` true, for
    a ``pred`` that is false then true along ``j`` and taken true at ``hi``.

    ``pred`` is only consulted at indices below ``hi``; elements already
    settled are evaluated at an index clipped to ``top`` and ignored.
    """
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        below = open_ & ~pred(np.minimum(mid, top))
        lo = np.where(below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)
