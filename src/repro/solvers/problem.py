"""One-slot optimization problem **P3** (paper Eq. (16)).

Each time slot, COCA chooses a capacity-provisioning vector (per-group speed
levels) and a load distribution to minimize

    V * g(lambda, x)  +  q(t) * [ p(lambda, x) - r(t) ]^+

subject to the load constraints (7)-(8) and the discrete speed sets (9),
where ``g = e + beta * d`` combines electricity cost (Eq. (3)) and delay
cost (Eq. (4)), and ``q(t)`` is the carbon-deficit queue length.  Every
solver in this package consumes a :class:`SlotProblem`; every baseline that
needs "minimize cost with an extra per-MWh penalty ``mu`` on brown energy"
(the offline OPT dual, PerfectHP's capped subproblem, the lookahead
benchmark) reuses the same structure by setting ``q = mu`` and ``V = 1`` --
the carbon-deficit weight and a Lagrange multiplier enter the objective
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, compress
from operator import lt

import numpy as np

from ..cluster.fleet import Fleet, FleetAction
from ..cluster.power import LinearTariff, PowerModel, Tariff
from ..cluster.queueing import DELAY_UNIT_COST, DelayCostModel, MG1PSDelay
from ..cluster.switching import SwitchingCostModel

__all__ = ["SlotProblem", "SlotEvaluation", "InfeasibleError"]


def _is_canonical(failed) -> bool:
    """Whether a failed set is already a tuple of distinct ascending
    ``int`` indices (``bool`` and numpy integers are not ``int``)."""
    return (
        type(failed) is tuple
        and set(map(type, failed)) <= {int}
        and all(map(lt, failed, failed[1:]))
    )


class InfeasibleError(ValueError):
    """Raised when no action can serve the slot's workload within the
    utilization cap (violates the paper's feasibility assumption)."""


@dataclass(frozen=True)
class SlotEvaluation:
    """Cost breakdown of one action on one slot problem.

    All monetary values in dollars per slot; energies in MWh.
    """

    it_power: float
    facility_power: float
    brown_energy: float
    electricity_cost: float
    delay_sum: float
    delay_cost: float
    switching_energy: float
    switching_cost: float
    cost: float
    objective: float

    @property
    def total_cost(self) -> float:
        """Alias for the per-slot operational cost ``g`` (incl. switching)."""
        return self.cost


@dataclass(frozen=True)
class SlotProblem:
    """All inputs needed to pose and evaluate P3 for one slot.

    Parameters
    ----------
    fleet:
        The data center's server groups.
    arrival_rate:
        Total workload ``lambda(t)`` in req/s (the controller's *believed*
        value; prediction error is modeled upstream).
    onsite:
        Available on-site renewable power ``r(t)`` in MW.
    price:
        Posted electricity price ``w(t)`` in $/MWh.
    q:
        Carbon-deficit queue length (MWh) -- or a Lagrange multiplier in
        $/MWh when a baseline reuses this structure.
    V:
        Cost-carbon control parameter.
    beta:
        Paper's delay weight; the monetary weight per unit of Eq. (4)'s
        delay sum is ``beta * delay_unit_cost``.
    gamma:
        Maximum server utilization in (0, 1) (Eq. (7)).
    delay_model, power_model, tariff:
        Pluggable substrate models.
    delay_unit_cost:
        Dollars per delay-sum unit (see :mod:`repro.cluster.queueing`).
    switching:
        Optional switching-cost model; when provided together with
        ``prev_on_counts``, solvers may charge transitions inside the
        objective (switching-aware control) and the evaluation reports the
        transition energy.
    prev_on_counts:
        Per-group on-server counts from the previous slot.
    peak_power_cap:
        Optional facility-power ceiling in MW (section 3.1: "additional
        constraints, such as peak power ... can also be incorporated").
        Solvers treat configurations exceeding it as infeasible.
    max_delay_cost:
        Optional ceiling on the slot's delay cost in dollars (section 3.1's
        "maximum delay cost" constraint).  Enforced per configuration: a
        speed vector whose *optimal* load distribution still violates the
        cap is rejected.
    pue_override:
        Optional per-slot PUE replacing the power model's constant (the
        paper absorbs cooling into a "(time-varying) PUE factor").
    network_delay:
        Mean network delay between users and the data center for this slot,
        in the same per-request units as Eq. (4)'s response time (section
        2.3: it "can be approximately modeled as a certain (time-varying)
        variable and added into (4)").  Adds ``served_load * network_delay``
        to the delay sum; it scales with served load only, so it shifts
        reported costs without changing the optimization.
    slot_hours:
        Length of the slot in hours (default 1.0, the paper's hourly
        slotting).  Powers (MW) and energies (MWh) convert through this
        factor: switching *energy* enters facility *power* divided by the
        slot length, and brown energy is the power shortfall times the slot
        length.  With the historical implicit 1-hour slots the two were
        numerically interchangeable; at any other slot length they are not.
    failed:
        Server groups that are down this slot (fault injection), as group
        indices; ``None`` (or empty) when every group is up.  The paper's
        section 4.2 remark is that server failures just shrink the
        feasible set, and that is how the slot problem carries them: a
        failed group's only level is off.  Every engine solves on the full
        fleet with failed groups held at level ``-1``, searching the
        healthy groups in index order, and :meth:`check_feasible` reads
        the healthy groups' :attr:`capacity`.  The canonical form is a
        tuple of distinct ascending ``int`` indices, which is kept as
        given (the slot loop hands the controller that form); any other
        collection is sorted, deduplicated and converted.  An index out of
        range raises :class:`ValueError`; a set naming every group raises
        :class:`InfeasibleError`.
    """

    fleet: Fleet
    arrival_rate: float
    onsite: float
    price: float
    q: float = 0.0
    V: float = 1.0
    beta: float = 10.0
    gamma: float = 0.95
    delay_model: DelayCostModel = field(default_factory=MG1PSDelay)
    power_model: PowerModel = field(default_factory=PowerModel)
    tariff: Tariff = field(default_factory=LinearTariff)
    delay_unit_cost: float = DELAY_UNIT_COST
    switching: SwitchingCostModel | None = None
    prev_on_counts: np.ndarray | None = None
    peak_power_cap: float | None = None
    max_delay_cost: float | None = None
    network_delay: float = 0.0
    pue_override: float | None = None
    slot_hours: float = 1.0
    failed: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.onsite < 0:
            raise ValueError("on-site renewable supply must be non-negative")
        if self.price < 0:
            raise ValueError("electricity price must be non-negative")
        if self.q < 0:
            raise ValueError("carbon-deficit weight must be non-negative")
        if self.V <= 0:
            raise ValueError("V must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.prev_on_counts is not None:
            prev = np.asarray(self.prev_on_counts, dtype=np.float64)
            if prev.shape != (self.fleet.num_groups,):
                raise ValueError("prev_on_counts must have one entry per group")
            object.__setattr__(self, "prev_on_counts", prev)
        if self.peak_power_cap is not None and self.peak_power_cap <= 0:
            raise ValueError("peak power cap must be positive")
        if self.max_delay_cost is not None and self.max_delay_cost < 0:
            raise ValueError("max delay cost must be non-negative")
        if self.network_delay < 0:
            raise ValueError("network delay must be non-negative")
        if self.pue_override is not None and self.pue_override < 1.0:
            raise ValueError("PUE must be >= 1")
        if self.slot_hours <= 0:
            raise ValueError("slot length must be positive")
        failed = self.failed
        if failed is not None:
            if not _is_canonical(failed):
                failed = tuple(sorted({int(g) for g in failed}))
            for g in failed[:1] + failed[-1:]:
                if not 0 <= g < self.fleet.num_groups:
                    raise ValueError(f"failed group index {g} out of range")
            if len(failed) == self.fleet.num_groups:
                raise InfeasibleError("every server group has failed")
            object.__setattr__(self, "failed", failed or None)

    @cached_property
    def healthy(self) -> np.ndarray:
        """Indices of the groups that are up, ascending: every group when
        :attr:`failed` is ``None``."""
        mask = np.ones(self.fleet.num_groups, dtype=bool)
        if self.failed is not None:
            mask[list(self.failed)] = False
        return np.flatnonzero(mask)

    @cached_property
    def _survivors(self) -> tuple[float, list[float]]:
        """:attr:`capacity` and :attr:`prefix_servers` of a problem with
        failed groups, from one pass over the failed set and one over the
        groups that are up."""
        counts, caps = self.fleet.group_lists
        up = [True] * len(counts)
        for g in self.failed:
            up[g] = False
        return (
            self.gamma * float(sum(compress(caps, up))),
            [0.0, *accumulate(compress(counts, up))],
        )

    @property
    def capacity(self) -> float:
        """Usable service rate (req/s) of the groups that are up under the
        utilization cap (Eq. (7)), summed in index order, so it has the
        bits of :meth:`Fleet.capacity` of a fleet of those groups."""
        if self.failed is None:
            return self.fleet.capacity(self.gamma)
        return self._survivors[0]

    @property
    def prefix_servers(self) -> list[float]:
        """Servers in the first ``j`` groups that are up, ``j = 0, 1, ...``,
        as plain floats: the on-set sizes the exact engine searches.  The
        running sums add in :func:`numpy.cumsum` order, so they are
        :attr:`Fleet.prefix_servers` of a fleet of those groups."""
        if self.failed is None:
            return self.fleet.prefix_servers
        return self._survivors[1]

    # ------------------------------------------------------------------
    # Derived weights
    # ------------------------------------------------------------------
    @property
    def pue(self) -> float:
        """The slot's effective PUE: a per-slot override (time-varying PUE,
        footnote 1 of the paper) or the power model's constant."""
        return self.pue_override if self.pue_override is not None else self.power_model.pue

    @property
    def delay_weight(self) -> float:
        """Dollars per unit of the Eq. (4) delay sum: ``beta * kappa``."""
        return self.beta * self.delay_unit_cost

    @property
    def drops_dominated_levels(self) -> bool:
        """Whether a search may leave out every dominated speed level
        (:attr:`~repro.cluster.fleet.Fleet.profile_nondominated_levels`).

        With load to serve and delay priced, moving a group from a
        dominated level to the level that dominates it, at the same
        per-server load, lowers its delay cost and draws no more power, so
        the space of undominated levels still holds a minimiser
        (THEORY.md section 3).  Without either, every level is searched."""
        return self.arrival_rate > 0.0 and self.delay_weight > 0.0

    @property
    def electricity_weight(self) -> float:
        """Objective weight per MWh of brown energy in the linear regime:
        ``V * w(t) + q(t)`` (the P3 structure the paper highlights)."""
        return self.V * self.price + self.q

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleError` if the workload exceeds the
        healthy groups' capped capacity (assumption of section 3.2)."""
        cap = self.capacity
        if self.arrival_rate > cap * (1.0 + 1e-12):
            raise InfeasibleError(
                f"arrival rate {self.arrival_rate:.6g} req/s exceeds capped "
                f"capacity {cap:.6g} req/s"
            )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def brown_energy(self, it_power: float, extra_energy: float = 0.0) -> float:
        """Brown draw in MWh for the slot: the facility-power shortfall
        against the renewable supply, times the slot length.  The optional
        ``extra_energy`` (MWh, e.g. switching) enters the power balance
        divided by the slot length."""
        facility = (
            self.power_model.facility_power(it_power, pue=self.pue)
            + extra_energy / self.slot_hours
        )
        return max(facility - self.onsite, 0.0) * self.slot_hours

    def violates_caps(self, evaluation: "SlotEvaluation") -> bool:
        """Whether an evaluated action breaks the optional operational caps
        (peak facility power / maximum delay cost) of section 3.1."""
        return self.exceeds_caps(evaluation.facility_power, evaluation.delay_cost)

    def exceeds_caps(self, facility_power: float, delay_cost: float) -> bool:
        """:meth:`violates_caps` from the two evaluated quantities it reads."""
        if (
            self.peak_power_cap is not None
            and facility_power > self.peak_power_cap * (1 + 1e-12)
        ):
            return True
        if (
            self.max_delay_cost is not None
            and delay_cost > self.max_delay_cost * (1 + 1e-12)
        ):
            return True
        return False

    def evaluate(self, action: FleetAction) -> SlotEvaluation:
        """Full cost breakdown of an action, including the P3 objective
        value ``V * g + q * y`` (Eq. (16)) and any switching charges.

        The totals come from one pass over the action's class rows; its
        per-group levels are read only for the switching energy."""
        it_power, delay_sum, served = action.rows.totals(self.fleet, self.delay_model)
        return self.evaluate_totals(
            it_power, delay_sum, served, self.switching_energy(action.levels)
        )

    def switching_energy(self, levels: np.ndarray) -> float:
        """Switching energy (MWh) of moving from ``prev_on_counts`` to the
        on-set of ``levels``; zero without a switching model or a previous
        slot."""
        if self.switching is None or self.prev_on_counts is None:
            return 0.0
        on_counts = np.where(np.asarray(levels) >= 0, self.fleet.counts, 0.0)
        return self.switching.energy(self.prev_on_counts, on_counts)

    def evaluate_totals(
        self,
        it_power: float,
        delay_sum: float,
        served_load: float,
        switching_energy: float,
    ) -> SlotEvaluation:
        """:meth:`evaluate` from an action's fleet-wide totals: IT power
        (MW), the unweighted delay sum, the served load (req/s; read only
        when ``network_delay`` is set), and the switching energy (MWh).
        Lets a caller that already aggregated these -- an inner solve's
        class sums, say -- skip the pass over the rows."""
        facility, brown, e_cost, delay_sum, d_cost, g, objective = self.cost_terms(
            it_power, delay_sum, served_load, switching_energy
        )
        return SlotEvaluation(
            it_power=it_power,
            facility_power=facility,
            brown_energy=brown,
            electricity_cost=e_cost,
            delay_sum=delay_sum,
            delay_cost=d_cost,
            switching_energy=switching_energy,
            switching_cost=0.0,  # switching is charged as energy, inside e_cost
            cost=g,
            objective=objective,
        )

    def cost_terms(
        self,
        it_power: float,
        delay_sum: float,
        served_load: float,
        switching_energy: float,
    ) -> tuple[float, float, float, float, float, float, float]:
        """The scalar core of :meth:`evaluate_totals`, same arguments:
        ``(facility_power, brown_energy, electricity_cost, delay_sum,
        delay_cost, cost, objective)``, the delay sum with the network
        delay added.  A caller that reads only the objective and the caps
        (:meth:`exceeds_caps`) builds no :class:`SlotEvaluation`."""
        if self.network_delay > 0.0:
            delay_sum += self.network_delay * served_load

        # Powers are MW, energies MWh: switching energy enters the power
        # balance divided by the slot length, and brown energy is the power
        # shortfall times the slot length (both no-ops at 1-hour slots).
        facility = (
            self.power_model.facility_power(it_power, pue=self.pue)
            + switching_energy / self.slot_hours
        )
        brown = max(facility - self.onsite, 0.0) * self.slot_hours
        e_cost = self.tariff.cost(brown, self.price)
        d_cost = self.delay_weight * delay_sum * self.slot_hours
        g = e_cost + d_cost
        return facility, brown, e_cost, delay_sum, d_cost, g, self.V * g + self.q * brown

    def objective(self, action: FleetAction) -> float:
        """Shortcut for ``evaluate(action).objective``."""
        return self.evaluate(action).objective

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def carbon_unaware(self) -> "SlotProblem":
        """Copy with ``q = 0`` -- pure cost minimization (the paper's
        carbon-unaware algorithm, COCA's V -> infinity limit)."""
        return replace(self, q=0.0)
