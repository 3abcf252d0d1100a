"""GSD as a distributed protocol: Algorithm 2 plus its message bill.

The paper's headline feature is *distributed* server-level resource
management: "each server autonomously adjusts its processing speed and
optimally decides the amount of workloads to process", with servers
communicating decisions to each other (or through a coordinating node, the
"semi-distributed" variant, section 4.2).  One solve of that protocol is:

* ``configure`` -- the coordinator broadcasts the slot's shared parameters
  (delay weight, PUE) to the G server groups;
* per Gibbs step, ``explore`` hands the update token to one random group,
  which draws a speed (Algorithm 2 line 7); the explored configuration is
  priced by the dual-decomposition load protocol of GSD line 3 (references
  [5, 27]): each ``price`` round broadcasts a dual price ``nu`` and every
  group answers with its best-response load and power, the coordinator
  bisects ``nu`` until supply meets demand and broadcasts the result
  (``commit``); ``decide`` then broadcasts accept or revert (line 5);
* the best configuration visited is installed (``set_level``) and priced
  once more.

Every group answers from its own profile plus the broadcast parameters, so
the protocol lands on the same loads as the centralized water-fill of
:mod:`repro.solvers.load_distribution` -- and the same Gibbs decisions.
:class:`DistributedGSD` is therefore :class:`~repro.solvers.gsd.GSDSolver`
itself: one chain, one RNG, one temperature, one evaluation cache.  What
it adds is a :class:`MessageTransport` that charges each protocol phase its
message count in closed form (:func:`pricing_bill`) and, when a fault injector
installs a lossy channel, draws the phase's message faults from a seeded
stream.  A lost pricing makes that exploration infeasible (the chain moves
on); lost ``configure``/``explore``/``decide``/``set_level`` traffic or a
final commit lost on every attempt raises :class:`BusTimeoutError`, which
the simulation layer retries and then degrades gracefully.

The message-level reference -- agents, an instrumented bus, the bisecting
coordinator, a bus that loses, delays and duplicates single messages --
lives in ``tests/protocol_oracle.py``; the tests pin the closed form and the
fault statistics to it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

import numpy as np

from .base import SlotSolution
from .fastpath import EvaluationCache
from .gsd import GSDSolver
from .load_distribution import ClassSolve
from .problem import SlotProblem

__all__ = ["BusTimeoutError", "DistributedGSD", "MessageTransport", "pricing_bill"]

#: Fixed bisection rounds of one ``nu`` search after its bracket doubling,
#: and ``mu`` steps of a boundary-regime pricing.
_NU_ROUNDS = 100
_MU_ROUNDS = 60

#: The coordinator doubles its ``nu`` bracket from 1 and stops once it
#: passes 1e300: an on-set whose capped capacity falls short of the load
#: costs the probes 2**0 .. 2**996 (2**997 > 1e300).  It is never
#: committed, unless the shortfall is a rounding error inside the 1e-12
#: capacity window: then every group is committed at its cap, the
#: unbounded dual ``nu = inf`` of :func:`~repro.solvers.distribute_load`.
_EXPANSION_ROUNDS = 997


class BusTimeoutError(RuntimeError):
    """A protocol round could not complete: some group's reply was never
    received within the retry budget (lost request, or a reply that missed
    the timeout window)."""


def _bisection_rounds(nu: float) -> int:
    """Price rounds of one ``nu`` bisection crossing at ``nu``: the bracket
    probes 1, 2, 4, ... up to the first power of two >= ``nu``
    (``max(0, ceil(log2 nu))`` doublings), the fixed bisection, and a final
    probe at the bracket top.  An infinite ``nu`` (every group at its cap)
    is the doubling run out, with no bisection."""
    if math.isinf(nu):
        return _EXPANSION_ROUNDS
    doublings = 0
    if nu > 1.0:
        mantissa, exponent = math.frexp(nu)
        doublings = exponent - 1 if mantissa == 0.5 else exponent
    return doublings + 1 + _NU_ROUNDS + 1


def pricing_bill(
    problem: SlotProblem, dist: ClassSolve | None
) -> tuple[int, bool]:
    """``(price rounds, committed)`` of pricing one configuration whose
    inner solve is ``dist`` (``None``: the on-set cannot carry the load).

    Regime *billed* runs one ``nu`` bisection, *free* two (full and zero
    electricity weight), *boundary* those two plus 60 ``mu`` steps of one
    bisection each.  A ``mu`` step's ``nu`` never exceeds the billed one
    (``nu`` grows with the electricity weight), so charging each step the
    billed doublings is an upper bound, exact up to ``60 *
    doublings(billed)`` rounds.  Each round is one ``price`` message per
    group, and a priced configuration is committed to every group.
    """
    if problem.arrival_rate <= 0.0:
        return 0, True
    if dist is None:
        return _EXPANSION_ROUNDS, False
    billed = _bisection_rounds(dist.duals[0])
    if dist.regime == "billed":
        return billed, True
    rounds = billed + _bisection_rounds(dist.duals[1])
    if dist.regime == "boundary":
        rounds += _MU_ROUNDS * billed
    return rounds, True


class MessageTransport:
    """Message ledger of one distributed solve, reliable or lossy.

    :meth:`send` charges one protocol phase -- a batch of messages, each
    retried up to ``retries`` extra times until answered -- and reports
    whether every message got through.  ``by_kind`` counts the protocol's
    messages (first attempts); ``delivered`` counts handler executions
    (re-sends and duplicates included, lost messages excluded).

    With fault probabilities and an ``rng`` the faults are drawn in
    distribution rather than per message: per attempt, one binomial draw of
    how many outstanding messages fail (lost, or delayed past the timeout),
    and further draws splitting them into dropped and delayed and counting
    duplicated deliveries.  The phase is lost exactly when some message
    still fails after its last attempt, with the probability of a bus that
    fails every attempt independently.
    """

    def __init__(
        self,
        num_groups: int,
        *,
        retries: int = 0,
        loss: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.num_groups = num_groups
        self.retries = retries
        self.loss = loss
        self.delay = delay
        self.duplicate = duplicate
        self.rng = rng
        self.by_kind: Counter[str] = Counter()
        self.delivered = 0
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.retries_used = 0
        self.pricings = 0
        self.lost_pricings = 0
        #: :meth:`~repro.solvers.fastpath.EvaluationCache.key` ->
        #: :func:`pricing_bill` of every configuration priced this solve, so
        #: revisits are charged without re-deriving it.
        self.bills: dict[tuple[float, ...], tuple[int, bool]] = {}

    def send(self, **counts: int) -> bool:
        """Charge one phase of ``kind=count`` messages; True when all of
        them were answered within the retry budget."""
        n = 0
        for kind, k in counts.items():
            if k:
                self.by_kind[kind] += k
                n += k
        if self.rng is None:
            self.delivered += n
            return True
        rng = self.rng
        fail = self.loss + self.delay
        for attempt in range(self.retries + 1):
            if attempt:
                self.retries_used += n
            failed = int(rng.binomial(n, fail)) if fail else 0
            dropped = int(rng.binomial(failed, self.loss / fail)) if failed else 0
            duplicated = (
                int(rng.binomial(n - failed, self.duplicate / (1.0 - fail)))
                if self.duplicate
                else 0
            )
            self.dropped += dropped
            self.delayed += failed - dropped
            self.duplicated += duplicated
            self.delivered += n - dropped + duplicated
            n = failed
            if not n:
                return True
        return False

    def price(self, bill: tuple[int, bool]) -> bool:
        """Charge one pricing of the load protocol; True when it completed."""
        rounds, committed = bill
        g = self.num_groups
        self.pricings += 1
        if self.send(price=g * rounds, commit=g if committed else 0):
            return True
        self.lost_pricings += 1
        return False

    def fault_stats(self) -> dict[str, int]:
        """Degradation counters for telemetry and run summaries."""
        return {
            "delivered": int(self.delivered),
            "dropped": int(self.dropped),
            "delayed": int(self.delayed),
            "duplicated": int(self.duplicated),
        }


class DistributedGSD(GSDSolver):
    """Algorithm 2 run as the distributed protocol over a message transport.

    The chain is :class:`~repro.solvers.gsd.GSDSolver`'s: the transport never
    touches the chain RNG, so on a reliable transport a solve makes exactly
    GSD's decisions and ``info`` adds the message bill (``messages``,
    ``messages_by_kind``, ``retries_used``).  ``retries`` is the per-message
    retry budget.  A fault injector sets ``transport_factory`` to hand each
    solve a lossy :class:`MessageTransport`; ``info["bus_faults"]`` then
    carries its delivered/dropped/delayed/duplicated counters.
    """

    def __init__(self, *, retries: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.retries = retries
        #: ``(num_groups, retries) -> MessageTransport``, set by
        #: :meth:`repro.faults.FaultInjector.install`; ``None`` is reliable.
        self.transport_factory: Callable[[int, int], MessageTransport] | None = None
        self.last_transport: MessageTransport | None = None
        self._cache: EvaluationCache | None = None

    def _scorer(
        self,
        problem: SlotProblem,
        cache: EvaluationCache,
        score: Callable[[EvaluationCache], float],
    ) -> Callable[[EvaluationCache], float]:
        g = problem.healthy.size  # failed groups take no part
        factory = self.transport_factory
        transport = (
            factory(g, self.retries)
            if factory is not None
            else MessageTransport(g, retries=self.retries)
        )
        self.last_transport = transport
        self._cache = cache
        if not transport.send(configure=g):
            raise BusTimeoutError("configure broadcast unanswered within retries")
        bills = transport.bills

        def priced(c: EvaluationCache) -> float:
            value = score(c)
            key = c.key()
            bill = bills.get(key)
            if bill is None:
                bill = bills[key] = pricing_bill(problem, c.distribution_of(key))
            return value if transport.price(bill) else math.inf

        return priced

    def solve(self, problem: SlotProblem) -> SlotSolution:
        solution = super().solve(problem)
        transport = self.last_transport
        g = transport.num_groups
        done = solution.info["iterations"]
        # The accept/revert traffic and the install of the best
        # configuration must reach every group, or their levels diverge
        # from the chain's.
        if not transport.send(explore=done, decide=g * done, set_level=g):
            raise BusTimeoutError("explore/decide traffic unanswered within retries")
        # The final commit spans hundreds of messages, so one lost round is
        # likely over a long lossy solve; re-running the (idempotent)
        # pricing a few times keeps a transient loss from dooming the solve
        # while a persistent outage still escapes.
        bill = transport.bills[self._cache.key_of(solution.action.levels)]
        for _ in range(1 if self.retries == 0 else 3):
            if transport.price(bill):
                break
        else:
            raise BusTimeoutError("final commit unanswered within retries")
        solution.info.update(
            messages=transport.delivered,
            messages_by_kind=dict(transport.by_kind),
            retries_used=transport.retries_used,
        )
        if transport.rng is not None:
            solution.info["bus_faults"] = transport.fault_stats()
        return solution
