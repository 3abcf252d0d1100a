"""Message-level distributed GSD: the test oracle for the protocol bill.

:class:`repro.solvers.messaging.DistributedGSD` runs GSD's chain and charges
each protocol phase its message count in closed form
(:func:`~repro.solvers.messaging.pricing_bill`), drawing message faults per
phase in distribution.  This module keeps the protocol itself, message by
message, so tests can pin the shipped bill and fault statistics to it:

* :class:`MessageBus` -- an in-process, instrumented fabric (deliveries,
  per-kind counters) standing in for the data center network, and
  :class:`FaultyMessageBus`, which loses, delays and duplicates single
  messages with one uniform draw per send;
* :class:`ServerAgent` -- one autonomous group of homogeneous servers that
  knows *only its own* profile plus whatever the coordinator broadcasts;
* :class:`DualLoadCoordinator` -- the dual-decomposition load protocol of
  GSD line 3: it broadcasts a price ``nu`` (and an electricity weight for
  the ``[.]^+`` regime), each agent answers with its best-response load and
  power, and the coordinator bisects until supply meets demand;
* :class:`BusDistributedGSD` -- Algorithm 2 end to end over the bus, with
  per-message retries (:func:`exchange`): a lost pricing marks that
  exploration infeasible, lost explore/decide/set_level traffic raises
  :class:`~repro.solvers.messaging.BusTimeoutError`.

It is not importable from the package and no engine calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.fleet import Fleet
from repro.faults import MessageFaultProfile
from repro.solvers.base import SlotSolution, SlotSolver
from repro.solvers.messaging import BusTimeoutError
from repro.solvers.problem import InfeasibleError, SlotProblem
from tests.billing_oracle import action_from_loads, evaluate

__all__ = [
    "Message",
    "MessageBus",
    "FaultyMessageBus",
    "ServerAgent",
    "DualLoadCoordinator",
    "BusDistributedGSD",
    "exchange",
]

#: Bisection rounds used by the coordinator (matches the centralized solver).
_NU_ROUNDS = 100
_MU_ROUNDS = 60


def exchange(
    bus: "MessageBus",
    sender: str,
    recipient: str,
    kind: str,
    payload: dict[str, Any],
    *,
    retries: int = 0,
) -> "Message":
    """Send and wait for the reply, retrying on a silent bus.

    Every protocol message is acknowledged by its handler, so a ``None``
    return from :meth:`MessageBus.send` means the fabric ate the request or
    the reply; the message is re-sent up to ``retries`` extra times before
    :class:`BusTimeoutError` is raised.  On a reliable bus with
    ``retries=0`` this is exactly one ``send``.
    """
    attempts = retries + 1
    for _ in range(attempts):
        reply = bus.send(Message(sender, recipient, kind, payload))
        if reply is not None:
            return reply
    raise BusTimeoutError(
        f"no reply from {recipient!r} to {kind!r} after {attempts} attempt(s)"
    )


@dataclass(frozen=True)
class Message:
    """One message on the fabric."""

    sender: str
    recipient: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


class MessageBus:
    """Instrumented point-to-point + broadcast fabric."""

    def __init__(self) -> None:
        self.delivered: int = 0
        self.by_kind: Counter[str] = Counter()
        self._agents: dict[str, ServerAgent] = {}

    def register(self, agent: "ServerAgent") -> None:
        """Attach an agent under its unique name."""
        if agent.name in self._agents:
            raise ValueError(f"duplicate agent name {agent.name!r}")
        self._agents[agent.name] = agent

    @property
    def agent_names(self) -> list[str]:
        """Names of registered agents, in registration order."""
        return list(self._agents)

    def send(self, message: Message) -> Message | None:
        """Deliver one message; returns the recipient's reply, if any."""
        agent = self._agents.get(message.recipient)
        if agent is None:
            raise KeyError(f"unknown recipient {message.recipient!r}")
        self.delivered += 1
        self.by_kind[message.kind] += 1
        return agent.handle(message)

    def broadcast(self, sender: str, kind: str, payload: dict[str, Any]) -> list[Message]:
        """Deliver to every agent; returns the non-None replies."""
        replies = []
        for name in self._agents:
            reply = self.send(Message(sender, name, kind, payload))
            if reply is not None:
                replies.append(reply)
        return replies


class FaultyMessageBus(MessageBus):
    """A :class:`MessageBus` with seeded loss/delay/duplication.

    * **loss** -- the message vanishes before delivery; the sender sees no
      reply (``None``).
    * **delay** -- the message *is* delivered (the recipient's handler runs
      and its state changes), but the reply arrives after the sender's
      timeout window, so the sender still sees ``None``.
    * **duplicate** -- the message is delivered twice back to back (agent
      handlers are overwrite-idempotent); the sender receives the second
      reply.

    One uniform variate is drawn per ``send``.  Besides the base counters it
    tracks ``dropped`` / ``delayed`` / ``duplicated``.
    """

    def __init__(
        self,
        *,
        loss: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        # Reuse the profile's validation (ranges, total mass below 1).
        profile = MessageFaultProfile(loss=loss, delay=delay, duplicate=duplicate)
        self.loss = profile.loss
        self.delay = profile.delay
        self.duplicate = profile.duplicate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    def send(self, message: Message) -> Message | None:
        u = float(self.rng.random())
        if u < self.loss:
            # Unknown recipients still fail loudly -- a lost message must
            # not mask an addressing bug.
            if message.recipient not in self._agents:
                raise KeyError(f"unknown recipient {message.recipient!r}")
            self.dropped += 1
            return None
        if u < self.loss + self.delay:
            super().send(message)
            self.delayed += 1
            return None
        if u >= 1.0 - self.duplicate:
            super().send(message)
            self.duplicated += 1
            return super().send(message)
        return super().send(message)

    def fault_stats(self) -> dict[str, int]:
        """Degradation counters."""
        return {
            "delivered": int(self.delivered),
            "dropped": int(self.dropped),
            "delayed": int(self.delayed),
            "duplicated": int(self.duplicated),
        }


class ServerAgent:
    """One autonomous server group.

    The agent's knowledge is local: its own speed set, power curve, server
    count, and utilization cap.  Broadcast parameters (delay weight, PUE)
    arrive via ``configure``.
    """

    def __init__(self, name: str, fleet: Fleet, group_index: int):
        self.name = name
        g = fleet.groups[group_index]
        self.group_index = group_index
        self.count = float(g.count)
        self.speeds = g.profile.speeds
        self.dyn_coeff = g.profile.energy_per_request
        self.static_power = g.profile.static_power
        self.num_levels = g.profile.num_speeds
        # Mutable local state
        self.level: int = self.num_levels - 1
        self.explored_level: int = self.level
        self.load: float = 0.0
        self._gamma = 0.95
        self._delay_weight = 0.0
        self._pue = 1.0
        self._delay_model = None

    def handle(self, msg: Message) -> Message | None:
        """Dispatch on message kind; see the module docstring."""
        handler = getattr(self, f"_on_{msg.kind.replace('-', '_')}", None)
        if handler is None:
            raise ValueError(f"{self.name}: unknown message kind {msg.kind!r}")
        return handler(msg)

    def _reply(self, msg: Message, kind: str, **payload: Any) -> Message:
        return Message(self.name, msg.sender, kind, payload)

    # Side-effect handlers acknowledge so a sender on an unreliable bus can
    # distinguish "delivered" from "lost" and retry; every handler is
    # overwrite-idempotent, so duplicated deliveries are harmless.
    def _on_configure(self, msg: Message) -> Message:
        p = msg.payload
        self._gamma = p["gamma"]
        self._delay_weight = p["delay_weight"]  # V * beta * kappa
        self._pue = p["pue"]
        self._delay_model = p["delay_model"]
        return self._reply(msg, "ack")

    def _on_set_level(self, msg: Message) -> Message:
        self.level = int(msg.payload["level"])
        self.explored_level = self.level
        return self._reply(msg, "ack")

    def _on_explore(self, msg: Message) -> Message:
        """The update token (Algorithm 2 line 7): draw a random speed."""
        rng: np.random.Generator = msg.payload["rng"]
        self.explored_level = int(rng.integers(-1, self.num_levels))
        return self._reply(msg, "explored", level=self.explored_level)

    def _on_decide(self, msg: Message) -> Message:
        """Accept/revert broadcast (Algorithm 2 line 5)."""
        if msg.payload["accept"]:
            self.level = self.explored_level
        else:
            self.explored_level = self.level
        return self._reply(msg, "ack")

    def _price_response(self, nu: float, we: float, level: int) -> tuple[float, float]:
        """Local best-response load (aggregate req/s) and dynamic IT power
        (MW) at dual price ``nu`` with electricity weight ``we`` ($/MWh)."""
        if level < 0:
            return 0.0, 0.0
        x = float(self.speeds[level])
        c = float(self.dyn_coeff[level])
        cap = self._gamma * x
        wd = self._delay_weight
        marginal_room = nu - we * self._pue * c
        if wd <= 0.0:
            lam = cap if marginal_room > 0 else 0.0
        elif marginal_room <= 0.0:
            lam = 0.0
        else:
            lam = float(
                np.clip(
                    self._delay_model.load_at_marginal(marginal_room / wd, x),
                    0.0,
                    cap,
                )
            )
        return self.count * lam, self.count * c * lam

    def _on_price(self, msg: Message) -> Message:
        level = self._active_level(msg)
        served, dyn_power = self._price_response(msg.payload["nu"], msg.payload["we"], level)
        static = self.count * self.static_power if level >= 0 else 0.0
        return self._reply(msg, "response", served=served, power=dyn_power + static)

    def _on_commit(self, msg: Message) -> Message:
        served, _ = self._price_response(
            msg.payload["nu"], msg.payload["we"], self._active_level(msg)
        )
        self.load = served / self.count
        return self._reply(msg, "ack")

    def _active_level(self, msg: Message) -> int:
        return self.explored_level if msg.payload.get("explored", False) else self.level


class DualLoadCoordinator:
    """Semi-distributed dual-decomposition load distribution (GSD line 3).

    The coordinator knows the slot's aggregate quantities but not any
    server's power curve; all per-group information arrives through price
    responses.  ``retries`` is the per-message retry budget: a query
    unanswered after ``retries + 1`` attempts raises
    :class:`BusTimeoutError` (``retries_used`` counts the re-sends).
    """

    def __init__(self, bus: MessageBus, name: str = "coordinator", *, retries: int = 0):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.bus = bus
        self.name = name
        self.retries = retries
        self.retries_used = 0

    def _exchange(self, recipient: str, kind: str, payload: dict[str, Any]) -> Message:
        for attempt in range(self.retries + 1):
            reply = self.bus.send(Message(self.name, recipient, kind, payload))
            if reply is not None:
                if attempt:
                    self.retries_used += attempt
                return reply
        self.retries_used += self.retries
        raise BusTimeoutError(
            f"no reply from {recipient!r} to {kind!r} after {self.retries + 1} attempt(s)"
        )

    def _bcast(self, kind: str, payload: dict[str, Any]) -> None:
        """Deliver to every agent, retrying each until acknowledged."""
        for name in self.bus.agent_names:
            self._exchange(name, kind, payload)

    def configure(self, problem: SlotProblem) -> None:
        """Broadcast the slot's shared parameters."""
        self._bcast(
            "configure",
            {
                "gamma": problem.gamma,
                "delay_weight": problem.V * problem.delay_weight,
                "pue": problem.pue,
                "delay_model": problem.delay_model,
            },
        )

    def _round(self, nu: float, we: float, explored: bool) -> tuple[float, float]:
        payload = {"nu": nu, "we": we, "explored": explored}
        served = 0.0
        power = 0.0
        for name in self.bus.agent_names:
            reply = self._exchange(name, "price", payload)
            served += reply.payload["served"]
            power += reply.payload["power"]
        return served, power

    def _bisect_nu(self, lam: float, we: float, explored: bool) -> tuple[float, float]:
        """Find nu with aggregate served load = lam; returns (nu, facility
        dynamic+static IT power in MW, pre-PUE)."""
        lo, hi = 0.0, 1.0
        while True:
            served, power = self._round(hi, we, explored)
            if served >= lam:
                break
            hi *= 2.0
            if hi > 1e300:
                if lam <= served * (1.0 + 1e-12):
                    # A rounding shortfall inside the capacity window:
                    # commit every agent at its cap (an unbounded dual).
                    return math.inf, power
                raise InfeasibleError("explored on-set cannot serve the workload")
        for _ in range(_NU_ROUNDS):
            mid = 0.5 * (lo + hi)
            if self._round(mid, we, explored)[0] < lam:
                lo = mid
            else:
                hi = mid
        _, power = self._round(hi, we, explored)
        return hi, power

    def solve(self, problem: SlotProblem, *, explored: bool = False) -> float:
        """Run the full kink-aware protocol; agents end holding their loads
        (via ``commit``).  Returns the final dual price ``nu``."""
        lam = problem.arrival_rate
        pue = problem.pue
        if lam <= 0.0:
            self._bcast("commit", {"nu": 0.0, "we": 0.0, "explored": explored})
            return 0.0

        we_full = problem.electricity_weight
        nu, power = self._bisect_nu(lam, we_full, explored)
        if pue * power >= problem.onsite * (1.0 - 1e-12):
            self._bcast("commit", {"nu": nu, "we": we_full, "explored": explored})
            return nu

        nu_free, power_free = self._bisect_nu(lam, 0.0, explored)
        if pue * power_free <= problem.onsite * (1.0 + 1e-12):
            self._bcast("commit", {"nu": nu_free, "we": 0.0, "explored": explored})
            return nu_free

        lo_mu, hi_mu = 0.0, we_full
        for _ in range(_MU_ROUNDS):
            mu = 0.5 * (lo_mu + hi_mu)
            nu, power = self._bisect_nu(lam, mu, explored)
            if pue * power > problem.onsite:
                lo_mu = mu
            else:
                hi_mu = mu
        self._bcast("commit", {"nu": nu, "we": 0.5 * (lo_mu + hi_mu), "explored": explored})
        return nu


class BusDistributedGSD(SlotSolver):
    """Algorithm 2 executed over the message fabric, message by message.

    ``bus_factory`` substitutes an unreliable fabric per solve; ``retries``
    is the per-message retry budget of the coordinator and of the driver's
    own explore/decide/set_level traffic.  ``pricings`` and
    ``lost_pricings`` count every run of the load protocol and those a
    :class:`BusTimeoutError` cut short, across solves.
    """

    def __init__(
        self,
        *,
        iterations: int = 200,
        delta: float = 1e6,
        rng: np.random.Generator | None = None,
        bus_factory: Callable[[], MessageBus] | None = None,
        retries: int = 0,
    ):
        self.iterations = iterations
        self.delta = delta
        self.rng = rng if rng is not None else np.random.default_rng(2)
        self.bus_factory = bus_factory
        self.retries = retries
        self.last_bus: MessageBus | None = None
        self.pricings = 0
        self.lost_pricings = 0

    def _price(self, problem: SlotProblem, coord: DualLoadCoordinator, explored: bool) -> None:
        self.pricings += 1
        try:
            coord.solve(problem, explored=explored)
        except BusTimeoutError:
            self.lost_pricings += 1
            raise

    def _objective(self, problem, agents, coord, explored: bool) -> float:
        try:
            self._price(problem, coord, explored)
        except (InfeasibleError, BusTimeoutError):
            return np.inf
        evaluation = evaluate(problem, *self._split(agents, explored))
        if problem.violates_caps(evaluation):
            return np.inf
        return evaluation.objective

    @staticmethod
    def _split(agents: list[ServerAgent], explored: bool) -> tuple[np.ndarray, np.ndarray]:
        """Per-group levels and per-server loads the agents hold."""
        levels = np.array(
            [a.explored_level if explored else a.level for a in agents], dtype=np.int64
        )
        loads = np.array([a.load if lv >= 0 else 0.0 for a, lv in zip(agents, levels)])
        return levels, loads

    def _decide_all(self, bus: MessageBus, agents: list[ServerAgent], accept: bool) -> None:
        for a in agents:
            exchange(bus, "driver", a.name, "decide", {"accept": accept}, retries=self.retries)

    def solve(self, problem: SlotProblem) -> SlotSolution:
        problem.check_feasible()
        fleet = problem.fleet
        bus = self.bus_factory() if self.bus_factory is not None else MessageBus()
        agents = [ServerAgent(f"group-{g}", fleet, g) for g in range(fleet.num_groups)]
        for a in agents:
            bus.register(a)
        coord = DualLoadCoordinator(bus, retries=self.retries)
        coord.configure(problem)
        self.last_bus = bus

        current = self._objective(problem, agents, coord, explored=False)
        best = current
        best_levels = np.array([a.level for a in agents], dtype=np.int64)

        for _ in range(self.iterations):
            g = int(self.rng.integers(0, fleet.num_groups))
            reply = exchange(
                bus, "driver", agents[g].name, "explore", {"rng": self.rng},
                retries=self.retries,
            )
            if reply.payload["level"] == agents[g].level:
                self._decide_all(bus, agents, accept=False)
                continue
            explored_obj = self._objective(problem, agents, coord, explored=True)
            if np.isfinite(explored_obj):
                ge = max(explored_obj, 1e-12)
                gs = max(current, 1e-12)
                exponent = np.clip(self.delta * (1.0 / ge - 1.0 / gs), -700.0, 700.0)
                accept = self.rng.random() < 1.0 / (1.0 + np.exp(-exponent))
            else:
                accept = False
            self._decide_all(bus, agents, accept=bool(accept))
            if accept:
                current = explored_obj
                if explored_obj < best:
                    best = explored_obj
                    best_levels = np.array([a.level for a in agents], dtype=np.int64)

        for a, lvl in zip(agents, best_levels):
            exchange(
                bus, "driver", a.name, "set_level", {"level": int(lvl)},
                retries=self.retries,
            )
        commit_attempts = 1 if self.retries == 0 else 3
        for attempt in range(commit_attempts):
            try:
                self._price(problem, coord, explored=False)
                break
            except BusTimeoutError:
                if attempt == commit_attempts - 1:
                    raise
        levels, loads = self._split(agents, explored=False)
        action = action_from_loads(fleet, levels, loads)
        info: dict[str, Any] = {
            "messages": bus.delivered,
            "messages_by_kind": dict(bus.by_kind),
            "retries_used": coord.retries_used,
        }
        fault_stats = getattr(bus, "fault_stats", None)
        if fault_stats is not None:
            info["bus_faults"] = fault_stats()
        return SlotSolution(
            action=action, evaluation=evaluate(problem, levels, loads), info=info
        )
