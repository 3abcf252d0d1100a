"""Tests for the distributed GSD protocol: the message-level oracle
(``tests/protocol_oracle.py``) and the shipped :class:`DistributedGSD`, whose
closed-form message bill and per-phase fault draws are pinned to it."""

import itertools
import math

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, opteron_2380
from repro.core import DataCenterModel
from repro.solvers import (
    BusTimeoutError,
    DistributedGSD,
    GSDSolver,
    InfeasibleError,
    MessageTransport,
    distribute_load,
    solve_fixed_levels,
)
from repro.solvers.messaging import _bisection_rounds, pricing_bill
from repro.state import CheckpointError
from tests.billing_oracle import solve_loads
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import make_problem
from tests.protocol_oracle import (
    BusDistributedGSD,
    DualLoadCoordinator,
    FaultyMessageBus,
    Message,
    MessageBus,
    ServerAgent,
    exchange,
)


def build_bus(fleet):
    bus = MessageBus()
    agents = [ServerAgent(f"group-{g}", fleet, g) for g in range(fleet.num_groups)]
    for a in agents:
        bus.register(a)
    return bus, agents


class TestMessageBus:
    def test_counts_deliveries(self, tiny_fleet):
        bus, agents = build_bus(tiny_fleet)
        bus.send(Message("driver", "group-0", "set_level", {"level": 2}))
        assert bus.delivered == 1
        assert bus.by_kind["set_level"] == 1

    def test_unknown_recipient(self, tiny_fleet):
        bus, _ = build_bus(tiny_fleet)
        with pytest.raises(KeyError):
            bus.send(Message("driver", "nope", "set_level", {"level": 0}))

    def test_duplicate_registration_rejected(self, tiny_fleet):
        bus, agents = build_bus(tiny_fleet)
        with pytest.raises(ValueError, match="duplicate"):
            bus.register(agents[0])

    def test_broadcast_reaches_everyone(self, tiny_fleet):
        bus, agents = build_bus(tiny_fleet)
        bus.broadcast("driver", "set_level", {"level": 1})
        assert all(a.level == 1 for a in agents)

    def test_unknown_kind_raises(self, tiny_fleet):
        bus, _ = build_bus(tiny_fleet)
        with pytest.raises(ValueError, match="unknown message kind"):
            bus.send(Message("driver", "group-0", "frobnicate", {}))


class TestDualCoordinatorProtocol:
    @pytest.mark.parametrize("lam_frac", [0.1, 0.5, 0.9])
    def test_matches_centralized_waterfilling(self, tiny_model, lam_frac):
        """The message protocol must land on the same loads as the
        vectorized centralized solver."""
        p = make_problem(tiny_model, lam_frac=lam_frac, q=10.0)
        bus, agents = build_bus(tiny_model.fleet)
        coord = DualLoadCoordinator(bus)
        coord.configure(p)
        coord.solve(p)
        distributed = np.array([a.load for a in agents])
        levels = np.array([a.level for a in agents], dtype=np.int64)
        central = solve_loads(tiny_model.fleet, levels, distribute_load(p, levels))
        np.testing.assert_allclose(distributed, central, rtol=1e-6, atol=1e-9)

    def test_free_regime_with_huge_renewables(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5, onsite=1e6)
        bus, agents = build_bus(tiny_model.fleet)
        coord = DualLoadCoordinator(bus)
        coord.configure(p)
        coord.solve(p)
        served = sum(a.load * a.count for a in agents)
        assert served == pytest.approx(p.arrival_rate, rel=1e-6)

    def test_agents_only_use_local_state(self, tiny_fleet):
        """An agent's price response must be computable from its own profile
        plus broadcast parameters -- it never receives fleet tables."""
        agent = ServerAgent("solo", tiny_fleet, 0)
        assert not hasattr(agent, "fleet")

    def test_message_complexity_linear_in_groups(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.4)
        bus, agents = build_bus(tiny_model.fleet)
        coord = DualLoadCoordinator(bus)
        coord.configure(p)
        coord.solve(p)
        # configure + price rounds + commit: all O(G) per round.
        assert bus.by_kind["price"] % tiny_model.fleet.num_groups == 0


def build_faulty_bus(fleet, *, seed=0, **kw):
    bus = FaultyMessageBus(rng=np.random.default_rng(seed), **kw)
    agents = [ServerAgent(f"group-{g}", fleet, g) for g in range(fleet.num_groups)]
    for a in agents:
        bus.register(a)
    return bus, agents


class TestLossyCoordinator:
    def test_exchange_retries_until_delivered(self, tiny_fleet):
        bus, agents = build_faulty_bus(tiny_fleet, seed=4, loss=0.5)
        reply = exchange(
            bus, "driver", "group-0", "set_level", {"level": 2}, retries=20
        )
        assert reply is not None
        assert agents[0].level == 2

    def test_exchange_exhaustion_raises(self, tiny_fleet):
        bus, _ = build_faulty_bus(tiny_fleet, seed=4, loss=0.95)
        with pytest.raises(BusTimeoutError, match="set_level"):
            exchange(bus, "driver", "group-0", "set_level", {"level": 2}, retries=1)

    def test_retries_matches_reliable_solution(self, tiny_model):
        """The coordinator on a lossy bus (with retries) must land on the
        same loads as on a reliable bus."""
        p = make_problem(tiny_model, lam_frac=0.5, q=10.0)

        bus_ok, agents_ok = build_bus(tiny_model.fleet)
        coord = DualLoadCoordinator(bus_ok)
        coord.configure(p)
        coord.solve(p)

        bus_bad, agents_bad = build_faulty_bus(
            tiny_model.fleet, seed=17, loss=0.10, delay=0.03, duplicate=0.02
        )
        lossy = DualLoadCoordinator(bus_bad, retries=8)
        lossy.configure(p)
        lossy.solve(p)

        np.testing.assert_allclose(
            [a.load for a in agents_bad],
            [a.load for a in agents_ok],
            rtol=1e-6,
            atol=1e-9,
        )
        assert lossy.retries_used > 0  # the faults actually bit

    def test_ack_replies_keep_reliable_counts(self, tiny_model):
        """Retry plumbing must be free on a healthy bus: same deliveries,
        same per-kind counts, zero retries consumed."""
        p = make_problem(tiny_model, lam_frac=0.4)
        counts = []
        for retries in (0, 5):
            bus, _ = build_bus(tiny_model.fleet)
            coord = DualLoadCoordinator(bus, retries=retries)
            coord.configure(p)
            coord.solve(p)
            counts.append((bus.delivered, dict(bus.by_kind), coord.retries_used))
        assert counts[0][:2] == counts[1][:2]
        assert counts[1][2] == 0

    def test_distributed_gsd_near_oracle_under_loss(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5, q=5.0)
        bf = BruteForceOracle().solve(p)
        solver = DistributedGSD(
            iterations=150, delta=1e4, rng=np.random.default_rng(7), retries=5
        )
        solver.transport_factory = lambda groups, retries: MessageTransport(
            groups, retries=retries, loss=0.10, delay=0.03, duplicate=0.02,
            rng=np.random.default_rng(23),
        )
        sol = solver.solve(p)
        assert sol.objective <= bf.objective * 1.20 + 1e-12
        assert sol.info["bus_faults"]["dropped"] > 0
        assert sol.info["retries_used"] > 0


class TestDistributedGSD:
    def test_reaches_near_oracle(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5, q=5.0)
        bf = BruteForceOracle().solve(p)
        sol = DistributedGSD(
            iterations=250, delta=1e4, rng=np.random.default_rng(7)
        ).solve(p)
        assert sol.objective <= bf.objective * 1.05 + 1e-12

    def test_reports_message_stats(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.3)
        sol = DistributedGSD(iterations=50, delta=1e4).solve(p)
        assert sol.info["messages"] > 0
        assert "price" in sol.info["messages_by_kind"]

    def test_action_serves_workload(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.6)
        sol = DistributedGSD(iterations=100, delta=1e4).solve(p)
        assert sol.action.rows.served == pytest.approx(
            p.arrival_rate, rel=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedGSD(iterations=0)
        with pytest.raises(ValueError):
            DistributedGSD(delta=0.0)


class LateAckBus(MessageBus):
    """Delivers every message, but while armed withholds replies of one
    kind past the sender's timeout window: the handler runs (state
    mutates), the ack is parked in ``late_acks`` instead of returned.

    This is the nastiest corner of the retry protocol: the sender raises
    :class:`BusTimeoutError` for a round the recipients actually executed
    -- possibly several times, once per retry -- and the late duplicate
    acks arrive after the round was abandoned.
    """

    def __init__(self, eat_kind: str):
        super().__init__()
        self.eat_kind = eat_kind
        self.armed = True
        self.late_acks: list[Message] = []

    def send(self, message: Message) -> Message | None:
        reply = super().send(message)
        if self.armed and message.kind == self.eat_kind:
            self.late_acks.append(reply)
            return None
        return reply


class TestLateAckAfterTimeout:
    """An agent answering a retry *after* ``BusTimeoutError`` was raised
    for the round: the late duplicate acks must be discarded and must not
    corrupt the next bisection round."""

    def _late_bus(self, fleet, eat_kind):
        bus = LateAckBus(eat_kind)
        agents = [
            ServerAgent(f"group-{g}", fleet, g) for g in range(fleet.num_groups)
        ]
        for a in agents:
            bus.register(a)
        return bus, agents

    def test_late_commit_acks_discarded_next_round_clean(self, tiny_model):
        p1 = make_problem(tiny_model, lam_frac=0.5, q=10.0)
        p2 = make_problem(tiny_model, lam_frac=0.7, q=2.0, price=55.0)

        # Reference: the same two slots on an always-reliable fabric.
        ref_bus, ref_agents = build_bus(tiny_model.fleet)
        ref = DualLoadCoordinator(ref_bus, retries=2)
        ref.configure(p1)
        ref.solve(p1)
        ref.configure(p2)
        nu_ref = ref.solve(p2)

        # Outage round: "commit" handlers all execute, every ack is late.
        bus, agents = self._late_bus(tiny_model.fleet, "commit")
        coord = DualLoadCoordinator(bus, retries=2)
        coord.configure(p1)
        with pytest.raises(BusTimeoutError):
            coord.solve(p1)
        # The round was answered retries+1 times -- after the timeout.
        assert len(bus.late_acks) == 3
        assert all(m is not None and m.kind == "ack" for m in bus.late_acks)
        assert coord.retries_used == 2
        # The recipient executed the abandoned round: its state moved.
        assert agents[0].load > 0.0

        # Next round on a healed fabric: the parked duplicates are never
        # consumed, and overwrite-idempotent handlers leave no residue --
        # the bisection lands exactly where the reliable fabric did.
        bus.armed = False
        coord.configure(p2)
        nu = coord.solve(p2)
        assert nu == nu_ref
        np.testing.assert_array_equal(
            np.array([a.load for a in agents]),
            np.array([a.load for a in ref_agents]),
        )
        np.testing.assert_array_equal(
            np.array([a.level for a in agents]),
            np.array([a.level for a in ref_agents]),
        )

    def test_late_price_reply_does_not_skew_bisection(self, tiny_model):
        """Same gap for a *query* kind: a price round that times out after
        its replies were computed must not leak those stale responses into
        the re-run bisection."""
        p = make_problem(tiny_model, lam_frac=0.5, q=10.0)

        ref_bus, ref_agents = build_bus(tiny_model.fleet)
        ref = DualLoadCoordinator(ref_bus, retries=1)
        ref.configure(p)
        nu_ref = ref.solve(p)

        bus, agents = self._late_bus(tiny_model.fleet, "price")
        coord = DualLoadCoordinator(bus, retries=1)
        coord.configure(p)
        with pytest.raises(BusTimeoutError):
            coord.solve(p)
        stale = len(bus.late_acks)
        assert stale == 2  # original + one retry, both answered late

        bus.armed = False
        nu = coord.solve(p)
        assert nu == nu_ref
        np.testing.assert_array_equal(
            np.array([a.load for a in agents]),
            np.array([a.load for a in ref_agents]),
        )
        # The parked replies stayed parked: exactly the timed-out round.
        assert len(bus.late_acks) == stale


def _all_levels(fleet):
    for combo in itertools.product(*[range(-1, int(n)) for n in fleet.num_levels]):
        yield np.array(combo, dtype=np.int64)


def _regime_problems(model, V=1000.0):
    """A billed, a free and a boundary slot at half load.  ``V`` lifts the
    dual prices above 1 so the coordinator's bracket doubling is exercised."""
    top = (model.fleet.num_levels - 1).astype(np.int64)

    def power(onsite):
        p = make_problem(model, lam_frac=0.5, q=5.0, V=V, onsite=onsite)
        return solve_fixed_levels(p, top)[1].facility_power

    between = 0.5 * (power(0.0) + power(1e9))
    return {
        regime: make_problem(model, lam_frac=0.5, q=5.0, V=V, onsite=onsite)
        for regime, onsite in [("billed", 0.0), ("free", 1e9), ("boundary", between)]
    }


def _oracle_pricing(problem, levels):
    """Messages of one oracle run of the load protocol on ``levels``."""
    bus, agents = build_bus(problem.fleet)
    for agent, level in zip(agents, levels):
        agent.level = agent.explored_level = int(level)
    coord = DualLoadCoordinator(bus)
    coord.configure(problem)
    bus.by_kind.clear()
    try:
        coord.solve(problem)
    except InfeasibleError:
        pass
    return bus.by_kind


class TestPricingBill:
    """:func:`pricing_bill` is the closed form of the coordinator's rounds."""

    @pytest.mark.parametrize("regime", ["billed", "free", "boundary"])
    def test_every_configuration_matches_the_coordinator(self, hetero_model, regime):
        problem = _regime_problems(hetero_model)[regime]
        G = hetero_model.fleet.num_groups
        seen = set()
        for levels in _all_levels(hetero_model.fleet):
            try:
                dist = distribute_load(problem, levels)
            except InfeasibleError:
                dist = None
            rounds, committed = pricing_bill(problem, dist)
            oracle = _oracle_pricing(problem, levels)
            assert committed == (oracle["commit"] == G)
            extra = rounds - oracle["price"] // G
            if dist is not None and dist.regime == "boundary":
                # Each mu step is charged the billed doublings: an upper
                # bound on its own, never more than 60 x those doublings.
                assert 0 <= extra <= 60 * (_bisection_rounds(dist.duals[0]) - 102)
            else:
                assert extra == 0
            seen.add(None if dist is None else dist.regime)
        assert regime in seen and None in seen

    @pytest.mark.parametrize("onsite", [0.0, 1e9])
    def test_load_at_capacity_matches_the_coordinator(self, onsite):
        """At ``lambda`` = the capped capacity, the class rows' capped total
        can round below the load.  The solver then puts every group at its
        cap with an unbounded dual, and the coordinator, whose doubling
        runs out at 1e300, commits the same caps: the bill is the
        expansion's rounds per fixed-weight water-fill, committed.  One
        group, so the two sum the capacity identically."""
        fleet = Fleet([ServerGroup(opteron_2380(), 10)])
        top = np.array([int(fleet.num_levels[0]) - 1])
        saturated = 0
        for gamma in np.linspace(0.5, 0.99, 50):
            model = DataCenterModel(fleet=fleet, beta=10.0, gamma=float(gamma))
            problem = model.slot_problem(
                arrival_rate=fleet.capacity(float(gamma)), onsite=onsite, price=40.0
            )
            dist = distribute_load(problem, top)
            rounds, committed = pricing_bill(problem, dist)
            oracle = _oracle_pricing(problem, top)
            assert committed and oracle["commit"] == 1
            assert rounds == oracle["price"]
            saturated += bool(np.isinf(dist.nu))
        assert saturated >= 1

    def test_doublings_counted_from_the_dual(self):
        assert _bisection_rounds(0.3) == 102
        assert _bisection_rounds(1.0) == 102
        assert _bisection_rounds(4.0) == 104
        assert _bisection_rounds(4.5) == 105

    def test_zero_workload_commits_without_rounds(self, tiny_model):
        problem = make_problem(tiny_model, lam_frac=0.0)
        levels = np.zeros(3, dtype=np.int64)
        assert pricing_bill(problem, distribute_load(problem, levels)) == (0, True)
        assert _oracle_pricing(problem, levels) == {"commit": 3}


class TestOracleAgreement:
    """On a reliable bus the shipped solver and the message-level oracle
    walk the same chain and send the same messages."""

    @pytest.mark.parametrize("model_name", ["tiny_model", "hetero_model"])
    @pytest.mark.parametrize("regime", ["billed", "free", "boundary"])
    def test_same_levels_and_messages(self, request, model_name, regime):
        model = request.getfixturevalue(model_name)
        problem = _regime_problems(model)[regime]
        G = model.fleet.num_groups
        for seed in range(2):
            kw = dict(iterations=40, delta=1e7)
            oracle = BusDistributedGSD(rng=np.random.default_rng(seed), **kw).solve(problem)
            shipped = DistributedGSD(rng=np.random.default_rng(seed), **kw).solve(problem)
            np.testing.assert_array_equal(shipped.action.levels, oracle.action.levels)
            assert shipped.objective == pytest.approx(oracle.objective, rel=1e-9)
            ours = shipped.info["messages_by_kind"]
            theirs = oracle.info["messages_by_kind"]
            assert shipped.info["messages"] == sum(ours.values())
            if regime != "boundary":
                assert ours == theirs
                continue
            assert {k: v for k, v in ours.items() if k != "price"} == {
                k: v for k, v in theirs.items() if k != "price"
            }
            # Bound: every committed pricing over-counts at most 60 x the
            # doublings of the largest billed dual any configuration has.
            duals = []
            for levels in _all_levels(model.fleet):
                try:
                    duals.append(distribute_load(problem, levels).duals[0])
                except InfeasibleError:
                    pass
            slack = 60 * G * (_bisection_rounds(max(duals)) - 102)
            assert theirs["price"] <= ours["price"] <= theirs["price"] + slack * (
                ours["commit"] // G
            )

    def test_reliable_transport_is_gsd_bit_for_bit(self, hetero_model):
        problem = _regime_problems(hetero_model)["boundary"]
        kw = dict(iterations=80, delta=1e7)
        gsd = GSDSolver(rng=np.random.default_rng(4), **kw).solve(problem)
        dist = DistributedGSD(rng=np.random.default_rng(4), **kw).solve(problem)
        np.testing.assert_array_equal(dist.action.levels, gsd.action.levels)
        assert dist.action.rows == gsd.action.rows
        assert dist.evaluation == gsd.evaluation
        assert dist.info["retries_used"] == 0 and "bus_faults" not in dist.info


class TestLossAgreement:
    """Under loss the shipped solver draws each phase's faults in
    distribution, so it agrees with the oracle's per-message bus on the
    *fraction* of lost explorations, not bit for bit.  Bit-equality cannot
    be the contract: the oracle's bus spends one random draw per message
    attempt, and its ``explore`` message carries the chain RNG, so a delayed
    or duplicated explore advances the chain RNG twice."""

    LOSS = dict(loss=0.04, delay=0.02, duplicate=0.01)

    def _oracle(self, problem, solves):
        solver = BusDistributedGSD(
            iterations=50, delta=1e4, rng=np.random.default_rng(0), retries=1
        )
        for s in range(solves):
            solver.bus_factory = lambda s=s: FaultyMessageBus(
                rng=np.random.default_rng([1, s]), **self.LOSS
            )
            try:
                solver.solve(problem)
            except BusTimeoutError:
                pass  # the explorations priced so far still count
        return solver.pricings, solver.lost_pricings

    def _shipped(self, problem, solves):
        solver = DistributedGSD(
            iterations=50, delta=1e4, rng=np.random.default_rng(0), retries=1
        )
        pricings = lost = 0
        for s in range(solves):
            solver.transport_factory = lambda groups, retries, s=s: MessageTransport(
                groups, retries=retries, rng=np.random.default_rng([2, s]), **self.LOSS
            )
            try:
                solver.solve(problem)
            except BusTimeoutError:
                pass
            pricings += solver.last_transport.pricings
            lost += solver.last_transport.lost_pricings
        return pricings, lost

    def test_lost_exploration_fraction_within_4_sigma(self):
        # One group keeps the message-level oracle affordable: a pricing is
        # ~100 messages, and an off proposal ~1,000 cheap ones.
        model = DataCenterModel(fleet=Fleet([ServerGroup(opteron_2380(), 10)]), beta=10.0)
        problem = make_problem(model, lam_frac=0.3, q=5.0)
        n1, k1 = self._oracle(problem, 32)
        n2, k2 = self._shipped(problem, 32)
        assert min(n1, n2) >= 1000
        p1, p2 = k1 / n1, k2 / n2
        pooled = (k1 + k2) / (n1 + n2)
        sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
        assert 0.05 < pooled < 0.95  # the faults bite, but not always
        assert abs(p1 - p2) <= 4.0 * sigma


class TestMessageTransport:
    def test_reliable_counts_every_message_once(self):
        transport = MessageTransport(4)
        assert transport.send(configure=4, explore=0)
        assert transport.price((102, True))
        assert transport.by_kind == {"configure": 4, "price": 408, "commit": 4}
        assert transport.delivered == 416 and transport.retries_used == 0

    def test_same_seed_same_fault_pattern(self):
        def run():
            t = MessageTransport(
                5, retries=2, loss=0.2, delay=0.1, duplicate=0.05,
                rng=np.random.default_rng(9),
            )
            outcomes = [t.price((110, True)) for _ in range(50)]
            return outcomes, t.fault_stats(), t.retries_used

        assert run() == run()
        outcomes, stats, retries_used = run()
        assert stats["dropped"] > 0 and stats["delayed"] > 0
        assert stats["duplicated"] > 0 and retries_used > 0
        assert not all(outcomes)

    def test_phase_loss_probability(self):
        """A phase of n messages is lost with probability
        ``1 - (1 - p**(retries+1))**n``."""
        rng = np.random.default_rng(3)
        t = MessageTransport(1, retries=1, loss=0.05, delay=0.05, rng=rng)
        trials = 4000
        lost = sum(not t.send(price=50) for _ in range(trials))
        expected = 1.0 - (1.0 - 0.1**2) ** 50
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(lost / trials - expected) <= 4 * sigma

    def test_dead_channel_raises_bus_timeout(self, tiny_model):
        solver = DistributedGSD(iterations=10, rng=np.random.default_rng(0))
        solver.transport_factory = lambda groups, retries: MessageTransport(
            groups, retries=retries, loss=0.9, rng=np.random.default_rng(0)
        )
        with pytest.raises(BusTimeoutError):
            solver.solve(make_problem(tiny_model))

    def test_refuses_state_of_the_message_bus_chain(self):
        from repro.state.serialize import encode_rng

        solver = DistributedGSD(iterations=5)
        with pytest.raises(CheckpointError, match="message-bus"):
            solver.load_state_dict({"rng": encode_rng(np.random.default_rng(1))})
        solver.load_state_dict(GSDSolver(iterations=5).state_dict())
