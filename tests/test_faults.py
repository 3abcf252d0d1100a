"""Property and determinism tests for the fault-injection subsystem.

Three contracts anchor ``repro.faults`` (docs/TESTING.md):

1. **Seed determinism** — the same seed always yields the same schedule,
   and a schedule round-trips through JSON without loss.
2. **Replay** — running the same ``(scenario, schedule)`` pair twice is
   bit-identical, including under lossy distributed messaging.
3. **Null transparency** — an empty schedule leaves the simulation
   byte-identical to an uninstrumented run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coca import COCA
from repro.faults import (
    DegradationPolicy,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    MessageFaultProfile,
    proportional_action,
)
from repro.scenarios import small_scenario
from repro.sim import simulate
from repro.solvers import DistributedGSD
from repro.telemetry import Telemetry
from tests.fault_schedule_oracle import oracle_generate
from tests.protocol_oracle import FaultyMessageBus, Message, ServerAgent

RECORD_ARRAYS = ("cost", "brown_energy", "queue", "served", "dropped")


def _records_identical(a, b) -> list[str]:
    return [
        name
        for name in RECORD_ARRAYS
        if not np.array_equal(getattr(a, name), getattr(b, name))
    ]


@pytest.fixture(scope="module")
def chaos_scenario():
    """A short seeded scenario sized for per-test chaos runs."""
    return small_scenario(horizon=24, seed=11)


def _run(scenario, *, faults=None, degradation=None, solver=None, v=150.0,
         telemetry=None):
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=v,
        alpha=scenario.alpha,
        solver=solver,
    )
    return simulate(
        scenario.model,
        controller,
        scenario.environment,
        telemetry=telemetry,
        faults=faults,
        degradation=degradation,
    )


class TestBlockDrawnGenerator:
    """``FaultSchedule.generate`` draws the per-group failure uniforms in
    blocks; it must reproduce the scalar generator's schedules exactly."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        horizon=st.integers(1, 80),
        num_groups=st.sampled_from((2, 3, 50, 200)),
        failure_rate=st.floats(0.0, 0.9),
        mean_repair=st.floats(1.0, 8.0),
        signal_rate=st.sampled_from((0.0, 0.15, 0.6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(
        self, seed, horizon, num_groups, failure_rate, mean_repair, signal_rate,
    ):
        kw = dict(
            horizon=horizon,
            num_groups=num_groups,
            failure_rate=failure_rate,
            mean_repair=mean_repair,
            signal_rate=signal_rate,
            loss=0.05,
        )
        got = FaultSchedule.generate(seed, **kw)
        assert got.to_json() == oracle_generate(seed, **kw).to_json()

    def test_group_cap_binds(self):
        """At a 90% failure rate the ``num_groups - 1`` cap binds on most
        slots, so failures are skipped after their uniform is drawn."""
        kw = dict(horizon=120, num_groups=3, failure_rate=0.9, signal_rate=0.5)
        sched = FaultSchedule.generate(11, **kw)
        assert sched == oracle_generate(11, **kw)
        down: set[int] = set()
        capped = 0
        for t, events in sorted(sched.by_slot().items()):
            for e in events:
                if e.kind == "group_repair":
                    down.discard(e.group)
                elif e.kind == "group_fail":
                    down.add(e.group)
            capped += len(down) == 2
        assert capped > 10

    def test_paper_scale_schedules(self):
        kw = dict(horizon=2190, num_groups=200, failure_rate=0.02, mean_repair=6.0)
        for seed in (2012, 7, 401):
            assert (
                FaultSchedule.generate(seed, **kw).to_json()
                == oracle_generate(seed, **kw).to_json()
            )


class _CountingGenerator(np.random.Generator):
    """``default_rng``'s generator, counting its uniform and repair draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.uniform_calls = 0
        self.repair_calls = 0

    def random(self, *args, **kwargs):
        self.uniform_calls += 1
        return super().random(*args, **kwargs)

    def geometric(self, *args, **kwargs):
        self.repair_calls += 1
        return super().geometric(*args, **kwargs)


class TestGeneratorCost:
    def test_draw_calls_scale_with_failures_not_group_slots(self, monkeypatch):
        """On a paper-scale quarter (200 groups x 2,190 slots) the uniform
        draw calls number at most one block per slot, one more per failure
        and one signal draw per slot -- not one per group-slot, as the
        scalar oracle makes."""
        kw = dict(horizon=2190, num_groups=200, failure_rate=0.02, mean_repair=6.0,
                  signal_rate=0.05)
        want = oracle_generate(2012, **kw)
        made = []

        def counting_rng(seed):
            made.append(_CountingGenerator(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        got = FaultSchedule.generate(2012, **kw)
        assert got.to_json() == want.to_json()
        failures = sum(e.kind == "group_fail" for e in got.events)
        assert failures > 7000
        (rng,) = made
        assert rng.repair_calls == failures
        assert rng.uniform_calls <= 2190 + failures + 2190
        assert rng.uniform_calls < 0.05 * 2190 * 200


class TestScheduleDeterminism:
    @given(seed=st.integers(0, 2**31 - 1), horizon=st.integers(1, 120))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_schedule(self, seed, horizon):
        kw = dict(
            horizon=horizon,
            num_groups=4,
            failure_rate=0.1,
            mean_repair=3.0,
            signal_rate=0.1,
            loss=0.05,
        )
        a = FaultSchedule.generate(seed, **kw)
        b = FaultSchedule.generate(seed, **kw)
        assert a == b
        assert a.to_json() == b.to_json()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_json_round_trip_identity(self, seed):
        sched = FaultSchedule.generate(
            seed,
            horizon=60,
            num_groups=5,
            failure_rate=0.08,
            signal_rate=0.1,
            loss=0.1,
            delay=0.03,
            duplicate=0.02,
        )
        assert FaultSchedule.from_json(sched.to_json()) == sched

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_generated_schedules_validate(self, seed):
        """High fault rates must still produce statically-valid schedules
        (no double failure, no repair of a healthy group)."""
        sched = FaultSchedule.generate(
            seed, horizon=150, num_groups=3, failure_rate=0.2, mean_repair=2.0
        )
        down: set[int] = set()
        for e in sched.events:
            if e.kind == "group_fail":
                assert e.group not in down
                down.add(e.group)
            elif e.kind == "group_repair":
                assert e.group in down
                down.discard(e.group)


class TestScheduleValidation:
    def test_double_failure_rejected(self):
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule(
                events=(
                    FaultEvent(t=0, kind="group_fail", group=1),
                    FaultEvent(t=2, kind="group_fail", group=1),
                )
            )

    def test_repair_of_healthy_group_rejected(self):
        with pytest.raises(ValueError, match="never down"):
            FaultSchedule(events=(FaultEvent(t=3, kind="group_repair", group=0),))

    def test_unknown_kind_rejected(self):
        # ``forecast`` is the removed forecast-advice fault kind: a schedule
        # file of an older version that carries one is refused, not ignored.
        for kind in ("meteor_strike", "forecast"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultEvent(t=0, kind=kind, group=0)
        legacy = (
            '{"events": [{"t": 0, "kind": "forecast", "mode": "dropout", '
            '"duration": 3}]}'
        )
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.from_json(legacy)

    @pytest.mark.parametrize(
        "kw", [{"loss": 1.0}, {"loss": -0.1}, {"loss": 0.6, "delay": 0.5}]
    )
    def test_profile_ranges(self, kw):
        with pytest.raises(ValueError):
            MessageFaultProfile(**kw)


class TestFaultyBus:
    """The protocol oracle's per-message lossy bus (tests/protocol_oracle.py)."""

    def _bus_pair(self, fleet, **kw):
        buses = []
        for _ in range(2):
            bus = FaultyMessageBus(rng=np.random.default_rng(99), **kw)
            agents = [
                ServerAgent(f"group-{g}", fleet, g)
                for g in range(fleet.num_groups)
            ]
            for a in agents:
                bus.register(a)
            buses.append((bus, agents))
        return buses

    def test_same_seed_same_fault_pattern(self, tiny_fleet):
        (b1, _), (b2, _) = self._bus_pair(tiny_fleet, loss=0.3, delay=0.2)
        for bus in (b1, b2):
            for i in range(200):
                bus.send(
                    Message("driver", f"group-{i % 3}", "set_level", {"level": 1})
                )
        assert b1.fault_stats() == b2.fault_stats()
        assert b1.dropped > 0 and b1.delayed > 0

    def test_delay_applies_side_effects(self, tiny_fleet):


        (bus, agents), _ = self._bus_pair(tiny_fleet, delay=0.999)
        reply = bus.send(Message("driver", "group-0", "set_level", {"level": 2}))
        assert reply is None  # the answer was eaten...
        assert agents[0].level == 2  # ...but the command landed

    def test_loss_skips_handler(self, tiny_fleet):


        (bus, agents), _ = self._bus_pair(tiny_fleet, loss=0.999)
        reply = bus.send(Message("driver", "group-0", "set_level", {"level": 2}))
        assert reply is None
        assert agents[0].level != 2
        assert bus.dropped == 1 and bus.delivered == 0

    def test_duplicate_delivers_twice(self, tiny_fleet):


        (bus, agents), _ = self._bus_pair(tiny_fleet, duplicate=0.999)
        reply = bus.send(Message("driver", "group-0", "set_level", {"level": 1}))
        assert reply is not None  # sender sees the (second) reply
        assert bus.duplicated == 1
        assert bus.delivered == 2

    def test_lost_message_still_flags_bad_recipient(self, tiny_fleet):


        (bus, _), _ = self._bus_pair(tiny_fleet, loss=0.999)
        with pytest.raises(KeyError):
            bus.send(Message("driver", "nope", "set_level", {"level": 0}))


class TestNullTransparency:
    def test_empty_schedule_bit_identical(self, chaos_scenario):
        plain = _run(chaos_scenario)
        nulled = _run(chaos_scenario, faults=FaultSchedule.empty())
        assert _records_identical(plain, nulled) == []

    def test_null_profile_installs_nothing(self, chaos_scenario):
        solver = DistributedGSD(iterations=5, rng=np.random.default_rng(0))
        controller = COCA(
            chaos_scenario.model,
            chaos_scenario.environment.portfolio,
            v_schedule=150.0,
            solver=solver,
        )
        injector = FaultInjector(FaultSchedule.empty())
        assert injector.install(controller) is False
        assert solver.transport_factory is None


class TestChaosReplay:
    @pytest.mark.parametrize("fault_seed", [3, 7])
    def test_centralized_replay_bit_identical(self, chaos_scenario, fault_seed):
        sched = FaultSchedule.generate(
            fault_seed,
            horizon=chaos_scenario.horizon,
            num_groups=chaos_scenario.model.fleet.num_groups,
            failure_rate=0.1,
            mean_repair=3.0,
            signal_rate=0.1,
        )
        replayed = FaultSchedule.from_json(sched.to_json())
        a = _run(chaos_scenario, faults=sched)
        b = _run(chaos_scenario, faults=replayed)
        assert _records_identical(a, b) == []

    def test_lossy_distributed_replay_bit_identical(self, chaos_scenario):
        """The acceptance scenario: mid-horizon failures + >=10% message
        loss completes, serves all non-dropped load, and replays exactly."""
        sched = FaultSchedule.generate(
            7,
            horizon=chaos_scenario.horizon,
            num_groups=chaos_scenario.model.fleet.num_groups,
            failure_rate=0.05,
            loss=0.10,
            delay=0.03,
            duplicate=0.02,
        )
        records = []
        for _ in range(2):
            solver = DistributedGSD(
                iterations=8, rng=np.random.default_rng(5)
            )
            records.append(
                _run(
                    chaos_scenario,
                    faults=sched,
                    solver=solver,
                    degradation=DegradationPolicy(retries=2),
                )
            )
        a, b = records
        assert _records_identical(a, b) == []
        # Conservation: whatever was not dropped was actually served.
        np.testing.assert_allclose(
            a.served + a.dropped, a.arrival_actual, rtol=1e-9
        )

    def test_telemetry_does_not_perturb(self, chaos_scenario):
        sched = FaultSchedule.generate(
            3,
            horizon=chaos_scenario.horizon,
            num_groups=chaos_scenario.model.fleet.num_groups,
            failure_rate=0.1,
        )
        silent = _run(chaos_scenario, faults=sched)
        traced = _run(
            chaos_scenario, faults=sched, telemetry=Telemetry.recording()
        )
        assert _records_identical(silent, traced) == []


class TestInjector:
    def test_last_healthy_group_protected(self):
        events = tuple(
            FaultEvent(t=0, kind="group_fail", group=g) for g in range(3)
        )
        injector = FaultInjector(FaultSchedule(events=events), num_groups=3)
        injector.begin_slot(0)
        assert len(injector.failed_groups) == 2
        assert injector.suppressed == 1

    def test_signal_staleness_holds_last_clean_value(self, chaos_scenario):
        sched = FaultSchedule(
            events=(
                FaultEvent(
                    t=2, kind="signal", field="price", mode="stale", duration=2
                ),
            )
        )
        injector = FaultInjector(sched)
        env = chaos_scenario.environment
        obs0 = env.observation(0)
        injector.begin_slot(0)
        assert injector.degrade_observation(obs0) is obs0  # no active fault
        injector.begin_slot(1)
        obs1 = injector.degrade_observation(env.observation(1))
        injector.begin_slot(2)
        degraded = injector.degrade_observation(env.observation(2))
        assert degraded.price == obs1.price  # frozen at last clean value
        injector.begin_slot(3)
        still = injector.degrade_observation(env.observation(3))
        assert still.price == obs1.price
        injector.begin_slot(4)  # window [2, 4) expired
        clean = injector.degrade_observation(env.observation(4))
        assert clean.price == env.observation(4).price

    def test_missing_onsite_reads_zero(self, chaos_scenario):
        sched = FaultSchedule(
            events=(
                FaultEvent(
                    t=0, kind="signal", field="onsite", mode="missing", duration=1
                ),
            )
        )
        injector = FaultInjector(sched)
        injector.begin_slot(0)
        obs = injector.degrade_observation(chaos_scenario.environment.observation(0))
        assert obs.onsite == 0.0

    def test_load_state_dict_ignores_legacy_active_forecast(self):
        """Checkpoints of older versions carry an ``active_forecast`` key
        (the removed forecast fault kind); restoring one still works."""
        sched = FaultSchedule(events=(FaultEvent(t=0, kind="group_fail", group=1),))
        injector = FaultInjector(sched, num_groups=3)
        injector.begin_slot(0)
        state = injector.state_dict()
        clone = FaultInjector(sched, num_groups=3)
        clone.load_state_dict({**state, "active_forecast": [["bias", 0.4, 5]]})
        assert clone.state_dict() == state


class TestDegradation:
    def test_proportional_action_serves_what_fits(self, tiny_model):
        cap = tiny_model.fleet.capacity(tiny_model.gamma)
        action = proportional_action(tiny_model, 0.4 * cap, failed=frozenset({0}))
        assert action.levels[0] == -1
        served = action.rows.served
        assert served == pytest.approx(0.4 * cap, rel=1e-9)

    def test_fallback_conservation_under_overload(self, chaos_scenario):
        """Failing most groups forces fallbacks; load must stay conserved
        and the run must complete."""
        G = chaos_scenario.model.fleet.num_groups
        events = tuple(
            FaultEvent(t=2, kind="group_fail", group=g) for g in range(G - 1)
        )
        record = _run(
            chaos_scenario,
            faults=FaultSchedule(events=events),
            degradation=DegradationPolicy(mode="proportional"),
        )
        np.testing.assert_allclose(
            record.served + record.dropped, record.arrival_actual, rtol=1e-9
        )
        assert record.dropped.sum() > 0  # one group cannot carry the fleet

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(mode="prayer")
        with pytest.raises(ValueError):
            DegradationPolicy(retries=-1)


class TestFaultTelemetry:
    def test_fault_events_and_summary_emitted(self, chaos_scenario):
        sched = FaultSchedule.generate(
            7,
            horizon=chaos_scenario.horizon,
            num_groups=chaos_scenario.model.fleet.num_groups,
            failure_rate=0.1,
            signal_rate=0.15,
        )
        tele = Telemetry.recording()
        _run(chaos_scenario, faults=sched, telemetry=tele)
        kinds = {e["kind"] for e in tele.events}
        assert "fault.inject" in kinds
        assert "fault.summary" in kinds
        summary = next(e for e in tele.events if e["kind"] == "fault.summary")
        injected = sum(
            1 for e in tele.events if e["kind"] == "fault.inject"
        )
        assert summary["injected"] == injected
        assert summary["degradation"]["mode"] == "last_action"

    def test_monitor_suite_passes_chaos_run(self, chaos_scenario):
        from repro.monitor import default_suite

        sched = FaultSchedule.generate(
            7,
            horizon=chaos_scenario.horizon,
            num_groups=chaos_scenario.model.fleet.num_groups,
            failure_rate=0.1,
        )
        tele = Telemetry.recording()
        _run(chaos_scenario, faults=sched, telemetry=tele)
        suite = default_suite()
        for e in tele.events:
            suite.observe(e)
        suite.finalize()
        fault_report = next(
            r for r in suite.reports() if r.monitor == "fault-activity"
        )
        assert fault_report.passed
        assert fault_report.checked > 0
