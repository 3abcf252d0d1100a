"""Deadline-bounded anytime solving: budgets, incumbents, monitoring.

The contract (docs/OPERATIONS.md): a :class:`~repro.solvers.SolveDeadline`
threads a wall-clock budget into the iterative P3 engines; on expiry they
return their best *feasible* incumbent (flagged in ``info["deadline"]``)
rather than blowing the slot, raise
:class:`~repro.solvers.DeadlineExceededError` only when no feasible
incumbent exists yet (which the engine's degradation path absorbs like any
infeasible solve), and the run's ``deadline.*`` telemetry is watched by
:class:`~repro.monitor.DeadlineMonitor`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coca import COCA
from repro.faults import DegradationPolicy, FaultSchedule
from repro.monitor import AlertChannel, DeadlineMonitor, default_suite, replay
from repro.scenarios import small_scenario
from repro.sim import simulate
from repro.solvers import (
    CoordinateDescentSolver,
    DeadlineExceededError,
    DistributedGSD,
    GSDSolver,
    InfeasibleError,
    SolveDeadline,
)
from repro.telemetry import InMemoryTracer, Telemetry
from tests.billing_oracle import group_loads
from tests.conftest import make_problem


class TestSolveDeadline:
    def test_unbounded_never_expires(self):
        deadline = SolveDeadline(None)
        assert not deadline.expired()

    def test_zero_budget_expires_immediately(self):
        deadline = SolveDeadline(0.0)
        assert deadline.expired()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SolveDeadline(-1.0)

    def test_elapsed_advances(self):
        deadline = SolveDeadline(10_000.0)
        first = deadline.elapsed_ms()
        second = deadline.elapsed_ms()
        assert second >= first >= 0.0

    def test_is_infeasible_subclass(self):
        # The engine's degradation path catches InfeasibleError; a deadline
        # blowout with no incumbent must ride the same fallback.
        assert issubclass(DeadlineExceededError, InfeasibleError)


class TestAnytimeSolvers:
    def _assert_feasible(self, problem, solution):
        fleet = problem.fleet
        caps = np.where(
            solution.action.levels >= 0,
            problem.gamma * fleet.group_speeds(solution.action.levels),
            0.0,
        )
        assert np.all(group_loads(fleet, solution.action) <= caps + 1e-9)
        assert solution.action.rows.served >= problem.arrival_rate - 1e-6
        assert np.isfinite(solution.evaluation.cost)

    def test_gsd_expired_returns_cap_feasible_incumbent(self, tiny_model):
        problem = make_problem(tiny_model)
        solver = GSDSolver(
            iterations=50, rng=np.random.default_rng(0), deadline_ms=0.0
        )
        solution = solver.solve(problem)
        info = solution.info["deadline"]
        assert info["expired"] and info["completed"] == 0
        assert info["planned"] == 50
        self._assert_feasible(problem, solution)

    def test_distributed_expired_bills_only_completed_iterations(self, tiny_model):
        # The distributed solver is the GSD chain, so the budget cuts it
        # the same way; the explore/decide bill covers what actually ran.
        problem = make_problem(tiny_model)
        solver = DistributedGSD(
            iterations=50, rng=np.random.default_rng(0), deadline_ms=0.0
        )
        solution = solver.solve(problem)
        info = solution.info["deadline"]
        assert info["expired"] and info["completed"] == 0
        assert "explore" not in solution.info["messages_by_kind"]
        assert solution.info["messages_by_kind"]["set_level"] == 3
        self._assert_feasible(problem, solution)

    def test_gsd_unbounded_reports_full_run(self, tiny_model):
        solver = GSDSolver(iterations=30, rng=np.random.default_rng(0))
        solution = solver.solve(make_problem(tiny_model))
        assert "deadline" not in solution.info

    def test_gsd_deadline_off_matches_deadline_unexpired(self, tiny_model):
        problem = make_problem(tiny_model)
        plain = GSDSolver(iterations=30, rng=np.random.default_rng(1)).solve(problem)
        generous = GSDSolver(
            iterations=30, rng=np.random.default_rng(1), deadline_ms=60_000.0
        ).solve(problem)
        assert np.array_equal(plain.action.levels, generous.action.levels)
        assert plain.evaluation.cost == generous.evaluation.cost

    def test_coordinate_descent_expired_returns_incumbent(self, tiny_model):
        problem = make_problem(tiny_model)
        solver = CoordinateDescentSolver(deadline_ms=0.0)
        solution = solver.solve(problem)
        assert solution.info["deadline"]["expired"]
        self._assert_feasible(problem, solution)

    def test_expiry_emits_deadline_telemetry(self, tiny_model):
        tracer = InMemoryTracer()
        solver = GSDSolver(
            iterations=50, rng=np.random.default_rng(0), deadline_ms=0.0
        )
        solver.bind_telemetry(Telemetry(tracer=tracer))
        solver.solve(make_problem(tiny_model))
        expired = [e for e in tracer.events if e["kind"] == "deadline.expired"]
        assert len(expired) == 1
        event = expired[0]
        assert event["completed"] == 0 and event["planned"] == 50
        assert event["best_feasible"] is True


class TestEngineIntegration:
    def test_deadline_run_completes_and_overruns_are_flagged(self):
        scenario = small_scenario(horizon=48, seed=3)
        tracer = InMemoryTracer()
        controller = COCA(
            scenario.model,
            scenario.environment.portfolio,
            v_schedule=150.0,
            alpha=scenario.alpha,
            solver=GSDSolver(iterations=50, rng=np.random.default_rng(0)),
        )
        record = simulate(
            scenario.model,
            controller,
            scenario.environment,
            telemetry=Telemetry(tracer=tracer),
            solve_deadline_ms=0.0,
        )
        assert len(record.cost) == 48
        kinds = {e["kind"] for e in tracer.events}
        assert "deadline.expired" in kinds
        assert "deadline.slot_overrun" in kinds

    def test_deadline_error_rides_degradation_fallback(self):
        scenario = small_scenario(horizon=48, seed=3)

        class BlownBudget(COCA):
            def decide(self, observation):
                raise DeadlineExceededError("budget exhausted, no incumbent")

        tracer = InMemoryTracer()
        policy = DegradationPolicy(mode="proportional", retries=2)
        record = simulate(
            scenario.model,
            BlownBudget(
                scenario.model,
                scenario.environment.portfolio,
                v_schedule=150.0,
                alpha=scenario.alpha,
            ),
            scenario.environment,
            telemetry=Telemetry(tracer=tracer),
            faults=FaultSchedule(events=(), messages=None, seed=None),
            degradation=policy,
        )
        assert len(record.cost) == 48
        assert policy.fallbacks == 48
        # Deadline blowouts are not retried (retrying would blow the budget
        # again): every slot records exactly one fallback, reason "deadline".
        assert policy.solve_retries == 0
        assert policy.by_reason == {"deadline": 48}
        fallbacks = [e for e in tracer.events if e["kind"] == "fault.fallback"]
        assert fallbacks and all(e["reason"] == "deadline" for e in fallbacks)


class TestDeadlineMonitor:
    def test_in_default_suite(self):
        assert any(
            isinstance(m, DeadlineMonitor) for m in default_suite().monitors
        )

    def _observe(self, monitor, events):
        channel = AlertChannel()
        for event in events:
            monitor.observe(event, channel)
        monitor.finalize(channel)
        return channel

    def test_expiry_with_incumbent_is_informational(self):
        monitor = DeadlineMonitor()
        channel = self._observe(
            monitor,
            [{"kind": "deadline.expired", "best_feasible": True, "t": 3}],
        )
        assert monitor.violations == 0
        assert channel.count("critical") == 0

    def test_expiry_without_incumbent_warns(self):
        monitor = DeadlineMonitor()
        channel = self._observe(
            monitor,
            [{"kind": "deadline.expired", "best_feasible": False, "t": 3}],
        )
        assert channel.count("warning") >= 1

    def test_hard_overrun_is_critical(self):
        monitor = DeadlineMonitor(overrun_factor=2.0)
        channel = self._observe(
            monitor,
            [
                {
                    "kind": "deadline.slot_overrun",
                    "t": 5,
                    "budget_ms": 10.0,
                    "elapsed_ms": 35.0,
                }
            ],
        )
        assert monitor.violations == 1
        assert channel.count("critical") == 1

    def test_soft_overrun_is_not_a_violation(self):
        monitor = DeadlineMonitor(overrun_factor=2.0)
        channel = self._observe(
            monitor,
            [
                {
                    "kind": "deadline.slot_overrun",
                    "t": 5,
                    "budget_ms": 10.0,
                    "elapsed_ms": 12.0,
                }
            ],
        )
        assert monitor.violations == 0
        assert channel.count("critical") == 0

    def test_replay_flags_deadline_run(self):
        scenario = small_scenario(horizon=48, seed=3)
        tracer = InMemoryTracer()
        controller = COCA(
            scenario.model,
            scenario.environment.portfolio,
            v_schedule=150.0,
            alpha=scenario.alpha,
            solver=GSDSolver(iterations=50, rng=np.random.default_rng(0)),
        )
        simulate(
            scenario.model,
            controller,
            scenario.environment,
            telemetry=Telemetry(tracer=tracer),
            solve_deadline_ms=0.0,
        )
        suite = replay(tracer.events, default_suite())
        monitor = next(
            m for m in suite.monitors if isinstance(m, DeadlineMonitor)
        )
        assert monitor.checked > 0
        assert monitor.expiries > 0
