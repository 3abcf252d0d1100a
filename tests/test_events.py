"""Tests for the discrete-event M/G/1/PS simulator.

The analytic delay model (Eq. (4)) says mean jobs in system = rho/(1-rho)
and mean response time = 1/(x - lambda); PS queues are *insensitive* to the
service distribution beyond its mean.  The event simulator must agree.
"""

import numpy as np
import pytest

from tests.ps_queue_oracle import empirical_delay_sum, simulate_ps_queue


class TestAgainstTheory:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_jobs_mm1ps(self, rho):
        x = 10.0
        stats = simulate_ps_queue(
            rho * x, x, duration=30_000.0, rng=np.random.default_rng(1)
        )
        assert stats.mean_jobs == pytest.approx(rho / (1 - rho), rel=0.08)

    @pytest.mark.parametrize("rho", [0.4, 0.7])
    def test_mean_response_time(self, rho):
        x = 10.0
        stats = simulate_ps_queue(
            rho * x, x, duration=30_000.0, rng=np.random.default_rng(2)
        )
        assert stats.mean_response_time == pytest.approx(
            1.0 / (x - rho * x), rel=0.08
        )

    def test_utilization(self):
        stats = simulate_ps_queue(
            6.0, 10.0, duration=20_000.0, rng=np.random.default_rng(3)
        )
        assert stats.utilization == pytest.approx(0.6, rel=0.05)

    def test_insensitivity_to_service_distribution(self):
        """M/D/1-PS and M/M/1-PS share the same mean jobs in system."""
        x, lam = 10.0, 7.0
        det = simulate_ps_queue(
            lam,
            x,
            duration=30_000.0,
            rng=np.random.default_rng(4),
            service_sampler=lambda g, n: np.ones(n),
        )
        exp = simulate_ps_queue(
            lam, x, duration=30_000.0, rng=np.random.default_rng(5)
        )
        target = 0.7 / 0.3
        assert det.mean_jobs == pytest.approx(target, rel=0.08)
        assert exp.mean_jobs == pytest.approx(target, rel=0.08)

    def test_heavy_tailed_service_same_mean(self):
        """Pareto-ish service (finite mean) still matches -- insensitivity."""
        x, lam = 10.0, 6.0

        def pareto_mean_one(g, n):
            a = 2.5  # shape; mean = a/(a-1) * scale -> scale = (a-1)/a
            return (g.pareto(a, size=n) + 1.0) * (a - 1.0) / a

        stats = simulate_ps_queue(
            lam, x, duration=40_000.0, rng=np.random.default_rng(6),
            service_sampler=pareto_mean_one,
        )
        assert stats.mean_jobs == pytest.approx(0.6 / 0.4, rel=0.12)


class TestValidation:
    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            simulate_ps_queue(10.0, 10.0, duration=10.0, rng=np.random.default_rng(0))

    def test_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_ps_queue(-1.0, 10.0, duration=10.0, rng=rng)
        with pytest.raises(ValueError):
            simulate_ps_queue(1.0, 10.0, duration=0.0, rng=rng)
        with pytest.raises(ValueError):
            simulate_ps_queue(
                1.0,
                10.0,
                duration=10.0,
                rng=rng,
                service_sampler=lambda g, n: np.zeros(n),
            )

    def test_zero_arrivals(self):
        stats = simulate_ps_queue(0.0, 10.0, duration=100.0, rng=np.random.default_rng(0))
        assert stats.mean_jobs == 0.0
        assert stats.completed == 0


class TestEmpiricalDelaySum:
    def test_matches_analytic_fleet_delay(self, tiny_fleet):
        """The event-based delay sum validates Fleet.action_delay_sum."""
        levels = np.array([3, 3, -1])
        loads = np.array([6.0, 4.0, 0.0])
        analytic = tiny_fleet.action_delay_sum(levels, loads)
        empirical = empirical_delay_sum(
            tiny_fleet,
            levels,
            loads,
            duration=20_000.0,
            rng=np.random.default_rng(7),
        )
        assert empirical == pytest.approx(analytic, rel=0.1)

    def test_idle_groups_contribute_nothing(self, tiny_fleet):
        levels = np.array([3, -1, -1])
        loads = np.array([0.0, 0.0, 0.0])
        assert empirical_delay_sum(tiny_fleet, levels, loads, duration=100.0) == 0.0
