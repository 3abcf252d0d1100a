"""Tests for delay-cost models (Eq. (4) and the pluggable interface)."""

import numpy as np
import pytest

from repro.cluster import MG1PSDelay, SquaredLoadDelay


class TestMG1PS:
    def test_cost_formula(self):
        m = MG1PSDelay()
        assert m.cost(4.0, 10.0) == pytest.approx(4.0 / 6.0)

    def test_zero_load_zero_cost(self):
        assert MG1PSDelay().cost(0.0, 10.0) == 0.0

    def test_saturation_infinite(self):
        m = MG1PSDelay()
        assert m.cost(10.0, 10.0) == np.inf
        assert m.cost(11.0, 10.0) == np.inf

    def test_increasing_in_load(self):
        m = MG1PSDelay()
        loads = np.linspace(0, 9, 50)
        costs = m.cost(loads, 10.0)
        assert np.all(np.diff(costs) > 0)

    def test_decreasing_in_speed(self):
        m = MG1PSDelay()
        assert m.cost(4.0, 12.0) < m.cost(4.0, 10.0)

    def test_convex_in_load(self):
        m = MG1PSDelay()
        loads = np.linspace(0, 9.5, 100)
        costs = m.cost(loads, 10.0)
        assert np.all(np.diff(costs, 2) > -1e-12)

    def test_marginal_is_derivative(self):
        m = MG1PSDelay()
        eps = 1e-6
        numeric = (m.cost(4.0 + eps, 10.0) - m.cost(4.0 - eps, 10.0)) / (2 * eps)
        assert m.marginal(4.0, 10.0) == pytest.approx(numeric, rel=1e-6)

    def test_inverse_of_marginal(self):
        m = MG1PSDelay()
        for lam in [0.5, 3.0, 8.0]:
            grad = m.marginal(lam, 10.0)
            assert m.load_at_marginal(grad, 10.0) == pytest.approx(lam, rel=1e-9)

    def test_inverse_clipped_to_range(self):
        m = MG1PSDelay()
        # Marginal below the at-zero value maps to load 0.
        assert m.load_at_marginal(1e-9, 10.0) == 0.0

    def test_mean_response_time(self):
        m = MG1PSDelay()
        assert m.mean_response_time(4.0, 10.0) == pytest.approx(1.0 / 6.0)
        assert m.mean_response_time(10.0, 10.0) == np.inf

    def test_vectorized(self):
        m = MG1PSDelay()
        out = m.cost(np.array([1.0, 2.0]), np.array([10.0, 10.0]))
        assert out.shape == (2,)


class TestSquaredLoad:
    def test_cost_and_marginal_consistent(self):
        m = SquaredLoadDelay()
        eps = 1e-6
        numeric = (m.cost(4.0 + eps, 10.0) - m.cost(4.0 - eps, 10.0)) / (2 * eps)
        assert m.marginal(4.0, 10.0) == pytest.approx(numeric, rel=1e-6)

    def test_inverse_of_marginal(self):
        m = SquaredLoadDelay()
        grad = m.marginal(3.0, 10.0)
        assert m.load_at_marginal(grad, 10.0) == pytest.approx(3.0)

    def test_finite_at_saturation(self):
        assert np.isfinite(SquaredLoadDelay().cost(10.0, 10.0))

    def test_zero_load_zero_cost(self):
        assert SquaredLoadDelay().cost(0.0, 10.0) == 0.0


@pytest.mark.parametrize("model", [MG1PSDelay(), SquaredLoadDelay()])
class TestScalarForms:
    """The scalar forms the class-space water-fill calls agree with the
    vectorized model they shadow."""

    @pytest.mark.parametrize("load", [0.0, 1.0, 4.5, 9.0])
    def test_cost_at_matches_cost(self, model, load):
        assert model.cost_at(load, 9.5) == float(model.cost(np.array([load]), 9.5)[0])

    @pytest.mark.parametrize("m", [0.2, 1.0, 1.5])  # unclipped for both
    def test_inverse_marginal_slope_is_the_derivative(self, model, m):
        h = 1e-6 * m
        numeric = (
            float(model.load_at_marginal(m + h, 10.0))
            - float(model.load_at_marginal(m - h, 10.0))
        ) / (2.0 * h)
        assert model.inverse_marginal_slope(m, 10.0) == pytest.approx(numeric, rel=1e-6)
        # The generic fallback (a central difference) agrees as well.
        generic = type(model).__mro__[1].inverse_marginal_slope(model, m, 10.0)
        assert generic == pytest.approx(numeric, rel=1e-6)
