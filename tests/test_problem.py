"""Tests for the one-slot problem P3 (Eq. (16)) and its evaluation."""

import numpy as np
import pytest

from repro.cluster import PowerModel, SwitchingCostModel, TieredTariff
from repro.solvers import InfeasibleError, SlotProblem
from tests.billing_oracle import action_from_loads
from tests.conftest import make_problem


class TestValidation:
    def test_negative_inputs_rejected(self, tiny_model):
        for kw in (
            {"arrival_rate": -1.0},
            {"onsite": -1.0},
            {"price": -1.0},
            {"q": -1.0},
            {"V": 0.0},
        ):
            base = dict(arrival_rate=10.0, onsite=0.0, price=40.0)
            base.update(kw)
            with pytest.raises(ValueError):
                tiny_model.slot_problem(**base)

    def test_negative_beta_rejected(self, tiny_fleet):
        with pytest.raises(ValueError):
            SlotProblem(
                fleet=tiny_fleet, arrival_rate=1.0, onsite=0.0, price=1.0, beta=-1.0
            )

    def test_gamma_range(self, tiny_fleet):
        from repro.core import DataCenterModel

        with pytest.raises(ValueError):
            DataCenterModel(fleet=tiny_fleet, gamma=1.0).slot_problem(
                arrival_rate=1.0, onsite=0.0, price=1.0
            )

    def test_feasibility_check(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=1.1)
        with pytest.raises(InfeasibleError):
            p.check_feasible()
        make_problem(tiny_model, lam_frac=0.99).check_feasible()

    def test_prev_on_counts_shape(self, tiny_model):
        with pytest.raises(ValueError, match="per group"):
            tiny_model.slot_problem(
                arrival_rate=1.0,
                onsite=0.0,
                price=1.0,
                prev_on_counts=np.array([1.0]),
            )


class TestWeights:
    def test_electricity_weight_structure(self, tiny_model):
        """The P3 highlight: brown energy is priced at V*w + q."""
        p = tiny_model.slot_problem(arrival_rate=1.0, onsite=0.0, price=40.0, q=7.0, V=3.0)
        assert p.electricity_weight == pytest.approx(3.0 * 40.0 + 7.0)

    def test_delay_weight(self, tiny_model):
        p = make_problem(tiny_model)
        assert p.delay_weight == pytest.approx(tiny_model.beta * tiny_model.delay_unit_cost)


class TestEvaluation:
    def test_objective_decomposition(self, tiny_model):
        """objective == V * g + q * y exactly (Eq. (16))."""
        p = make_problem(tiny_model, lam_frac=0.5, price=40.0, q=5.0, V=2.0)
        levels = np.full(3, 3, dtype=np.int64)
        lam = p.arrival_rate / 30.0
        action = action_from_loads(tiny_model.fleet, levels, np.full(3, lam))
        ev = p.evaluate(action)
        assert ev.objective == pytest.approx(2.0 * ev.cost + 5.0 * ev.brown_energy)
        assert ev.cost == pytest.approx(ev.electricity_cost + ev.delay_cost)

    def test_onsite_offsets_power(self, tiny_model):
        p_dark = make_problem(tiny_model, lam_frac=0.5, onsite=0.0)
        p_sunny = make_problem(tiny_model, lam_frac=0.5, onsite=1e9)
        levels = np.full(3, 3, dtype=np.int64)
        action = action_from_loads(tiny_model.fleet, levels, np.full(3, p_dark.arrival_rate / 30.0))
        assert p_dark.evaluate(action).electricity_cost > 0
        assert p_sunny.evaluate(action).electricity_cost == 0.0
        assert p_sunny.evaluate(action).brown_energy == 0.0

    def test_pue_scales_facility_power(self, tiny_fleet):
        from repro.core import DataCenterModel

        m1 = DataCenterModel(fleet=tiny_fleet)
        m2 = DataCenterModel(fleet=tiny_fleet, power_model=PowerModel(pue=1.5))
        levels = np.full(3, 3, dtype=np.int64)
        action = action_from_loads(tiny_fleet, levels, np.full(3, 2.0))
        e1 = m1.slot_problem(arrival_rate=60.0, onsite=0.0, price=40.0).evaluate(action)
        e2 = m2.slot_problem(arrival_rate=60.0, onsite=0.0, price=40.0).evaluate(action)
        assert e2.facility_power == pytest.approx(1.5 * e1.facility_power)

    def test_switching_energy_billed_as_power(self, tiny_fleet):
        from repro.core import DataCenterModel

        model = DataCenterModel(
            fleet=tiny_fleet,
            switching=SwitchingCostModel(energy_per_toggle=1e-3),
        )
        p = model.slot_problem(
            arrival_rate=60.0,
            onsite=0.0,
            price=40.0,
            prev_on_counts=np.zeros(3),
        )
        levels = np.full(3, 3, dtype=np.int64)
        action = action_from_loads(tiny_fleet, levels, np.full(3, 2.0))
        ev = p.evaluate(action)
        assert ev.switching_energy == pytest.approx(30 * 1e-3)
        # Switching energy increases facility power and hence cost.
        assert ev.facility_power == pytest.approx(ev.it_power + 0.03)

    def test_nonlinear_tariff_used(self, tiny_fleet):
        from repro.core import DataCenterModel

        tariff = TieredTariff(thresholds=(0.01,), multipliers=(1.0, 10.0))
        model = DataCenterModel(fleet=tiny_fleet, tariff=tariff)
        p = model.slot_problem(arrival_rate=60.0, onsite=0.0, price=40.0)
        levels = np.full(3, 3, dtype=np.int64)
        action = action_from_loads(tiny_fleet, levels, np.full(3, 2.0))
        ev = p.evaluate(action)
        expected = tariff.cost(ev.brown_energy, 40.0)
        assert ev.electricity_cost == pytest.approx(expected)


class TestVariants:
    def test_with_q(self, tiny_model):
        p = make_problem(tiny_model, q=0.0)
        assert p.with_q(9.0).q == 9.0

    def test_carbon_unaware(self, tiny_model):
        assert make_problem(tiny_model, q=5.0).carbon_unaware().q == 0.0

    def test_with_arrival_rate(self, tiny_model):
        assert make_problem(tiny_model).with_arrival_rate(7.0).arrival_rate == 7.0
