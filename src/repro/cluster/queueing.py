"""Delay-cost models (paper Eq. (4) and generalizations).

The paper quantifies delay-induced revenue loss with a convex per-server
function ``d_i(lambda_i, x_i)``, increasing in the load and decreasing in
the service rate, and instantiates it with the M/G/1/PS mean number in
system ``lambda / (x - lambda)`` (average response time times arrival rate,
by Little's law).  Section 2.3 notes the analysis is "not restricted to the
specific delay cost given by (4)", so the solvers here work against the
:class:`DelayCostModel` interface; any strictly convex model that can report
its marginal cost and invert it plugs in.

``DELAY_UNIT_COST`` is the calibration constant converting one unit of
delay cost (one job-in-system for one hour) to dollars.  The paper's
absolute normalization of beta = 10 is not recoverable from the text (its
units depend on the authors' internal scaling); we document the combined
monetary weight ``beta * DELAY_UNIT_COST`` in EXPERIMENTS.md and verify that
the *relative* results (cost ratios, crossovers) are insensitive to it over
a wide band.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["DelayCostModel", "MG1PSDelay", "SquaredLoadDelay", "DELAY_UNIT_COST"]

#: Dollars per (job in system x hour); see module docstring.  Calibrated so
#: that, at the carbon-unaware optimum of the paper-scale scenario, delay
#: contributes roughly half of the operational cost and the neutrality knee
#: of the V sweep lands near the paper's V ~ 240 (see EXPERIMENTS.md).
DELAY_UNIT_COST = 6e-4


class DelayCostModel(ABC):
    """Convex per-server delay-cost interface.

    All methods are vectorized: ``load`` and ``speed`` may be arrays of a
    common broadcast shape.  Implementations must be convex and increasing
    in ``load``, with ``cost(0, x) == 0``, and strictly decreasing in
    ``speed`` at any positive load short of saturation.  The exact engine
    (:mod:`repro.solvers.enumeration`) relies on the last to drop speed
    levels that another level dominates, and on the first two for the
    convexity of its search.
    """

    @abstractmethod
    def cost(self, load: np.ndarray, speed: np.ndarray) -> np.ndarray:
        """Delay cost of one server at service rate ``speed`` serving
        ``load`` req/s (infinite at or beyond saturation)."""

    @abstractmethod
    def marginal(self, load: np.ndarray, speed: np.ndarray) -> np.ndarray:
        """Partial derivative of :meth:`cost` with respect to ``load``."""

    @abstractmethod
    def load_at_marginal(self, m: np.ndarray, speed: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`marginal` in the load argument: the load at
        which the marginal delay cost equals ``m`` (clipped to ``[0, speed)``
        semantics are the caller's responsibility)."""

    # Scalar forms for the class-compressed water-fill, which evaluates
    # them a handful of times per bisection step on plain floats, where
    # numpy's per-call dispatch would cost more than the arithmetic.  The
    # generic fallbacks route through the vectorized methods; models with a
    # closed form override them.

    def cost_at(self, load: float, speed: float) -> float:
        """Scalar :meth:`cost` for one server."""
        return float(self.cost(load, speed))

    def marginal_at(self, load: float, speed: float) -> float:
        """Scalar :meth:`marginal` for one server."""
        return float(self.marginal(load, speed))

    def inverse_marginal(self, m: float, speed: float) -> float:
        """Scalar :meth:`load_at_marginal` for one server, ``m > 0``, clipped
        to ``[0, speed]``."""
        return float(np.clip(self.load_at_marginal(m, speed), 0.0, speed))

    def inverse_marginal_slope(self, m: float, speed: float) -> float:
        """Derivative of the unclipped :meth:`inverse_marginal` with respect
        to ``m`` (``m > 0``): the slope of one server's water-fill load in
        its marginal price, which the warm water-fill's Newton steps use.
        The fallback is a central difference; models with a closed form
        override it."""
        h = 1e-6 * m
        return (
            float(self.load_at_marginal(m + h, speed))
            - float(self.load_at_marginal(m - h, speed))
        ) / (2.0 * h)


@dataclass(frozen=True)
class MG1PSDelay(DelayCostModel):
    """The paper's default: M/G/1/PS mean jobs in system, Eq. (4).

    ``cost = load / (speed - load)``; the marginal is
    ``speed / (speed - load)^2`` and its inverse is
    ``load = speed - sqrt(speed / m)``.
    """

    def cost(self, load, speed):
        # An array ``load`` makes a scalar pair at saturation divide by zero
        # under errstate instead of raising; ``speed`` is promoted with it.
        load = np.asarray(load, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(load < speed, load / (speed - load), np.inf)
        return np.where(load <= 0, 0.0, out)

    def marginal(self, load, speed):
        load = np.asarray(load, dtype=np.float64)
        speed = np.asarray(speed, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(load < speed, speed / (speed - load) ** 2, np.inf)

    def load_at_marginal(self, m, speed):
        m = np.asarray(m, dtype=np.float64)
        speed = np.asarray(speed, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = speed - np.sqrt(speed / m)
        return np.clip(lam, 0.0, speed)

    def cost_at(self, load, speed):
        if load <= 0.0:
            return 0.0
        return load / (speed - load) if load < speed else math.inf

    def marginal_at(self, load, speed):
        return speed / (speed - load) ** 2 if load < speed else math.inf

    def inverse_marginal(self, m, speed):
        load = speed - math.sqrt(speed / m)
        return load if load > 0.0 else 0.0

    def inverse_marginal_slope(self, m, speed):
        # d/dm (speed - sqrt(speed / m)) = 0.5 sqrt(speed / m) / m
        return 0.5 * math.sqrt(speed / m) / m

    def mean_response_time(self, load, speed):
        """Mean response time (seconds, for req/s rates): ``1/(x - lambda)``
        scaled by nothing -- with rates in req/s this is already seconds."""
        load = np.asarray(load, dtype=np.float64)
        speed = np.asarray(speed, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(load < speed, 1.0 / (speed - load), np.inf)


@dataclass(frozen=True)
class SquaredLoadDelay(DelayCostModel):
    """A smooth alternative convex model: ``cost = load^2 / speed``.

    Finite even at saturation; used in tests to demonstrate the solvers are
    not tied to the M/G/1/PS form (paper section 2.3 last paragraph).
    """

    def cost(self, load, speed):
        load = np.asarray(load, dtype=np.float64)
        speed = np.asarray(speed, dtype=np.float64)
        return load**2 / speed

    def marginal(self, load, speed):
        load = np.asarray(load, dtype=np.float64)
        speed = np.asarray(speed, dtype=np.float64)
        return 2.0 * load / speed

    def load_at_marginal(self, m, speed):
        m = np.asarray(m, dtype=np.float64)
        speed = np.asarray(speed, dtype=np.float64)
        return np.clip(m * speed / 2.0, 0.0, speed)

    def cost_at(self, load, speed):
        return load * load / speed

    def marginal_at(self, load, speed):
        return 2.0 * load / speed

    def inverse_marginal(self, m, speed):
        load = m * speed / 2.0
        return speed if load > speed else load

    def inverse_marginal_slope(self, m, speed):
        return speed / 2.0
