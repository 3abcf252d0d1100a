"""Heterogeneous server fleets and fleet-level actions.

The paper manages a data center of ~216 K servers by grouping homogeneous
machines and making capacity-provisioning decisions "on a group basis:
changing speed selections for a whole group of (homogeneous) servers in
batch" (section 4.2; GSD is evaluated with 200 groups).  :class:`Fleet`
captures that structure: a list of :class:`ServerGroup` entries, each a
count of identical servers, possibly with *different* profiles across groups
(heterogeneity "due to various reasons such as different purchase dates").

A one-slot decision -- the pair (speed vector, load distribution) of problem
P3 -- is a :class:`FleetAction`: one speed level per group (``-1`` = off,
i.e. the zero speed ``s_{i,0}``) plus a per-server load for each group.  By
symmetry and convexity of the delay cost, servers inside a group always
share load equally at an optimum, so a per-group scalar loses nothing.

Everything is laid out as padded NumPy tables so solvers can evaluate power
(Eq. (2)) and delay cost (Eq. (4)) for whole fleets, or for batches of
candidate actions, without Python-level loops.

Groups that share a profile and a speed level are interchangeable inside
the load-distribution solve: a per-server load depends only on the
(profile, level) *class*, and the group's server count only weights it.
:meth:`Fleet.class_histogram` collapses a level vector onto those classes;
the profile ids behind it are computed on first use, so fleets that never
reach the water-fill (per-slot failure sub-fleets on the enumeration
engine) never pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .server import ServerProfile, opteron_2380

__all__ = ["ServerGroup", "Fleet", "FleetAction", "default_fleet"]


@dataclass(frozen=True)
class ServerGroup:
    """``count`` identical servers sharing one :class:`ServerProfile`."""

    profile: ServerProfile
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("group count must be positive")

    @property
    def max_capacity(self) -> float:
        """Aggregate top-speed service rate (req/s)."""
        return self.count * self.profile.max_speed

    @property
    def max_power(self) -> float:
        """Aggregate full-speed full-load power (MW)."""
        return self.count * self.profile.max_power


class Fleet:
    """A heterogeneous data center as padded group-level NumPy tables.

    Attributes (all read-only arrays; ``G`` groups, ``K`` = max speed count):

    - ``counts[g]`` -- servers in group ``g``.
    - ``num_levels[g]`` -- number of positive speed levels of group ``g``.
    - ``speed_table[g, k]`` -- service rate of level ``k`` (req/s); padded
      entries (``k >= num_levels[g]``) hold ``nan`` and are masked by
      ``level_valid``.
    - ``dyn_coeff[g, k]`` -- dynamic power per unit load (MW per req/s),
      i.e. ``p_c(x) / x`` from Eq. (1).
    - ``static_power[g]`` -- per-server idle power (MW).
    """

    def __init__(self, groups: Sequence[ServerGroup]):
        if not groups:
            raise ValueError("fleet needs at least one group")
        self.groups: tuple[ServerGroup, ...] = tuple(groups)
        G = len(self.groups)
        K = max(g.profile.num_speeds for g in self.groups)

        counts = np.array([g.count for g in self.groups], dtype=np.float64)
        num_levels = np.array([g.profile.num_speeds for g in self.groups])
        speed_table = np.full((G, K), np.nan)
        dyn_table = np.full((G, K), np.nan)
        static = np.array([g.profile.static_power for g in self.groups])
        for gi, grp in enumerate(self.groups):
            k = grp.profile.num_speeds
            speed_table[gi, :k] = grp.profile.speeds
            dyn_table[gi, :k] = grp.profile.dynamic_power
        level_valid = ~np.isnan(speed_table)
        with np.errstate(invalid="ignore"):
            dyn_coeff = dyn_table / speed_table

        for arr in (counts, speed_table, dyn_table, static, level_valid, dyn_coeff):
            arr.setflags(write=False)
        self.counts = counts
        self.num_levels = num_levels
        self.speed_table = speed_table
        self.dynamic_power_table = dyn_table
        self.static_power = static
        self.level_valid = level_valid
        self.dyn_coeff = dyn_coeff

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        """Number of groups ``G``."""
        return len(self.groups)

    @property
    def num_servers(self) -> int:
        """Total server count ``N``."""
        return int(self.counts.sum())

    @property
    def max_levels(self) -> int:
        """Padded speed-table width ``K``."""
        return self.speed_table.shape[1]

    @property
    def max_capacity(self) -> float:
        """Total top-speed service rate (req/s)."""
        return float(sum(g.max_capacity for g in self.groups))

    @property
    def max_power(self) -> float:
        """Total power (MW) with every server at top speed, fully loaded."""
        return float(sum(g.max_power for g in self.groups))

    @property
    def is_homogeneous(self) -> bool:
        """True when all groups share one profile (enables the fast
        enumeration solver)."""
        first = self.groups[0].profile
        return all(g.profile is first or g.profile == first for g in self.groups[1:])

    # ------------------------------------------------------------------
    # (profile, level) classes
    # ------------------------------------------------------------------
    #: Lazily derived attributes, left out of pickles so a fleet's pickled
    #: form (and any fingerprint hashed from it) does not depend on whether
    #: a solver has touched it yet.
    _LAZY = ("profile_ids", "_class_tables")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._LAZY:
            state.pop(name, None)
        return state

    @cached_property
    def profile_ids(self) -> np.ndarray:
        """Integer profile id per group, numbered in order of first
        appearance; groups whose static power and speed/power rows match
        share an id, whether or not they share a profile object."""
        seen: dict[tuple, int] = {}
        ids = np.empty(self.num_groups, dtype=np.int64)
        for g in range(self.num_groups):
            key = (
                float(self.static_power[g]),
                self.speed_table[g].tobytes(),
                self.dynamic_power_table[g].tobytes(),
            )
            ids[g] = seen.setdefault(key, len(seen))
        ids.setflags(write=False)
        return ids

    @cached_property
    def _class_tables(self) -> tuple[np.ndarray, ...]:
        """``(flat class-id table, per-group row offsets, class speed, class
        dynamic coefficient, class static power)``.  Class ``0`` is "off";
        class ``1 + p * K + k`` is profile ``p`` at level ``k``."""
        pid = self.profile_ids
        K = self.max_levels
        _, first = np.unique(pid, return_index=True)
        table = np.zeros((self.num_groups, K + 1), dtype=np.int64)
        table[:, 1:] = 1 + pid[:, None] * K + np.arange(K)
        offsets = np.arange(self.num_groups, dtype=np.int64) * (K + 1) + 1
        speed = np.concatenate(([0.0], self.speed_table[first].ravel()))
        coeff = np.concatenate(([0.0], self.dyn_coeff[first].ravel()))
        static = np.concatenate(([0.0], np.repeat(self.static_power[first], K)))
        return table.ravel(), offsets, speed, coeff, static

    @property
    def num_classes(self) -> int:
        """Size of the class-id space, the "off" class ``0`` included."""
        return self._class_tables[2].size

    @property
    def class_speed(self) -> np.ndarray:
        """Service rate per class id (req/s; ``0`` for the off class)."""
        return self._class_tables[2]

    @property
    def class_dyn_coeff(self) -> np.ndarray:
        """Dynamic power per unit load per class id (MW per req/s)."""
        return self._class_tables[3]

    @property
    def class_static_power(self) -> np.ndarray:
        """Per-server idle power per class id (MW)."""
        return self._class_tables[4]

    def class_histogram(
        self, levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collapse a level vector onto (profile, level) classes.

        Returns ``(ids, classes, counts)``: the class id of every group
        (``0`` when off), the ascending ids of the classes with at least
        one on group, and the summed server count of each of those.
        """
        flat, offsets, speed, _, _ = self._class_tables
        ids = flat[offsets + levels]
        members = np.bincount(ids, minlength=speed.size)
        members[0] = 0
        classes = np.flatnonzero(members)
        counts = np.bincount(ids, weights=self.counts, minlength=speed.size)
        return ids, classes, counts[classes]

    def capacity(self, gamma: float) -> float:
        """Usable service rate under the utilization cap ``gamma`` (Eq. (7))."""
        return gamma * self.max_capacity

    # ------------------------------------------------------------------
    # Vectorized action evaluation
    # ------------------------------------------------------------------
    def group_speeds(self, levels: np.ndarray) -> np.ndarray:
        """Per-group service rate for a level vector (``-1`` -> 0 speed)."""
        levels = np.asarray(levels)
        on = levels >= 0
        out = np.zeros(self.num_groups)
        out[on] = self.speed_table[np.nonzero(on)[0], levels[on]]
        return out

    def action_power(self, levels: np.ndarray, per_server_load: np.ndarray) -> float:
        """Total IT power (MW) of an action -- Eq. (2) summed over groups."""
        levels = np.asarray(levels)
        load = np.asarray(per_server_load, dtype=np.float64)
        on = levels >= 0
        idx = np.nonzero(on)[0]
        if idx.size == 0:
            return 0.0
        coeff = self.dyn_coeff[idx, levels[idx]]
        per_server = self.static_power[idx] + coeff * load[idx]
        return float(np.sum(self.counts[idx] * per_server))

    def action_delay_sum(
        self,
        levels: np.ndarray,
        per_server_load: np.ndarray,
        delay_model=None,
    ) -> float:
        """Unweighted delay sum over all servers.

        With the default ``delay_model=None`` this is Eq. (4)'s M/G/1/PS
        form ``sum_i lambda_i / (x_i - lambda_i)``; pass any
        :class:`~repro.cluster.queueing.DelayCostModel` to evaluate an
        alternative convex delay cost (section 2.3's generality claim).
        Infinite when any server is at or beyond saturation under the
        M/G/1/PS model; other models define their own saturation behavior.
        """
        levels = np.asarray(levels)
        load = np.asarray(per_server_load, dtype=np.float64)
        on = levels >= 0
        idx = np.nonzero(on)[0]
        if idx.size == 0:
            return 0.0 if np.all(load[~on] <= 0) else np.inf
        x = self.speed_table[idx, levels[idx]]
        lam = load[idx]
        if delay_model is None:
            if np.any(lam >= x):
                return np.inf
            return float(np.sum(self.counts[idx] * lam / (x - lam)))
        return float(np.sum(self.counts[idx] * delay_model.cost(lam, x)))

    def validate_action(
        self,
        levels: np.ndarray,
        per_server_load: np.ndarray,
        total_load: float,
        gamma: float,
        *,
        atol: float = 1e-6,
    ) -> None:
        """Raise ``ValueError`` unless the action satisfies constraints
        (7)-(9): valid levels, loads in ``[0, gamma * x]``, and loads summing
        to ``total_load``."""
        levels = np.asarray(levels)
        load = np.asarray(per_server_load, dtype=np.float64)
        if levels.shape != (self.num_groups,) or load.shape != (self.num_groups,):
            raise ValueError("action arrays must have one entry per group")
        if np.any(levels >= self.num_levels):
            raise ValueError("speed level out of range for some group")
        off = levels < 0
        if np.any(load[off] > atol):
            raise ValueError("off groups must carry zero load")
        if np.any(load < -atol):
            raise ValueError("negative per-server load")
        speeds = self.group_speeds(levels)
        if np.any(load > gamma * speeds + atol * np.maximum(speeds, 1.0)):
            raise ValueError("per-server load exceeds gamma * speed")
        served = float(np.sum(self.counts * load))
        scale = max(abs(total_load), 1.0)
        if abs(served - total_load) > 1e-6 * scale + atol:
            raise ValueError(
                f"load distribution serves {served:.6g}, expected {total_load:.6g}"
            )


@dataclass(frozen=True)
class FleetAction:
    """One slot's capacity-provisioning + load-distribution decision.

    Attributes
    ----------
    levels:
        Integer speed level per group; ``-1`` means the zero speed (off).
    per_server_load:
        Arrival rate (req/s) routed to *each server* of each group.
    """

    levels: np.ndarray
    per_server_load: np.ndarray

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=np.int64).copy()
        load = np.asarray(self.per_server_load, dtype=np.float64).copy()
        if levels.shape != load.shape or levels.ndim != 1:
            raise ValueError("levels and per_server_load must be equal-length 1-D")
        levels.setflags(write=False)
        load.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "per_server_load", load)

    @classmethod
    def all_off(cls, fleet: Fleet) -> "FleetAction":
        """The idle action: every group at the zero speed."""
        g = fleet.num_groups
        return cls(levels=np.full(g, -1, dtype=np.int64), per_server_load=np.zeros(g))

    def power(self, fleet: Fleet) -> float:
        """Total IT power (MW) under this action."""
        return fleet.action_power(self.levels, self.per_server_load)

    def delay_sum(self, fleet: Fleet) -> float:
        """Unweighted delay-cost sum (Eq. (4)) under this action."""
        return fleet.action_delay_sum(self.levels, self.per_server_load)

    def served_load(self, fleet: Fleet) -> float:
        """Total arrival rate served (req/s)."""
        return float(np.sum(fleet.counts * self.per_server_load))

    def active_servers(self, fleet: Fleet) -> float:
        """Number of servers that are on (at a positive speed)."""
        return float(np.sum(fleet.counts[self.levels >= 0]))

    def on_counts(self, fleet: Fleet) -> np.ndarray:
        """Per-group count of servers that are on."""
        return np.where(self.levels >= 0, fleet.counts, 0.0)


def default_fleet(
    *, num_groups: int = 200, servers_per_group: int = 1080
) -> Fleet:
    """The paper's simulated data center: ~216 K Opteron-2380 servers with a
    50 MW peak (216,000 x 231 W = 49.9 MW), organized as 200 homogeneous
    groups like the GSD evaluation."""
    profile = opteron_2380()
    return Fleet([ServerGroup(profile, servers_per_group) for _ in range(num_groups)])
