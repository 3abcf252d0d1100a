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
i.e. the zero speed ``s_{i,0}``) plus the load split as :class:`ClassRows`.
By symmetry and convexity of the delay cost, servers that share a profile
and a speed share load equally at an optimum, so one per-server load per
(profile, level) class loses nothing.

Everything is laid out as padded NumPy tables so solvers can score power
(Eq. (2)) and delay cost (Eq. (4)) for batches of candidate on-sets without
Python-level loops.

Groups that share a profile and a speed level are interchangeable inside
the load-distribution solve: a per-server load depends only on the
(profile, level) *class*, and the group's server count only weights it.
:meth:`Fleet.class_counts` collapses a level vector onto those classes;
the profile ids behind it are computed on first use, so fleets that never
reach the water-fill (the exact engine's) never pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .server import ServerProfile, opteron_2380

__all__ = ["ServerGroup", "Fleet", "FleetAction", "ClassRows", "default_fleet"]


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

    # Aggregates over ``groups`` are cached: groups never change, and the
    # per-slot feasibility check reads them on every solve.  The totals are
    # Python ``sum`` over the per-group values in index order (``np.sum``
    # is pairwise and can differ in the last bit), so :meth:`capacity` of
    # any list of groups has the same bits as a fleet built from them.
    @cached_property
    def _group_capacity(self) -> np.ndarray:
        return np.array([g.max_capacity for g in self.groups], dtype=np.float64)

    @cached_property
    def max_capacity(self) -> float:
        """Total top-speed service rate (req/s)."""
        return float(sum(self._group_capacity.tolist()))

    @cached_property
    def max_power(self) -> float:
        """Total power (MW) with every server at top speed, fully loaded."""
        return float(sum(g.max_power for g in self.groups))

    @cached_property
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
    _LAZY = (
        "_group_capacity",
        "max_capacity",
        "max_power",
        "is_homogeneous",
        "profile_ids",
        "_class_tables",
        "class_lists",
        "prefix_servers",
        "nondominated_levels",
    )

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
    def class_id_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, offsets)``: group ``g`` at level ``l`` belongs to class
        ``flat[offsets[g] + l]`` (level ``-1`` maps to the off class ``0``)."""
        return self._class_tables[:2]

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

    def class_counts(self, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, counts)``: the class id of every group (``0`` when off)
        and the summed server count of every class id, ``num_classes``
        long, with the off class ``0`` at zero."""
        flat, offsets, speed, _, _ = self._class_tables
        ids = flat[offsets + levels]
        counts = np.bincount(ids, weights=self.counts, minlength=speed.size)
        counts[0] = 0.0
        return ids, counts

    @cached_property
    def class_lists(self) -> tuple[list[float], list[float], list[float]]:
        """``(speed, dynamic coefficient, static power)`` per class id as
        plain float lists, for the scalar loops over a few class rows."""
        _, _, speed, coeff, static = self._class_tables
        return speed.tolist(), coeff.tolist(), static.tolist()

    @cached_property
    def prefix_servers(self) -> list[float]:
        """Server count of every group prefix: ``prefix_servers[j]`` servers
        in the first ``j`` groups, ``j = 0..G``, as plain floats.  These are
        the on-set sizes the exact engine searches each slot; built on first
        use and kept out of pickles, so they live exactly as long as this
        fleet."""
        return [0.0, *np.cumsum(self.counts).tolist()]

    @cached_property
    def nondominated_levels(self) -> tuple[int, ...]:
        """Speed levels of the first group's profile (the whole fleet's, on
        a homogeneous fleet) that no other level dominates.

        Level ``k`` is dominated when another level is at least as fast and
        draws at most as much dynamic power per request, one of the two
        strictly.  Speeds strictly increase, so that is a higher level with
        a dynamic coefficient no larger than ``k``'s.  On the Opteron 2380
        the top level dominates the other three."""
        coeff = self.groups[0].profile.energy_per_request.tolist()
        return tuple(
            k for k, c in enumerate(coeff) if all(c < other for other in coeff[k + 1:])
        )

    def capacity(self, gamma: float, groups: np.ndarray | None = None) -> float:
        """Usable service rate under the utilization cap ``gamma`` (Eq. (7))
        of the groups at indices ``groups`` (all when ``None``), summed in
        index order like :attr:`max_capacity`."""
        if groups is None:
            return gamma * self.max_capacity
        return gamma * float(sum(self._group_capacity[groups].tolist()))

    def group_speeds(self, levels: np.ndarray) -> np.ndarray:
        """Per-group service rate for a level vector (``-1`` -> 0 speed)."""
        levels = np.asarray(levels)
        on = levels >= 0
        out = np.zeros(self.num_groups)
        out[on] = self.speed_table[np.nonzero(on)[0], levels[on]]
        return out


class ClassRows(NamedTuple):
    """The load split of one slot's decision, in (profile, level) class
    space.

    In the KKT water-fill a group's per-server load depends only on its
    class, and every engine and fallback here loads a class uniformly.  So
    the split is one row per class with servers on: its class id (the ids
    of :meth:`Fleet.class_counts`, ascending), the servers on in it and
    their per-server load.  The paper's 200 homogeneous groups make one
    row; nothing about a row depends on how many groups it spans.
    """

    classes: tuple[int, ...]
    counts: tuple[float, ...]
    loads: tuple[float, ...]

    @classmethod
    def of(cls, fleet: "Fleet", levels: np.ndarray, class_load) -> "ClassRows":
        """The rows of ``levels`` with per-server load ``class_load[k]`` on
        every on class ``k`` (an array or mapping indexed by class id)."""
        counts = fleet.class_counts(levels)[1]
        classes = np.flatnonzero(counts).tolist()
        return cls(
            tuple(classes),
            tuple(counts[classes].tolist()),
            tuple(float(class_load[k]) for k in classes),
        )

    @property
    def served(self) -> float:
        """Total arrival rate served (req/s)."""
        total = 0.0
        for n, load in zip(self.counts, self.loads):
            total += n * load
        return total

    @property
    def active_servers(self) -> float:
        """Servers that are on (an integer-valued float, exactly)."""
        return float(sum(self.counts))

    def totals(self, fleet: "Fleet", delay_model) -> tuple[float, float, float]:
        """``(it_power, delay_sum, served)``: IT power (MW), the unweighted
        delay sum of ``delay_model`` and the served load (req/s), in one
        pass over the rows."""
        speed, coeff, static = fleet.class_lists
        cost = delay_model.cost_at
        it_power = delay_sum = served = 0.0
        for k, n, load in zip(self.classes, self.counts, self.loads):
            it_power += n * (static[k] + coeff[k] * load)
            delay_sum += n * cost(load, speed[k])
            served += n * load
        return it_power, delay_sum, served


@dataclass(frozen=True, eq=False)
class FleetAction:
    """One slot's decision of problem P3: a speed vector and a load split.

    Attributes
    ----------
    levels:
        Integer speed level per group; ``-1`` means the zero speed (off).
        The on-counts behind switching energy are read from these.  Kept
        as given when already a 1-D, read-only ``int64`` array that owns
        its data (nothing else can write to it); any other input is copied.
    rows:
        The load split as :class:`ClassRows`: every server of a class
        carries its row's per-server load (req/s).

    Two actions are equal when their levels and rows are.
    """

    levels: np.ndarray
    rows: ClassRows

    def __post_init__(self) -> None:
        levels = self.levels
        if (
            isinstance(levels, np.ndarray)
            and levels.ndim == 1
            and levels.dtype == np.int64
            and not levels.flags.writeable
            and levels.flags.owndata
        ):
            return
        levels = np.asarray(levels, dtype=np.int64).copy()
        if levels.ndim != 1:
            raise ValueError("levels must be 1-D")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FleetAction):
            return NotImplemented
        return np.array_equal(self.levels, other.levels) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.levels.tobytes(), self.rows))

    @classmethod
    def all_off(cls, fleet: Fleet) -> "FleetAction":
        """The idle action: every group at the zero speed."""
        return cls(np.full(fleet.num_groups, -1, dtype=np.int64), ClassRows((), (), ()))

    def active_servers(self, fleet: Fleet) -> float:
        """Number of servers that are on (at a positive speed)."""
        return float(fleet.counts[self.levels >= 0].sum())

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
