"""Tests for fleets, fleet actions and their class rows (Eqs. (2), (4),
constraints (7)-(9))."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClassRows,
    Fleet,
    FleetAction,
    MG1PSDelay,
    ServerGroup,
    ServerProfile,
    cubic_dvfs_profile,
    default_fleet,
    opteron_2380,
)
from tests.billing_oracle import action_from_loads
from tests.conftest import validate_action
from tests.failed_groups_oracle import subset


class TestFleetStructure:
    def test_default_fleet_matches_paper(self):
        fleet = default_fleet()
        assert fleet.num_groups == 200
        assert fleet.num_servers == 216_000
        # ~50 MW peak (216,000 x 231 W = 49.9 MW).
        assert fleet.max_power == pytest.approx(49.9, rel=0.01)
        assert fleet.max_capacity == pytest.approx(2.16e6)

    def test_homogeneity_detection(self, tiny_fleet, hetero_fleet):
        assert tiny_fleet.is_homogeneous
        assert not hetero_fleet.is_homogeneous

    def test_cached_aggregates_equal_recomputed(self, tiny_fleet, hetero_fleet):
        def recomputed(fleet):
            groups = fleet.groups
            return (
                float(sum(g.max_capacity for g in groups)),
                float(sum(g.max_power for g in groups)),
                all(g.profile == groups[0].profile for g in groups),
            )

        def cached(fleet):
            return fleet.max_capacity, fleet.max_power, fleet.is_homogeneous

        for fleet in (default_fleet(num_groups=7), tiny_fleet, hetero_fleet):
            assert cached(fleet) == recomputed(fleet)
            # Cached values stay out of pickles and come back recomputed.
            assert not set(Fleet._LAZY) & set(fleet.__getstate__())
            assert cached(pickle.loads(pickle.dumps(fleet))) == cached(fleet)
            # A sub-fleet computes its own values, not its parent's,
            # whether built from groups or sliced by the oracle.
            sliced = subset(fleet, range(1, fleet.num_groups))
            for sub in (Fleet(fleet.groups[1:]), sliced):
                assert cached(sub) == recomputed(sub)
        assert Fleet(hetero_fleet.groups[1:]).is_homogeneous

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Fleet([])

    def test_nonpositive_group_count_rejected(self):
        with pytest.raises(ValueError):
            ServerGroup(opteron_2380(), 0)

    def test_padded_tables(self, hetero_fleet):
        """Groups with fewer levels are nan-padded and masked."""
        fleet = Fleet(
            [
                ServerGroup(cubic_dvfs_profile(levels=2), 5),
                ServerGroup(cubic_dvfs_profile(levels=4, name="big"), 5),
            ]
        )
        assert fleet.max_levels == 4
        assert np.isnan(fleet.speed_table[0, 3])
        assert not fleet.level_valid[0, 2]
        assert fleet.level_valid[1, 3]

    def test_capacity_with_gamma(self, tiny_fleet):
        assert tiny_fleet.capacity(0.5) == pytest.approx(0.5 * tiny_fleet.max_capacity)

    def test_tables_readonly(self, tiny_fleet):
        with pytest.raises(ValueError):
            tiny_fleet.counts[0] = 5


_TABLES = (
    "counts",
    "num_levels",
    "speed_table",
    "dynamic_power_table",
    "static_power",
    "level_valid",
    "dyn_coeff",
)

# Two profiles of different widths (4 and 2 speed levels), so a subset of
# only the narrow one has its padded width trimmed.
_PROFILES = (opteron_2380(), cubic_dvfs_profile(levels=2))


@st.composite
def _fleet_and_subset(draw):
    """A heterogeneous fleet and a non-empty index set into it, in either
    sorted or arbitrary order."""
    kinds = draw(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=12))
    counts = draw(
        st.lists(st.integers(1, 1200), min_size=len(kinds), max_size=len(kinds))
    )
    fleet = Fleet([ServerGroup(_PROFILES[k], c) for k, c in zip(kinds, counts)])
    idx = draw(
        st.lists(
            st.integers(0, len(kinds) - 1), min_size=1, max_size=len(kinds), unique=True
        )
    )
    if draw(st.booleans()):
        idx.sort()
    return fleet, idx


class TestFleetSubset:
    """The failed-group oracle's ``subset`` slices the parent's tables; it
    must equal the fleet built from the same groups in every observable
    way."""

    @given(_fleet_and_subset(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_constructed(self, case, data):
        fleet, idx = case
        if data.draw(st.booleans()):
            fleet.max_capacity  # parent aggregates cached or not
        sub = subset(fleet, np.asarray(idx))
        ref = Fleet([fleet.groups[i] for i in idx])

        assert sub.groups == ref.groups
        for name in _TABLES:
            a, b = getattr(sub, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
            assert a.flags.writeable == b.flags.writeable, name
            assert a.flags.c_contiguous, name
        assert sub.max_capacity == ref.max_capacity
        assert sub.max_power == ref.max_power
        assert sub.is_homogeneous == ref.is_homogeneous
        assert sub.max_levels == ref.max_levels
        assert np.array_equal(sub.profile_ids, ref.profile_ids)
        levels = np.array(
            [data.draw(st.integers(-1, int(k) - 1)) for k in ref.num_levels]
        )
        for got, want in zip(sub.class_counts(levels), ref.class_counts(levels)):
            assert np.array_equal(got, want)
        assert pickle.dumps(sub) == pickle.dumps(ref)

    def test_homogeneous_parent_seeds_flag(self):
        fleet = default_fleet(num_groups=6)
        sub = subset(fleet, [0, 2, 5])
        assert "is_homogeneous" in sub.__dict__ and sub.is_homogeneous

    def test_nested_subset(self, hetero_fleet):
        fleet = Fleet(list(hetero_fleet.groups) * 3)
        inner = subset(subset(fleet, [1, 2, 4, 5]), [0, 3])
        ref = Fleet([fleet.groups[1], fleet.groups[5]])
        assert pickle.dumps(inner) == pickle.dumps(ref)
        assert inner.max_power == ref.max_power

    def test_empty_subset_rejected(self, tiny_fleet):
        with pytest.raises(ValueError, match="at least one group"):
            subset(tiny_fleet, [])


class TestGroupSpeeds:
    def test_group_speeds_off_is_zero(self, tiny_fleet):
        levels = np.array([-1, 0, 3])
        speeds = tiny_fleet.group_speeds(levels)
        assert speeds[0] == 0.0
        assert speeds[1] == pytest.approx(3.2)
        assert speeds[2] == pytest.approx(10.0)


class TestActionEvaluation:
    """A decision's class rows billed in one pass (:meth:`ClassRows.totals`)."""

    def test_power_matches_manual(self, tiny_fleet):
        """Eq. (2): sum over rows of n * (static + coeff * load)."""
        rows = ClassRows.of(tiny_fleet, np.array([3, 2, -1]), {3: 2.0, 4: 5.0})
        assert rows == ClassRows((3, 4), (10.0, 10.0), (2.0, 5.0))
        power, _, _ = rows.totals(tiny_fleet, MG1PSDelay())
        prof = opteron_2380()
        expected = 10 * prof.power(5.0, 3) + 10 * prof.power(2.0, 2)
        assert power == pytest.approx(expected)

    def test_all_off_power_zero(self, tiny_fleet):
        action = FleetAction.all_off(tiny_fleet)
        assert action.rows.totals(tiny_fleet, MG1PSDelay()) == (0.0, 0.0, 0.0)
        assert action.active_servers(tiny_fleet) == 0.0

    def test_delay_sum_matches_mg1ps(self, tiny_fleet):
        """Eq. (4): n * lambda / (x - lambda) per row."""
        rows = ClassRows((4,), (10.0,), (4.0,))
        _, d, _ = rows.totals(tiny_fleet, MG1PSDelay())
        assert d == pytest.approx(10 * 4.0 / (10.0 - 4.0))

    def test_delay_infinite_at_saturation(self, tiny_fleet):
        rows = ClassRows((4,), (10.0,), (10.0,))
        assert rows.totals(tiny_fleet, MG1PSDelay())[1] == np.inf

    def test_off_group_with_load_is_infinite_delay(self, tiny_fleet):
        """A row on the off class serves at zero speed."""
        rows = ClassRows((0,), (10.0,), (1.0,))
        assert rows.totals(tiny_fleet, MG1PSDelay())[1] == np.inf

    def test_served_load(self, tiny_fleet):
        action = FleetAction(np.array([3, 2, -1]), ClassRows((3, 4), (10.0, 10.0), (2.0, 1.0)))
        assert action.rows.served == pytest.approx(30.0)
        assert action.rows.active_servers == action.active_servers(tiny_fleet) == 20.0

    def test_on_counts(self, tiny_fleet):
        action = FleetAction(np.array([3, -1, 0]), ClassRows((1, 4), (10.0, 10.0), (0.5, 1.0)))
        np.testing.assert_allclose(action.on_counts(tiny_fleet), [10, 0, 10])


def _action(fleet, levels, loads):
    return action_from_loads(fleet, np.array(levels), np.array(loads))


class TestActionValidation:
    """The rows check the tests hold every engine's action to."""

    def test_valid_action_passes(self, tiny_fleet):
        action = _action(tiny_fleet, [3, 3, 3], [2.0, 2.0, 2.0])
        validate_action(tiny_fleet, action, 60.0, gamma=0.95)

    def test_overload_rejected(self, tiny_fleet):
        action = _action(tiny_fleet, [3, 3, 3], [9.9, 9.9, 9.9])
        with pytest.raises(ValueError, match="gamma"):
            validate_action(tiny_fleet, action, 3 * 99.0, gamma=0.95)

    def test_balance_mismatch_rejected(self, tiny_fleet):
        action = _action(tiny_fleet, [3, 3, 3], [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="serves"):
            validate_action(tiny_fleet, action, 100.0, gamma=0.95)

    def test_off_group_with_load_rejected(self, tiny_fleet):
        """Rows counting an off group's servers."""
        action = FleetAction(np.array([-1, 3, 3]), ClassRows((4,), (30.0,), (50.0 / 30.0,)))
        with pytest.raises(ValueError, match="off"):
            validate_action(tiny_fleet, action, 50.0, gamma=0.95)

    def test_bad_level_rejected(self, tiny_fleet):
        action = FleetAction(np.array([4, 3, 3]), ClassRows((4,), (20.0,), (1.5,)))
        with pytest.raises(ValueError, match="level"):
            validate_action(tiny_fleet, action, 30.0, gamma=0.95)


class TestFleetActionContainer:
    def test_arrays_frozen(self, tiny_fleet):
        action = FleetAction.all_off(tiny_fleet)
        with pytest.raises(ValueError):
            action.levels[0] = 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FleetAction(np.array([[1, 2]]), ClassRows((), (), ()))

    def test_read_only_owned_levels_kept(self):
        levels = np.array([3, 3, -1], dtype=np.int64)
        levels.setflags(write=False)
        action = FleetAction(levels, ClassRows((4,), (20.0,), (1.5,)))
        assert action.levels is levels
        # Handing an action's levels to the next one copies nothing.
        assert FleetAction(action.levels, action.rows).levels is levels

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([3, 3, -1], dtype=np.int64),  # writable
            lambda: [3, 3, -1],  # not an array
            lambda: np.array([3, 3, -1], dtype=np.int32),  # another dtype
        ],
    )
    def test_other_levels_copied(self, make):
        levels = make()
        action = FleetAction(levels, ClassRows((4,), (20.0,), (1.5,)))
        assert action.levels is not levels
        assert not action.levels.flags.writeable
        levels[0] = -1
        assert action.levels.tolist() == [3, 3, -1]

    def test_read_only_view_copied(self):
        """A read-only view can still change through its writable base."""
        base = np.array([3, 3, -1, -1], dtype=np.int64)
        view = base[:3]
        view.setflags(write=False)
        action = FleetAction(view, ClassRows((4,), (20.0,), (1.5,)))
        base[0] = -1
        assert action.levels.tolist() == [3, 3, -1]

    def test_equality_and_hash(self):
        rows = ClassRows((4,), (20.0,), (1.5,))
        a = FleetAction(np.array([3, 3]), rows)
        b = FleetAction([3, 3], ClassRows((4,), (20.0,), (1.5,)))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != FleetAction(np.array([3, -1]), rows)
        assert a != FleetAction(np.array([3, 3]), ClassRows((4,), (20.0,), (1.25,)))
        assert a != FleetAction(np.array([3, 3, -1]), rows)
        assert a != (a.levels, a.rows)


class TestNondominatedLevels:
    def test_opteron_top_level_dominates(self):
        assert default_fleet(num_groups=3).nondominated_levels == (3,)

    def test_cubic_profile_keeps_every_level(self):
        fleet = Fleet([ServerGroup(cubic_dvfs_profile(levels=5), 4)])
        assert fleet.nondominated_levels == (0, 1, 2, 3, 4)

    def test_matches_pairwise_definition(self):
        """Level k is dominated when another level is at least as fast and
        at most as costly per request, one of the two strictly."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            K = int(rng.integers(1, 7))
            speeds = np.cumsum(rng.uniform(0.5, 3.0, K))
            dyn = speeds * rng.choice([1.0, 2.0, 3.0], K) * 1e-5
            fleet = Fleet([ServerGroup(ServerProfile("p", 1e-4, speeds, dyn), 3)])
            coeff = fleet.groups[0].profile.energy_per_request
            want = tuple(
                k for k in range(K)
                if not any(
                    speeds[o] >= speeds[k] and coeff[o] <= coeff[k]
                    and (speeds[o] > speeds[k] or coeff[o] < coeff[k])
                    for o in range(K) if o != k
                )
            )
            assert fleet.nondominated_levels == want

    def test_sub_fleet_inherits_and_pickles_without_it(self):
        fleet = default_fleet(num_groups=6)
        before = pickle.dumps(fleet)
        sub = subset(fleet, [4, 1])
        assert sub.__dict__["nondominated_levels"] is fleet.nondominated_levels
        assert pickle.dumps(fleet) == before
        assert pickle.dumps(sub) == pickle.dumps(Fleet([fleet.groups[4], fleet.groups[1]]))
