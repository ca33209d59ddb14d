"""Vehicle group stepping and nearest-station association."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ppgsim.mobility import (
    Fleet,
    VueGroup,
    _nearest,
    _row_terms,
    association_set,
    make_groups,
    nearest_bs,
    rpgm_step,
)

WORLD = 2500.0
RADIUS = 20.0


def make_group(x=100.0, v=10.0, members=3):
    return VueGroup(0, x, 748.0, v, 0, tuple((0.0, 0.0) for _ in range(members)))


def bs_world_positions(rows, cols, spacing_m):
    """World (x, y) of each station: (c * spacing, r * spacing), ids row-major."""
    return {r * cols + c: (c * spacing_m, r * spacing_m) for r in range(rows) for c in range(cols)}


def trajectory_rows(slot_index, groups, rows, cols, spacing_m):
    """Reference: one debug dump row per group, (slot, group, x, y, serving_bs)."""
    return [
        (slot_index, g.group_id, g.x_m, g.y_m, nearest_bs(g.x_m, g.y_m, rows, cols, spacing_m))
        for g in groups
    ]


def scan_nearest(x_m, y_m, bs_xy):
    """Reference: scan every station in id order, strict < so the lowest id wins ties."""
    best_id = -1
    best_d = math.inf
    for bs_id in sorted(bs_xy):
        bx, by = bs_xy[bs_id]
        d = (bx - x_m) ** 2 + (by - y_m) ** 2
        if d < best_d:
            best_d = d
            best_id = bs_id
    return best_id


def tuple_min_nearest(x_m, row_terms, cols, spacing_m):
    """Reference: the lookup as a min over four (distance, id) pairs, which breaks ties by id."""
    b0, b1, dy0, dy1 = row_terms
    c0 = min(max(math.floor(x_m / spacing_m), 0), cols - 1)
    c1 = min(c0 + 1, cols - 1)
    dx0 = (c0 * spacing_m - x_m) ** 2
    dx1 = (c1 * spacing_m - x_m) ** 2
    return min(
        (dx0 + dy0, b0 + c0),
        (dx1 + dy0, b0 + c1),
        (dx0 + dy1, b1 + c0),
        (dx1 + dy1, b1 + c1),
    )[1]


class TestStepping:
    def test_stationary_group(self):
        g = make_group(v=0.0)
        stepped = rpgm_step(g, 60.0, WORLD)
        assert stepped.x_m == g.x_m

    def test_advances_velocity_times_slot(self):
        g = make_group(x=100.0, v=10.0)
        stepped = rpgm_step(g, 60.0, WORLD)
        assert stepped.x_m == 700.0

    def test_wraps_at_world_edge(self):
        g = make_group(x=2400.0, v=10.0)
        stepped = rpgm_step(g, 60.0, WORLD)
        assert stepped.x_m == 500.0

    def test_reverse_lane_wraps_below_zero(self):
        g = VueGroup(1, 100.0, 752.0, -10.0, 1, ((0.0, 0.0),))
        stepped = rpgm_step(g, 60.0, WORLD)
        assert stepped.x_m == 2000.0

    def test_offsets_bounded(self):
        # offsets are drawn once, when the groups are spawned, and kept
        groups = make_groups(random.Random(3), 200, 4, WORLD, (748.0, 752.0), (10.0, 30.0), RADIUS)
        for g in groups:
            assert len(g.member_offsets) == 4
            for dx, dy in g.member_offsets:
                assert math.hypot(dx, dy) <= RADIUS
            assert rpgm_step(g, 60.0, WORLD).member_offsets == g.member_offsets

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            rng = random.Random(42)
            groups = make_groups(rng, 10, 3, WORLD, (748.0, 752.0), (10.0, 30.0), RADIUS)
            for _ in range(50):
                groups = [rpgm_step(g, 60.0, WORLD) for g in groups]
            runs.append([(g.x_m, g.y_m, g.member_offsets) for g in groups])
        assert runs[0] == runs[1]

    def test_velocity_sign_constant(self):
        rng = random.Random(42)
        groups = make_groups(rng, 10, 3, WORLD, (748.0, 752.0), (10.0, 30.0), RADIUS)
        signs = [math.copysign(1, g.velocity_mps) for g in groups]
        for _ in range(100):
            groups = [rpgm_step(g, 60.0, WORLD) for g in groups]
        assert [math.copysign(1, g.velocity_mps) for g in groups] == signs


@st.composite
def lattice_points(draw):
    """A lattice and a point on, between, halfway between or outside its stations."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 12))
    spacing = draw(st.sampled_from([500.0, 333.3, 100.0, 0.7]) | st.floats(0.01, 1e4))

    def coordinate(n):
        halves = st.integers(-6, 2 * n + 6).map(lambda k: k * spacing / 2.0)
        anywhere = st.floats(-3.0 * spacing, (n + 2.0) * spacing)
        return draw(halves | anywhere)

    return rows, cols, spacing, coordinate(cols), coordinate(rows)


@st.composite
def far_points(draw):
    """A lattice and a point far beyond its ends, next to a midline between two rows.

    Far out the squared x distance swamps the y distances, so sums for the
    two rows often round to the same float and only the id order decides.
    """
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(1, 9))
    spacing = draw(st.sampled_from([1.0, 500.0, 0.7]))
    x = draw(st.floats(-1e4, 1e4)) * spacing
    y = (draw(st.integers(0, rows - 2)) + 0.5 + draw(st.floats(-1e-6, 1e-6))) * spacing
    return rows, cols, spacing, x, y


class TestAssociation:
    def test_exact_position_wins(self):
        assert nearest_bs(1000.0, 500.0, 4, 6, 500.0) == 8  # (1, 2) -> id 8

    def test_tie_goes_to_lower_id(self):
        assert nearest_bs(50.0, 10.0, 1, 2, 100.0) == 0
        # a cell centre is equally far from four stations
        assert nearest_bs(750.0, 250.0, 4, 6, 500.0) == 1

    @settings(max_examples=500, deadline=None)
    @given(lattice_points())
    def test_matches_full_scan(self, case):
        rows, cols, spacing, x, y = case
        expected = scan_nearest(x, y, bs_world_positions(rows, cols, spacing))
        assert nearest_bs(x, y, rows, cols, spacing) == expected

    def test_sums_that_round_equal_go_to_the_lower_id(self):
        # row 1 is nearer in y, but with dx = 4499^2 both sums round to the
        # same float, so station 1 (row 0) beats station 3 (row 1)
        x, y = 4500.0, 0.5 + 1e-9
        assert (0.0 - y) ** 2 != (1.0 - y) ** 2
        assert (1.0 - x) ** 2 + (0.0 - y) ** 2 == (1.0 - x) ** 2 + (1.0 - y) ** 2
        assert nearest_bs(x, y, 2, 2, 1.0) == 1
        assert scan_nearest(x, y, bs_world_positions(2, 2, 1.0)) == 1

    @settings(max_examples=500, deadline=None)
    @given(lattice_points() | far_points())
    def test_matches_tuple_min(self, case):
        rows, cols, spacing, x, y = case
        terms = _row_terms(y, rows, cols, spacing)
        assert _nearest(x, terms, cols, spacing) == tuple_min_nearest(x, terms, cols, spacing)

    def test_single_row_and_single_column(self):
        for rows, cols in ((1, 7), (7, 1)):
            bs_xy = bs_world_positions(rows, cols, 500.0)
            for k in range(-4, 2 * max(rows, cols) + 4):
                for x, y in ((k * 250.0, 3.0), (3.0, k * 250.0), (k * 250.0, -900.0)):
                    assert nearest_bs(x, y, rows, cols, 500.0) == scan_nearest(x, y, bs_xy)

    def test_all_groups_in_one_cell(self):
        groups = [
            VueGroup(i, 510.0 + i, 498.0, 10.0, 0, ((0.0, 0.0),)) for i in range(10)
        ]
        assert association_set(groups, 4, 6, 500.0) == frozenset({7})

    def test_snapshot_size_bounded_by_groups(self):
        rng = random.Random(5)
        groups = make_groups(rng, 10, 3, WORLD, (748.0, 752.0), (10.0, 30.0), RADIUS)
        serving = association_set(groups, 4, 6, 500.0)
        assert len(serving) <= 10
        assert all(0 <= b < 24 for b in serving)

    def test_trajectory_rows_one_per_group(self):
        rng = random.Random(5)
        groups = make_groups(rng, 7, 3, WORLD, (748.0, 752.0), (10.0, 30.0), RADIUS)
        rows = Fleet(groups, 60.0, WORLD, 4, 6, 500.0).trajectory_rows(3)
        assert rows == trajectory_rows(3, groups, 4, 6, 500.0)
        assert len(rows) == 7
        assert all(row[0] == 3 for row in rows)
        assert {row[4] for row in rows} == association_set(groups, 4, 6, 500.0)


@st.composite
def fleets(draw):
    """Groups on a random lattice: random speeds, either sign, lanes anywhere,
    on a lattice row or midway between two rows."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 9))
    spacing = draw(st.sampled_from([500.0, 333.3, 0.7]) | st.floats(0.5, 2e3))
    world = max((cols - 1) * spacing, 1.0)
    tau = draw(st.sampled_from([60.0, 1.0, 7.3]))
    on_lattice = st.integers(-2, 2 * rows + 2).map(lambda k: k * spacing / 2.0)
    lanes = draw(st.lists(on_lattice | st.floats(-spacing, rows * spacing), min_size=1, max_size=3))
    groups = []
    for g in range(draw(st.integers(0, 12))):
        speed = draw(st.sampled_from([0.0, 10.0, 30.0]) | st.floats(0.0, 80.0))
        lane = g % len(lanes)
        velocity = speed if lane % 2 == 0 else -speed
        groups.append(VueGroup(g, draw(st.floats(0.0, world)), lanes[lane], velocity, lane, ()))
    return rows, cols, spacing, world, tau, groups


class TestFleet:
    @settings(max_examples=60, deadline=None)
    @given(fleets())
    def test_matches_stepping_groups(self, case):
        rows, cols, spacing, world, tau, groups = case
        fleet = Fleet(groups, tau, world, rows, cols, spacing)
        for t in range(200):
            groups = [rpgm_step(g, tau, world) for g in groups]
            serving = fleet.step()
            assert [repr(x) for x in fleet.x_m] == [repr(g.x_m) for g in groups]
            assert serving == association_set(groups, rows, cols, spacing)
        assert fleet.trajectory_rows(7) == trajectory_rows(7, groups, rows, cols, spacing)
