"""Grid graph, routing, losses, and TDM reservations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgsim.errors import ConfigError, LinkBusyError
from ppgsim.topology import (
    LossModel,
    PowerLink,
    PpgGrid,
    Route,
    line_resistance,
    link_key,
    loss_model_for,
    per_hop_loss,
)


@pytest.fixture
def grid():
    return PpgGrid()


class TestLineResistance:
    def test_reference_cable(self):
        assert line_resistance(0.023, 100, 10) == 0.023 * 100 / 10

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            line_resistance(0.023, 0, 10)

    def test_linear_in_resistivity(self):
        assert line_resistance(0.046, 100, 10) == pytest.approx(0.46)


class TestGridStructure:
    def test_link_count_4x6(self, grid):
        # 3*6 vertical + 4*5 horizontal
        assert len(grid.links) == 38

    def test_every_adjacent_pair_has_one_link(self, grid):
        for r in range(4):
            for c in range(6):
                if r + 1 < 4:
                    assert link_key((r, c), (r + 1, c)) in grid.links
                if c + 1 < 6:
                    assert link_key((r, c), (r, c + 1)) in grid.links

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            PpgGrid(rows=0, cols=5)


class TestHopCount:
    def test_adjacent(self, grid):
        assert grid.hop_count((0, 0), (0, 1)) == 1

    def test_far_corner(self, grid):
        assert grid.hop_count((0, 0), (3, 5)) == 8

    def test_self(self, grid):
        assert grid.hop_count((1, 2), (1, 2)) == 0

    def test_out_of_bounds(self, grid):
        with pytest.raises(ValueError):
            grid.hop_count((0, 0), (4, 0))

    def test_is_a_metric(self, grid):
        nodes = grid.nodes()
        for a, b in itertools.combinations(nodes, 2):
            assert grid.hop_count(a, b) == grid.hop_count(b, a)
            assert grid.hop_count(a, b) > 0
        for a in nodes:
            assert grid.hop_count(a, a) == 0
        # triangle inequality, exhaustive over the 24-node grid
        for a, b, c in itertools.permutations(nodes[:12], 3):
            assert grid.hop_count(a, c) <= grid.hop_count(a, b) + grid.hop_count(b, c)


class TestStaticRoute:
    def test_single_axis(self, grid):
        assert grid.static_route((0, 0), (2, 0)).hops == ((0, 0), (1, 0), (2, 0))

    def test_rows_first_tie_break(self, grid):
        assert grid.static_route((0, 0), (1, 1)).hops == ((0, 0), (1, 0), (1, 1))

    def test_route_length_matches_hop_count(self, grid):
        for a in grid.nodes():
            for b in grid.nodes():
                if a == b:
                    continue
                assert grid.static_route(a, b).hop_count == grid.hop_count(a, b)

    def test_deterministic(self, grid):
        r1 = grid.static_route((3, 5), (0, 2))
        r2 = grid.static_route((3, 5), (0, 2))
        assert r1 == r2

    def test_rejects_self_route(self, grid):
        with pytest.raises(ValueError):
            grid.static_route((1, 1), (1, 1))

    def test_route_validates_adjacency(self):
        with pytest.raises(ValueError):
            Route(((0, 0), (2, 0)))


class TestDeliveredFraction:
    def test_reference_loss_model(self, grid):
        model = loss_model_for(grid, phi_max_J=100e3, mini_slot_duration_s=5.0)
        assert model.hop_loss == pytest.approx(0.031856, abs=1e-6)
        assert model.delivered_fraction(0) == 1.0
        assert model.delivered_fraction(1) == pytest.approx(0.968144, abs=1e-6)
        assert model.delivered_fraction(2) == pytest.approx(0.937303, abs=1e-6)

    def test_strictly_decreasing(self, grid):
        model = loss_model_for(grid, 100e3, 5.0)
        fractions = [model.delivered_fraction(h) for h in range(10)]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    def test_pathological_loss_rejected(self):
        with pytest.raises(ConfigError):
            LossModel(1.0)
        with pytest.raises(ConfigError):
            LossModel(0.0)

    def test_per_hop_loss_formula(self):
        assert per_hop_loss(0.23, 20e3, 380.0) == pytest.approx(0.23 * 20e3 / 380**2)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            LossModel(0.03).delivered_fraction(-1)


class TestReservations:
    def test_reserve_free_link(self):
        link = PowerLink(((0, 0), (0, 1)))
        link.reserve(0, 3)
        assert link.mask == mask_of([(0, 3)])

    def test_overlap_rejected(self):
        link = PowerLink(((0, 0), (0, 1)))
        link.reserve(0, 3)
        with pytest.raises(LinkBusyError):
            link.reserve(2, 4)

    def test_adjacent_ranges_allowed(self):
        link = PowerLink(((0, 0), (0, 1)))
        link.reserve(0, 3)
        link.reserve(3, 5)
        assert link.mask == mask_of([(0, 3), (3, 5)])

    def test_empty_range_rejected(self):
        link = PowerLink(((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            link.reserve(2, 2)

    def test_clear(self):
        link = PowerLink(((0, 0), (0, 1)))
        link.reserve(0, 3)
        link.clear()
        assert link.mask == 0


def walk_route(a, b):
    """Rows-first hop list, walked afresh on every call."""
    hops = [a]
    r, c = a
    step_r = 1 if b[0] > r else -1
    while r != b[0]:
        r += step_r
        hops.append((r, c))
    step_c = 1 if b[1] > c else -1
    while c != b[1]:
        c += step_c
        hops.append((r, c))
    return tuple(hops)


def list_reserve(reservations, endpoints, start, end):
    """Reserve on a plain list; returns the LinkBusyError message or None."""
    clashes = [max(s, start) for s, e in reservations if start < e and s < end]
    if clashes:
        return f"link {endpoints} busy in mini-slot {min(clashes)}, requested [{start}, {end})"
    reservations.append((start, end))
    return None


def mask_of(reservations):
    mask = 0
    for s, e in reservations:
        mask |= ((1 << (e - s)) - 1) << s
    return mask


ranges = st.tuples(st.integers(0, 30), st.integers(1, 14)).map(lambda p: (p[0], p[0] + p[1]))


class TestCalendar:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ranges, max_size=12))
    def test_busy_error_matches_list_scan(self, requests):
        link = PowerLink(((0, 0), (0, 1)))
        held: list[tuple[int, int]] = []
        for start, end in requests:
            expected = list_reserve(held, link.endpoints, start, end)
            if expected is None:
                link.reserve(start, end)
            else:
                with pytest.raises(LinkBusyError) as info:
                    link.reserve(start, end)
                assert str(info.value) == expected
            assert link.mask == mask_of(held)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            PowerLink(((0, 0), (0, 1))).reserve(-1, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_clear_reservations_empties_every_link(self, data):
        grid = PpgGrid(rows=3, cols=4)
        keys = sorted(grid.links)
        for _ in range(data.draw(st.integers(1, 3))):
            for key in data.draw(st.lists(st.sampled_from(keys), max_size=8, unique=True)):
                link = grid.links[key]
                start = data.draw(st.integers(0, 20))
                link.reserve(start, start + data.draw(st.integers(1, 5)))
            grid.clear_reservations()
            for link in grid.links.values():
                assert link.mask == 0

    def test_direct_reservation_cleared_after_earlier_clear(self, grid):
        link = grid.links[link_key((1, 1), (1, 2))]
        link.reserve(0, 2)
        grid.clear_reservations()
        link.reserve(4, 6)
        grid.clear_reservations()
        assert link.mask == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 7),
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=20),
    )
    def test_cached_route_matches_walk(self, rows, cols, pairs):
        grid = PpgGrid(rows=rows, cols=cols)
        nodes = grid.nodes()
        for i, j in pairs:
            a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
            if a == b:
                continue
            route = grid.static_route(a, b)
            assert route.hops == walk_route(a, b)
            assert len(route.power_links) == route.hop_count
            assert all(x is grid.links[key] for x, key in zip(route.power_links, route.links()))
            assert grid.static_route(a, b) is route

    @pytest.mark.parametrize("rows, cols", [(4, 6), (5, 1), (1, 5), (3, 3)])
    def test_every_route_matches_walk(self, rows, cols):
        grid = PpgGrid(rows=rows, cols=cols)
        nodes = grid.nodes()
        for a in nodes:
            for b in nodes:
                if a != b:
                    route = grid.static_route(a, b)
                    assert route.hops == walk_route(a, b)
                    assert len(route.power_links) == route.hop_count
                    assert all(x is grid.links[key] for x, key in zip(route.power_links, route.links()))

    def test_cache_does_not_hide_bad_nodes(self, grid):
        grid.static_route((0, 0), (1, 1))
        with pytest.raises(ValueError):
            grid.static_route((0, 0), (9, 9))
        with pytest.raises(ValueError):
            grid.static_route((1, 1), (1, 1))
