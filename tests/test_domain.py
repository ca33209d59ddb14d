"""Battery arithmetic and role classification."""

import math
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppgsim.domain import (
    EnergyBuffer,
    SimClock,
    battery_step,
    battery_steps,
    bs_consumption,
    classify_role,
    eb_step_offgrid,
    eb_step_ongrid,
    grid_purchase,
    role_of,
    roles_of,
)


def make_buffer(level, cap=490e3, low=147e3, up=343e3):
    return EnergyBuffer(level_J=level, capacity_J=cap, low_threshold_J=low, up_threshold_J=up)


IDLE, MAX_LOAD = 6e3, 18e3


class TestSimClock:
    def test_minislots_per_slot(self):
        assert SimClock(0, 60.0, 5.0).minislots_per_slot == 12

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            SimClock(0, 60.0, 7.0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            SimClock(-1, 60.0, 5.0)


class TestEnergyBuffer:
    def test_rejects_bad_threshold_order(self):
        with pytest.raises(ValueError):
            EnergyBuffer(0.0, 490e3, 343e3, 147e3)

    def test_rejects_level_above_capacity(self):
        with pytest.raises(ValueError):
            make_buffer(500e3)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            make_buffer(-1.0)


def test_role_requires_positive_amount():
    # a source or consumer always trades a positive amount, a neutral station none
    rng = random.Random(6)
    levels = [0.0, 147e3, 343e3, 490e3, *(rng.uniform(0, 490e3) for _ in range(500))]
    for level in levels:
        for on_grid in (False, True):
            kind, amount = classify_role(make_buffer(level), on_grid)
            assert (amount == 0.0) if kind == "neutral" else (amount > 0.0)


class TestLoadEnergy:
    """The load term of bs_consumption, seen with no idle draw."""

    def test_zero_load(self):
        assert bs_consumption(0.0, 0.0, MAX_LOAD) == 0.0

    def test_full_load(self):
        assert bs_consumption(1.0, 0.0, MAX_LOAD) == 18e3

    def test_half_load(self):
        assert bs_consumption(0.5, 0.0, MAX_LOAD) == 9e3

    def test_rejects_out_of_range(self):
        for load in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"load_fraction must be in \[0, 1\]"):
                bs_consumption(load, IDLE, MAX_LOAD)


class TestConsumption:
    def test_idle_only(self):
        assert bs_consumption(0.0, IDLE, MAX_LOAD) == 6e3

    def test_full_load(self):
        assert bs_consumption(1.0, IDLE, MAX_LOAD) == 24e3

    def test_half_load(self):
        assert bs_consumption(0.5, IDLE, MAX_LOAD) == 15e3

    def test_monotone_in_load(self):
        rng = random.Random(11)
        samples = sorted(rng.random() for _ in range(200))
        values = [bs_consumption(f, IDLE, MAX_LOAD) for f in samples]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestClassifyRole:
    def test_source_above_upper(self):
        kind, amount = classify_role(make_buffer(400e3), grid_connected=False)
        assert kind == "source"
        assert amount == pytest.approx(57e3)

    def test_consumer_below_lower_offgrid(self):
        kind, amount = classify_role(make_buffer(120e3), grid_connected=False)
        assert kind == "consumer"
        assert amount == pytest.approx(27e3)

    def test_boundary_is_neutral(self):
        assert classify_role(make_buffer(147e3), grid_connected=False) == ("neutral", 0.0)
        assert classify_role(make_buffer(343e3), grid_connected=False) == ("neutral", 0.0)

    def test_ongrid_never_consumer(self):
        assert classify_role(make_buffer(10e3), grid_connected=True) == ("neutral", 0.0)

    def test_ongrid_can_be_source(self):
        assert classify_role(make_buffer(400e3), grid_connected=True)[0] == "source"

    def test_exactly_one_role(self):
        rng = random.Random(5)
        for _ in range(500):
            level, on_grid = rng.uniform(0, 490e3), rng.random() < 0.3
            role = classify_role(make_buffer(level), on_grid)
            assert role[0] in ("source", "consumer", "neutral")
            assert role == role_of(level, on_grid, 147e3, 343e3)


class TestEbStepOffgrid:
    def test_plain_arithmetic(self):
        out = eb_step_offgrid(make_buffer(147e3), 10e3, 5e3, 0.0)
        assert out.level_J == pytest.approx(152e3)

    def test_caps_at_capacity(self):
        out = eb_step_offgrid(make_buffer(485e3), 20e3, 5e3, 0.0)
        assert out.level_J == 490e3

    def test_consumer_receiving_transfer(self):
        out = eb_step_offgrid(make_buffer(100e3), 0.0, 3e3, 27e3)
        assert out.level_J == pytest.approx(124e3)

    def test_clamps_at_zero(self):
        out = eb_step_offgrid(make_buffer(1e3), 0.0, 5e3, 0.0)
        assert out.level_J == 0.0

    def test_rejects_negative_harvest(self):
        with pytest.raises(ValueError):
            eb_step_offgrid(make_buffer(1e3), -1.0, 0.0, 0.0)

    def test_matches_oracle_fuzzed(self):
        rng = random.Random(42)
        for _ in range(2000):
            level = rng.uniform(0, 490e3)
            h = rng.uniform(0, 120e3)
            c = rng.uniform(0, 120e3)
            g = rng.uniform(-150e3, 150e3)
            expected = min(max(level + h - c + g, 0.0), 490e3)
            assert eb_step_offgrid(make_buffer(level), h, c, g).level_J == expected


class TestEbStepOngrid:
    def test_purchase_tops_to_upper(self):
        out = eb_step_ongrid(make_buffer(300e3), 0.0, 10e3, 0.0, 53e3)
        assert out.level_J == pytest.approx(343e3)

    def test_identity_when_all_zero(self):
        out = eb_step_ongrid(make_buffer(343e3), 0.0, 0.0, 0.0, 0.0)
        assert out.level_J == 343e3

    def test_cap_applies_after_purchase(self):
        out = eb_step_ongrid(make_buffer(480e3), 10e3, 0.0, 0.0, 10e3)
        assert out.level_J == 490e3

    def test_rejects_negative_purchase(self):
        with pytest.raises(ValueError):
            eb_step_ongrid(make_buffer(1e3), 0.0, 0.0, 0.0, -1.0)

    def test_matches_oracle_fuzzed(self):
        rng = random.Random(43)
        for _ in range(2000):
            level = rng.uniform(0, 490e3)
            h = rng.uniform(0, 120e3)
            c = rng.uniform(0, 120e3)
            g = rng.uniform(-150e3, 150e3)
            e = rng.uniform(0, 350e3)
            expected = min(max(level + h - c + g, 0.0) + e, 490e3)
            assert eb_step_ongrid(make_buffer(level), h, c, g, e).level_J == expected


class TestGridPurchase:
    def test_below_upper(self):
        assert grid_purchase(make_buffer(300e3)) == pytest.approx(43e3)

    def test_at_upper(self):
        assert grid_purchase(make_buffer(343e3)) == 0.0

    def test_above_upper(self):
        assert grid_purchase(make_buffer(400e3)) == 0.0

    def test_purchase_then_step_reaches_upper(self):
        rng = random.Random(44)
        for _ in range(500):
            level = rng.uniform(0, 490e3)
            h = rng.uniform(0, 50e3)
            c = rng.uniform(0, 50e3)
            provisional = min(max(level + h - c, 0.0), 490e3)
            e = grid_purchase(make_buffer(provisional))
            out = eb_step_ongrid(make_buffer(level), h, c, 0.0, e)
            assert out.level_J >= 343e3 - 1e-9


class TestRoleOf:
    def test_kinds_match_role_enum(self):
        # the three role names role_of reads from the maps of roles_of
        assert role_of(400e3, False, 147e3, 343e3) == ("source", 400e3 - 343e3)
        assert role_of(100e3, False, 147e3, 343e3) == ("consumer", 147e3 - 100e3)
        assert role_of(100e3, True, 147e3, 343e3) == ("neutral", 0.0)

    def test_thresholds_are_neutral(self):
        assert role_of(147e3, False, 147e3, 343e3) == ("neutral", 0.0)
        assert role_of(343e3, False, 147e3, 343e3) == ("neutral", 0.0)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_rejects_level_below_zero_or_nan(self, bad):
        with pytest.raises(ValueError, match="station 0: level"):
            role_of(bad, False, 147e3, 343e3)


CAP, LOW, UP = 490e3, 147e3, 343e3


def engine_battery_update(level, h, c, flow, grid_connected, cap, up):
    """Reference: the engine's per-station update before battery_step existed.

    It built an EnergyBuffer for the level, priced the purchase on the
    clamped provisional level, ran eb_step_ongrid/eb_step_offgrid on the
    buffer and flagged clamp and cap on the raw sum plus the purchase.
    """
    if not (0 <= level <= cap):
        raise ValueError("level out of range")
    if h < 0 or c < 0:
        raise ValueError("negative harvest or consumption")
    raw = level + h - c + flow
    if grid_connected:
        provisional = min(max(raw, 0.0), cap)
        purchase = max(up - provisional, 0.0)
        new_level = min(max(level + h - c + flow, 0.0) + purchase, cap)
        raw += purchase
    else:
        purchase = 0.0
        new_level = min(level + h - c + flow, cap)
        new_level = max(new_level, 0.0)
    return new_level, purchase, raw < 0.0, raw > cap


LEVELS = st.sampled_from([0.0, 147e3, UP, CAP]) | st.floats(0.0, CAP)
ENERGIES = st.sampled_from([0.0, UP, CAP]) | st.floats(0.0, 2 * CAP)
FLOWS = st.sampled_from([0.0, -UP, UP, CAP]) | st.floats(-2 * CAP, 2 * CAP)


class TestBatteryStep:
    @settings(max_examples=1000, deadline=None)
    @given(LEVELS, ENERGIES, ENERGIES, FLOWS, st.booleans())
    def test_matches_engine_arithmetic(self, level, h, c, flow, grid_connected):
        got = battery_step(level, h, c, flow, grid_connected, CAP, UP)
        assert got == engine_battery_update(level, h, c, flow, grid_connected, CAP, UP)

    def test_clamp_and_cap_flags(self):
        assert battery_step(1e3, 0.0, 5e3, 0.0, False, CAP, UP) == (0.0, 0.0, True, False)
        assert battery_step(485e3, 20e3, 5e3, 0.0, False, CAP, UP) == (CAP, 0.0, False, True)
        # on-grid: the purchase refills an emptied battery, so no clamp
        assert battery_step(1e3, 0.0, 5e3, 0.0, True, CAP, UP) == (UP, UP, False, False)
        assert battery_step(CAP, 10e3, 0.0, 0.0, True, CAP, UP) == (CAP, 0.0, False, True)

    def test_levels_at_bounds_accepted(self):
        for level in (0.0, UP, CAP):
            battery_step(level, 0.0, 0.0, 0.0, False, CAP, UP)

    @pytest.mark.parametrize(
        "level", [math.nan, -1.0, -5e-324, math.nextafter(CAP, math.inf), math.inf]
    )
    def test_rejects_level_outside_range(self, level):
        with pytest.raises(ValueError):
            battery_step(level, 0.0, 0.0, 0.0, True, CAP, UP)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            battery_step(1e3, -1.0, 0.0, 0.0, False, CAP, UP)
        with pytest.raises(ValueError):
            battery_step(1e3, 0.0, -1.0, 0.0, True, CAP, UP)


def bits(x):
    return struct.pack("<d", x)


# -0.0 passes every range check, and min/max keep or drop its sign by
# argument order; a sum is -0.0 only when all of its terms are signed zeros
SIGNED_ZERO = st.just(-0.0)
STATIONS = st.lists(
    st.tuples(
        LEVELS | SIGNED_ZERO, ENERGIES | SIGNED_ZERO, ENERGIES | SIGNED_ZERO,
        FLOWS | SIGNED_ZERO, st.booleans(),
    )
    | st.tuples(SIGNED_ZERO, SIGNED_ZERO, st.sampled_from([0.0, -0.0]), SIGNED_ZERO, st.booleans()),
    max_size=40,
)


class TestBatterySteps:
    @settings(max_examples=300, deadline=None)
    @given(STATIONS)
    def test_matches_engine_arithmetic_bit_for_bit(self, stations):
        levels, harvested, consumed, flows, on_grid = (
            [[station[k] for station in stations] for k in range(5)]
        )
        got_levels, got_purchases, clamped, capped, *_ = battery_steps(
            levels, harvested, consumed, flows, on_grid, CAP, LOW, UP
        )
        expected = [engine_battery_update(*station, CAP, UP) for station in stations]
        assert [bits(v) for v in got_levels] == [bits(e[0]) for e in expected]
        assert [bits(v) for v in got_purchases] == [bits(e[1]) for e in expected]
        assert clamped == [i for i, e in enumerate(expected) if e[2]]
        assert capped == [i for i, e in enumerate(expected) if e[3]]

    def test_signed_zero_kept(self):
        # an off-grid sum of negative zeros stays -0.0: max(-0.0, 0.0) returns its first argument
        levels, _, clamped, *_ = battery_steps([-0.0], [-0.0], [0.0], [-0.0], [False], CAP, LOW, UP)
        assert bits(levels[0]) == bits(-0.0)
        assert clamped == []

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.nextafter(CAP, math.inf)])
    def test_rejects_level_outside_range_naming_station(self, bad):
        with pytest.raises(ValueError, match="station 2: level"):
            battery_steps([0.0, CAP, bad], [0.0] * 3, [0.0] * 3, [0.0] * 3, [False] * 3, CAP, LOW, UP)

    def test_rejects_vectors_of_different_lengths(self):
        with pytest.raises(ValueError):
            battery_steps([0.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0], [False, False], CAP, LOW, UP)

    @pytest.mark.parametrize("short", range(5))
    def test_length_error_wins_over_a_bad_first_station(self, short):
        # station 0 has a NaN level and a negative harvest, and one vector is
        # a station short: the lengths are checked before any station is read
        vectors = [[math.nan, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [False, False]]
        vectors[short] = vectors[short][:1]
        lengths = [1 if k == short else 2 for k in range(5)]
        with pytest.raises(ValueError, match=re.escape(f"one entry per station, got lengths {lengths}")):
            battery_steps(*vectors, CAP, LOW, UP)

    def test_rejects_negative_inputs_naming_station(self):
        with pytest.raises(ValueError, match="station 1:"):
            battery_steps([0.0, 0.0], [0.0, -1.0], [0.0, 0.0], [0.0, 0.0], [True, True], CAP, LOW, UP)
        with pytest.raises(ValueError, match="station 0:"):
            battery_steps([0.0], [0.0], [-1.0], [0.0], [False], CAP, LOW, UP)


def engine_roles(levels, on_grid, cap, low, up):
    """Reference: the engine's per-station role loop before roles_of existed, role_of inlined."""
    demands, surpluses = {}, {}
    for i, level in enumerate(levels):
        if not (0 <= level <= cap):
            raise ValueError(f"station {i}: level {level} outside [0, {cap}]")
        if level > up:
            role, amount = "source", level - up
        elif level < low and not on_grid[i]:
            role, amount = "consumer", low - level
        else:
            role, amount = "neutral", 0.0
        if role == "consumer":
            demands[i] = amount
        elif role == "source":
            surpluses[i] = amount
    return demands, surpluses


def float_bits(result):
    """A roles result with each float as its bytes, so that signed zeros and NaN compare exactly."""
    demands, surpluses = result
    return [(i, bits(v)) for i, v in demands.items()], [(i, bits(v)) for i, v in surpluses.items()]


def outcome(fn, *args):
    try:
        return float_bits(fn(*args))
    except ValueError as exc:
        return str(exc)


# levels exactly on and one ulp beside each threshold and bound, plus some
# outside [0, cap]
ROLE_LEVELS = (
    st.sampled_from([
        0.0, -0.0, LOW, UP, CAP,
        math.nextafter(LOW, 0.0), math.nextafter(LOW, CAP),
        math.nextafter(UP, 0.0), math.nextafter(UP, CAP), math.nextafter(0.0, 1.0),
    ])
    | st.floats(0.0, CAP)
)
BAD_LEVELS = st.sampled_from([math.nan, -1.0, -5e-324, math.nextafter(CAP, math.inf), math.inf])


class TestRolesOf:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ROLE_LEVELS, st.booleans()), max_size=40))
    def test_matches_per_station_rule(self, stations):
        levels, on_grid = [s[0] for s in stations], [s[1] for s in stations]
        expected = engine_roles(levels, on_grid, CAP, LOW, UP)
        assert float_bits(roles_of(levels, on_grid, CAP, LOW, UP)) == float_bits(expected)
        demands, surpluses = expected
        assert [role_of(level, g, LOW, UP) for level, g in stations] == [
            ("source", surpluses[i]) if i in surpluses
            else ("consumer", demands[i]) if i in demands
            else ("neutral", 0.0)
            for i in range(len(stations))
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(ROLE_LEVELS | BAD_LEVELS, st.booleans()), min_size=1, max_size=20)
    )
    def test_out_of_range_levels_raise_like_the_loop(self, stations):
        levels, on_grid = [s[0] for s in stations], [s[1] for s in stations]
        assert outcome(roles_of, levels, on_grid, CAP, LOW, UP) == outcome(
            engine_roles, levels, on_grid, CAP, LOW, UP
        )

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.nextafter(CAP, math.inf)])
    def test_rejects_level_outside_range_naming_station(self, bad):
        with pytest.raises(ValueError, match="station 2: level"):
            roles_of([0.0, CAP, bad], [False] * 3, CAP, LOW, UP)

    def test_rejects_vectors_of_different_lengths(self):
        with pytest.raises(ValueError):
            roles_of([0.0, 0.0], [False], CAP, LOW, UP)


# energies that land a new level exactly on 0, a threshold or the capacity,
# or one ulp beside it, from a start level drawn the same way
LANDING = st.sampled_from([
    0.0, -0.0, LOW, UP, CAP, CAP - LOW, CAP - UP, UP - LOW,
    math.nextafter(LOW, 0.0), math.nextafter(UP, CAP), math.nextafter(0.0, 1.0),
]) | st.floats(0.0, CAP)


class TestFusedRoles:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(ROLE_LEVELS, LANDING, LANDING, LANDING | LANDING.map(lambda x: -x), st.booleans()),
            max_size=40,
        ),
        # roles_of asks no order of the thresholds, so neither may the pass
        st.sampled_from([(LOW, UP), (UP, LOW), (LOW, LOW)]),
    )
    @example([], (LOW, UP))
    def test_roles_are_roles_of_the_new_levels(self, stations, thresholds):
        levels, harvested, consumed, flows, on_grid = (
            [[station[k] for station in stations] for k in range(5)]
        )
        new_levels, _, _, _, *roles = battery_steps(
            levels, harvested, consumed, flows, on_grid, CAP, *thresholds
        )
        assert float_bits(roles) == float_bits(roles_of(new_levels, on_grid, CAP, *thresholds))

    def test_each_landing_level_is_classified(self):
        # off-grid new levels exactly at -0.0, low, up and cap, then one on-grid
        # station topped up to exactly up; -0.0 sums stay -0.0
        levels = [-0.0, 0.0, 0.0, 0.0, 0.0]
        harvested = [-0.0, LOW, UP, CAP, 0.0]
        new_levels, _, _, _, demands, surpluses = battery_steps(
            levels, harvested, [0.0] * 5, [-0.0] * 5, [False] * 4 + [True], CAP, LOW, UP
        )
        assert [bits(v) for v in new_levels] == [bits(v) for v in (-0.0, LOW, UP, CAP, UP)]
        assert demands == {0: LOW}
        assert surpluses == {3: CAP - UP}


# roles_of and battery_steps as they were with int literals in their guards
# (0 <= level, h < 0 or c < 0), kept as the oracle that comparing float to
# float changes no result and no message


def int_guard_roles_of(levels_J, grid_connected, capacity_J, low_J, up_J):
    demands = {}
    surpluses = {}
    for i, (level, on_grid) in enumerate(zip(levels_J, grid_connected, strict=True)):
        if not (0 <= level <= capacity_J):
            raise ValueError(f"station {i}: level {level} outside [0, {capacity_J}]")
        if level > up_J:
            surpluses[i] = level - up_J
        elif level < low_J and not on_grid:
            demands[i] = low_J - level
    return demands, surpluses


def int_guard_battery_steps(
    levels_J, harvested_J, consumed_J, transferred_J, grid_connected, capacity_J, up_threshold_J
):
    n = len(levels_J)
    levels = [0.0] * n
    purchases = [0.0] * n
    clamped = []
    capped = []
    for i, (level, h, c, flow, on_grid) in enumerate(
        zip(levels_J, harvested_J, consumed_J, transferred_J, grid_connected, strict=True)
    ):
        if not (0 <= level <= capacity_J):
            raise ValueError(f"station {i}: level {level} outside [0, {capacity_J}]")
        if h < 0 or c < 0:
            raise ValueError(f"station {i}: harvested_J and consumed_J must be >= 0")
        raw = level + h - c + flow
        if on_grid:
            floor = 0.0 if 0.0 > raw else raw
            held = capacity_J if capacity_J < floor else floor
            gap = up_threshold_J - held
            purchases[i] = purchase = 0.0 if 0.0 > gap else gap
            topped = floor + purchase
            levels[i] = capacity_J if capacity_J < topped else topped
            raw += purchase
        else:
            capped_raw = capacity_J if capacity_J < raw else raw
            levels[i] = 0.0 if 0.0 > capped_raw else capped_raw
        if raw < 0.0:
            clamped.append(i)
        if raw > capacity_J:
            capped.append(i)
    return levels, purchases, clamped, capped


# each edge of the guards: signed zeros, the smallest subnormals, NaN, the
# infinities, the capacity and one ulp either side of it, and the ints 0 and 1
GUARD_EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
    CAP, math.nextafter(CAP, math.inf), math.nextafter(CAP, 0.0), 0, 1,
])
GUARD_CAPS = st.sampled_from([CAP, math.inf])


def exact(value):
    """A kernel result with each float as its bytes and each other scalar tagged with its type."""
    if isinstance(value, float):
        return bits(value)
    if isinstance(value, dict):
        return [(key, exact(v)) for key, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return type(value).__name__, value


def kernel_outcome(fn, *args):
    try:
        return exact(fn(*args))
    except ValueError as exc:
        return "raised", str(exc)


class TestFloatGuards:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(GUARD_EDGES, st.booleans()), min_size=1, max_size=6), GUARD_CAPS)
    def test_roles_of_matches_int_guards(self, stations, cap):
        levels, on_grid = [s[0] for s in stations], [s[1] for s in stations]
        assert kernel_outcome(roles_of, levels, on_grid, cap, LOW, UP) == kernel_outcome(
            int_guard_roles_of, levels, on_grid, cap, LOW, UP
        )

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(GUARD_EDGES, GUARD_EDGES, GUARD_EDGES, GUARD_EDGES, st.booleans()),
            min_size=1, max_size=6,
        ),
        GUARD_CAPS,
    )
    def test_battery_steps_matches_int_guards(self, stations, cap):
        vectors = [[station[k] for station in stations] for k in range(5)]
        # the oracle predates the roles battery_steps also returns; TestFusedRoles checks those
        def stepped(*args):
            return battery_steps(*args)[:4]

        assert kernel_outcome(stepped, *vectors, cap, LOW, UP) == kernel_outcome(
            int_guard_battery_steps, *vectors, cap, UP
        )
