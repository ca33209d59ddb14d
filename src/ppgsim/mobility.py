"""Group mobility for vehicle-mounted user groups on a two-lane highway.

Each group is one vehicle carrying a handful of users; the group reference
point moves at constant signed speed along the highway axis (the grid's
long axis) and wraps around at the world edge. Member offsets are drawn
once, inside a bounded radius, when the group is spawned; nothing reads
them afterwards, since association and trajectories use the reference
point. Associations go to the nearest base station, lowest id on ties.

The engine steps a ``Fleet``: every group's position in one flat list,
moved in place each slot. ``rpgm_step``, ``nearest_bs`` and
``association_set`` do the same for ``VueGroup`` values through the same
move and lookup helpers. There is one nearest-station loop, ``_nearest``:
``Fleet.step`` and ``Fleet.trajectory_rows`` pass it the whole fleet's
lists in one call, and ``nearest_bs`` passes one-element lists, so the
lookup's arithmetic has one copy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class VueGroup:
    group_id: int
    x_m: float
    y_m: float
    velocity_mps: float  # signed, along the highway axis; no U-turns mid-run
    lane: int
    member_offsets: tuple[tuple[float, float], ...]


def _draw_offset(rng: random.Random, radius_m: float) -> tuple[float, float]:
    # rejection sampling keeps the draw uniform over the disk
    while True:
        dx = rng.uniform(-radius_m, radius_m)
        dy = rng.uniform(-radius_m, radius_m)
        if dx * dx + dy * dy <= radius_m * radius_m:
            return (dx, dy)


def make_groups(
    rng: random.Random,
    n_groups: int,
    members_per_group: int,
    world_length_m: float,
    lane_y_m: Sequence[float],
    speed_range_mps: tuple[float, float],
    offset_radius_m: float,
) -> list[VueGroup]:
    """Spawn groups at random highway positions, alternating lanes.

    Lane 0 drives in +x, lane 1 in -x; the speed magnitude is drawn once
    per group and kept for the whole run.
    """
    groups = []
    for g in range(n_groups):
        lane = g % len(lane_y_m)
        speed = rng.uniform(*speed_range_mps)
        groups.append(
            VueGroup(
                group_id=g,
                x_m=rng.uniform(0.0, world_length_m),
                y_m=lane_y_m[lane],
                velocity_mps=speed if lane == 0 else -speed,
                lane=lane,
                member_offsets=tuple(
                    _draw_offset(rng, offset_radius_m) for _ in range(members_per_group)
                ),
            )
        )
    return groups


def _advance(x_m: list[float], move_m: Sequence[float], world_length_m: float) -> None:
    """Move each reference point by its per-slot move, in place, wrapping at the world edge."""
    for k, move in enumerate(move_m):
        x_m[k] = (x_m[k] + move) % world_length_m


def _row_terms(y_m: float, rows: int, cols: int, spacing_m: float) -> tuple[int, int, float, float]:
    """The row half of nearest_bs for height y: (row base id r0, r1, dy0, dy1).

    r0 and r1 are the lattice rows either side of y, clamped to the grid,
    given as the id of their first station (r * cols); dy0 and dy1 are the
    squared distances to them. A group's y never changes, so a fleet
    computes these once per group.
    """
    r0 = min(max(math.floor(y_m / spacing_m), 0), rows - 1)
    r1 = min(r0 + 1, rows - 1)
    return r0 * cols, r1 * cols, (r0 * spacing_m - y_m) ** 2, (r1 * spacing_m - y_m) ** 2


def _nearest(
    x_m: Sequence[float],
    row_terms: Sequence[tuple[int, int, float, float]],
    cols: int,
    spacing_m: float,
) -> list[int]:
    """Ids of the stations nearest to each x, on the rows given by its _row_terms (see nearest_bs).

    x_m and row_terms are parallel per-point lists. For each point the four
    candidates are compared in ascending id order and a later one replaces
    the best only when strictly nearer, so the lowest id wins ties.
    """
    ids = []
    for x, (b0, b1, dy0, dy1) in zip(x_m, row_terms):
        c0 = math.floor(x / spacing_m)
        if c0 < 0:
            c0 = 0
        elif c0 >= cols:
            c0 = cols - 1
        c1 = c0 + 1 if c0 + 1 < cols else c0
        dx0 = (c0 * spacing_m - x) ** 2
        dx1 = (c1 * spacing_m - x) ** 2
        best, best_id = dx0 + dy0, b0 + c0
        d = dx1 + dy0
        if d < best:
            best, best_id = d, b0 + c1
        d = dx0 + dy1
        if d < best:
            best, best_id = d, b1 + c0
        if dx1 + dy1 < best:
            best_id = b1 + c1
        ids.append(best_id)
    return ids


def rpgm_step(group: VueGroup, tau_s: float, world_length_m: float) -> VueGroup:
    """Advance one slot: move the reference point, wrapping at the world edge."""
    x_m = [group.x_m]
    _advance(x_m, [group.velocity_mps * tau_s], world_length_m)
    return VueGroup(
        group.group_id, x_m[0], group.y_m, group.velocity_mps, group.lane, group.member_offsets
    )


def nearest_bs(x_m: float, y_m: float, rows: int, cols: int, spacing_m: float) -> int:
    """Id of the station nearest to (x, y) on the lattice; lowest id on exact ties.

    Stations sit at (c * spacing, r * spacing), ids row-major. On each axis
    only the lattice lines either side of the point, clamped to the grid,
    can be nearest, so the 2x2 block of them is compared with the distance
    expression of a scan over every station, ties going to the lower id.
    The two agree while a point lies within about 1e7 spacings of the grid;
    farther out, rounding can make stations beyond the block tie with it.
    """
    return _nearest([x_m], [_row_terms(y_m, rows, cols, spacing_m)], cols, spacing_m)[0]


def association_set(
    groups: Sequence[VueGroup], rows: int, cols: int, spacing_m: float
) -> frozenset[int]:
    """Stations currently serving at least one vehicle group."""
    return frozenset(nearest_bs(g.x_m, g.y_m, rows, cols, spacing_m) for g in groups)


class Fleet:
    """Every group's reference point as flat per-group lists, moved in place each slot.

    Equal, slot for slot, to stepping the groups with rpgm_step and reading
    them with association_set and nearest_bs: each group's move is
    velocity * tau, the product rpgm_step forms before adding it, and its
    row terms for the nearest-station lookup come from its constant y once.
    """

    def __init__(
        self,
        groups: Sequence[VueGroup],
        tau_s: float,
        world_length_m: float,
        rows: int,
        cols: int,
        spacing_m: float,
    ) -> None:
        self.group_ids = [g.group_id for g in groups]
        self.x_m = [g.x_m for g in groups]
        self.y_m = [g.y_m for g in groups]
        self.move_m = [g.velocity_mps * tau_s for g in groups]
        self.row_terms = [_row_terms(g.y_m, rows, cols, spacing_m) for g in groups]
        self.world_length_m = world_length_m
        self.cols = cols
        self.spacing_m = spacing_m

    def step(self) -> frozenset[int]:
        """Advance every group one slot; returns the stations now serving at least one."""
        _advance(self.x_m, self.move_m, self.world_length_m)
        return frozenset(_nearest(self.x_m, self.row_terms, self.cols, self.spacing_m))

    def trajectory_rows(self, slot_index: int) -> list[tuple[int, int, float, float, int]]:
        """Debug dump rows of the current positions: (slot, group, x, y, serving_bs), one per group."""
        serving = _nearest(self.x_m, self.row_terms, self.cols, self.spacing_m)
        return [
            (slot_index, g, x_m, y_m, bs)
            for g, x_m, y_m, bs in zip(self.group_ids, self.x_m, self.y_m, serving)
        ]
