"""Group mobility for vehicle-mounted user groups on a two-lane highway.

Each group is one vehicle carrying a handful of users; the group reference
point moves at constant signed speed along the highway axis (the grid's
long axis) and wraps around at the world edge. Member offsets are drawn
once, inside a bounded radius, when the group is spawned; nothing reads
them afterwards, since association and trajectories use the reference
point. Associations go to the nearest base station, lowest id on ties.
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


@dataclass(frozen=True)
class AssociationSnapshot:
    slot_index: int
    serving: frozenset[int]


def bs_world_positions(rows: int, cols: int, spacing_m: float) -> dict[int, tuple[float, float]]:
    """World (x, y) of each station; ids row-major, x along columns."""
    return {
        r * cols + c: (c * spacing_m, r * spacing_m)
        for r in range(rows)
        for c in range(cols)
    }


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


def rpgm_step(group: VueGroup, tau_s: float, world_length_m: float) -> VueGroup:
    """Advance one slot: move the reference point, wrapping at the world edge."""
    return VueGroup(
        group.group_id,
        (group.x_m + group.velocity_mps * tau_s) % world_length_m,
        group.y_m,
        group.velocity_mps,
        group.lane,
        group.member_offsets,
    )


def nearest_bs(x_m: float, y_m: float, rows: int, cols: int, spacing_m: float) -> int:
    """Id of the station nearest to (x, y) on the lattice; lowest id on exact ties.

    Stations sit at (c * spacing, r * spacing), ids row-major. On each axis
    only the lattice lines either side of the point, clamped to the grid,
    can be nearest, so the 2x2 block of them is compared with the distance
    expression of a scan over bs_world_positions, ties going to the lower id.
    The two agree while a point lies within about 1e7 spacings of the grid;
    farther out, rounding can make stations beyond the block tie with it.
    """
    c0 = min(max(math.floor(x_m / spacing_m), 0), cols - 1)
    r0 = min(max(math.floor(y_m / spacing_m), 0), rows - 1)
    c1 = min(c0 + 1, cols - 1)
    r1 = min(r0 + 1, rows - 1)
    dx0 = (c0 * spacing_m - x_m) ** 2
    dx1 = (c1 * spacing_m - x_m) ** 2
    dy0 = (r0 * spacing_m - y_m) ** 2
    dy1 = (r1 * spacing_m - y_m) ** 2
    return min(
        (dx0 + dy0, r0 * cols + c0),
        (dx1 + dy0, r0 * cols + c1),
        (dx0 + dy1, r1 * cols + c0),
        (dx1 + dy1, r1 * cols + c1),
    )[1]


def association_set(
    slot_index: int,
    groups: Sequence[VueGroup],
    rows: int,
    cols: int,
    spacing_m: float,
) -> AssociationSnapshot:
    """Stations currently serving at least one vehicle group."""
    serving = frozenset(nearest_bs(g.x_m, g.y_m, rows, cols, spacing_m) for g in groups)
    return AssociationSnapshot(slot_index=slot_index, serving=serving)


def trajectory_rows(
    slot_index: int,
    groups: Sequence[VueGroup],
    rows: int,
    cols: int,
    spacing_m: float,
) -> list[tuple[int, int, float, float, int]]:
    """Debug dump rows: (slot, group, x, y, serving_bs), one per vehicle."""
    return [
        (slot_index, g.group_id, g.x_m, g.y_m, nearest_bs(g.x_m, g.y_m, rows, cols, spacing_m))
        for g in groups
    ]
