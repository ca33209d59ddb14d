"""Core energy types and the per-slot battery/consumption arithmetic.

All quantities are joules per time slot. Batteries are ideal: no
charge/discharge or leakage losses, capped at capacity and clamped at zero.

The per-slot rules work on plain floats: ``bs_consumption`` gives a
station's consumption at a load, ``roles_of`` reads every station's
trading role from its reported level, as the demands of the consumers and
the surpluses of the sources, and ``battery_steps`` advances every
battery by one slot, grid purchase included, and reads the role of each
new level by ``roles_of``'s rule in the same pass over the stations. The
engine calls ``battery_steps`` once per slot and keeps its roles for the
next slot, so it calls ``roles_of`` only for a level list no pass wrote:
the first slot's, or one a caller put in place. ``role_of`` and
``battery_step`` are the same passes over one station, and
``classify_role``, ``eb_step_offgrid``, ``eb_step_ongrid`` and
``grid_purchase`` wrap the rules for callers holding an ``EnergyBuffer``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SimClock:
    """Discrete time base: slot index t, slot length tau, TDM mini-slot length."""

    slot_index: int = 0
    slot_duration_s: float = 60.0
    mini_slot_duration_s: float = 5.0

    def __post_init__(self) -> None:
        if self.slot_index < 0:
            raise ValueError(f"slot_index must be >= 0, got {self.slot_index}")
        if self.slot_duration_s <= 0 or self.mini_slot_duration_s <= 0:
            raise ValueError("slot and mini-slot durations must be positive")
        ratio = self.slot_duration_s / self.mini_slot_duration_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                "slot_duration_s must be a positive integer multiple of "
                f"mini_slot_duration_s ({self.slot_duration_s}/{self.mini_slot_duration_s})"
            )

    @property
    def minislots_per_slot(self) -> int:
        return round(self.slot_duration_s / self.mini_slot_duration_s)


@dataclass(frozen=True)
class EnergyBuffer:
    """Battery state plus its fixed thresholds.

    level_J is the stored energy; low_threshold_J is the floor no station
    should sink below, up_threshold_J the desired level above which the
    excess is tradeable.
    """

    level_J: float
    capacity_J: float
    low_threshold_J: float
    up_threshold_J: float

    def __post_init__(self) -> None:
        if not (0 < self.low_threshold_J < self.up_threshold_J < self.capacity_J):
            raise ValueError(
                "thresholds must satisfy 0 < low < up < capacity, got "
                f"low={self.low_threshold_J} up={self.up_threshold_J} "
                f"cap={self.capacity_J}"
            )
        if not (0 <= self.level_J <= self.capacity_J):
            raise ValueError(
                f"level {self.level_J} outside [0, {self.capacity_J}]"
            )

    def with_level(self, level_J: float) -> "EnergyBuffer":
        return dataclasses.replace(self, level_J=level_J)


def bs_consumption(load_fraction: float, idle_J: float, max_load_J: float) -> float:
    """One slot's consumption: the constant idle draw plus a term linear in the normalized load."""
    if not (0.0 <= load_fraction <= 1.0):
        raise ValueError(f"load_fraction must be in [0, 1], got {load_fraction}")
    return idle_J + load_fraction * max_load_J


def roles_of(
    levels_J: Sequence[float],
    grid_connected: Sequence[bool],
    capacity_J: float,
    low_J: float,
    up_J: float,
) -> tuple[list[float], dict[int, float], dict[int, float]]:
    """Trading role of every station at its reported level, in one pass.

    Returns (demand vector, demands, surpluses): each station's demand
    (zero unless it is a consumer), indexed by station id, and {id: amount}
    maps of the consumers and of the sources; a station in neither map is
    neutral. Levels strictly above the upper threshold are tradeable
    surplus. An off-grid station strictly below the lower threshold demands
    the gap. Grid-connected stations are never consumers; they cover
    deficits by purchasing from the grid. A level outside [0, capacity_J],
    NaN included, raises ValueError naming the station; vectors of
    different lengths raise ValueError.
    """
    demand = [0.0] * len(levels_J)
    demands: dict[int, float] = {}
    surpluses: dict[int, float] = {}
    for i, (level, on_grid) in enumerate(zip(levels_J, grid_connected, strict=True)):
        if not (0.0 <= level <= capacity_J):
            raise ValueError(f"station {i}: level {level} outside [0, {capacity_J}]")
        if level > up_J:
            surpluses[i] = level - up_J
        elif level < low_J and not on_grid:
            demands[i] = demand[i] = low_J - level
    return demand, demands, surpluses


def role_of(level_J: float, grid_connected: bool, low_J: float, up_J: float) -> tuple[str, float]:
    """Trading role of one station at this level: (role, amount).

    The role is "source", "consumer" or "neutral", read from the maps of
    roles_of for one station with no upper bound on the level; see it for
    the rules. A neutral station's amount is zero.
    """
    demand, demands, surpluses = roles_of([level_J], [grid_connected], math.inf, low_J, up_J)
    if surpluses:
        return "source", surpluses[0]
    return "consumer" if demands else "neutral", demand[0]


def classify_role(buffer: EnergyBuffer, grid_connected: bool) -> tuple[str, float]:
    """role_of at the reported buffer level and thresholds: (role, amount)."""
    return role_of(buffer.level_J, grid_connected, buffer.low_threshold_J, buffer.up_threshold_J)


def battery_steps(
    levels_J: Sequence[float],
    harvested_J: Sequence[float],
    consumed_J: Sequence[float],
    transferred_J: Sequence[float],
    grid_connected: Sequence[bool],
    capacity_J: float,
    low_J: float,
    up_J: float,
) -> tuple[
    list[float], list[float], list[int], list[int], list[float], dict[int, float], dict[int, float]
]:
    """Advance every station's battery one slot, in one pass over the stations.

    Returns (new levels, purchases, clamped ids, capped ids, demand vector,
    demands, surpluses); the vectors are indexed by station id. The last
    three are roles_of's result at the new levels, read by its rule in the
    same pass but without its range check: a level is checked when it
    starts the next pass, and a NaN one reads as neutral. transferred_J is
    signed: positive when the station received energy, negative when it
    sent some. An off-grid battery is capped at capacity and clamped at
    zero (an empty battery cannot go negative; the engine logs the
    shortfall). A grid-connected battery is floored at zero first, then
    buys up to its upper threshold on that provisional level, capped at
    capacity. A station is clamped or capped when its raw sum, purchase
    included, fell below zero or rose above capacity. Vectors of different
    lengths raise ValueError.
    """
    n = len(levels_J)
    levels = [0.0] * n
    purchases = [0.0] * n
    clamped: list[int] = []
    capped: list[int] = []
    demand = [0.0] * n
    demands: dict[int, float] = {}
    surpluses: dict[int, float] = {}
    for i, (level, h, c, flow, on_grid) in enumerate(
        zip(levels_J, harvested_J, consumed_J, transferred_J, grid_connected, strict=True)
    ):
        if not (0.0 <= level <= capacity_J):
            raise ValueError(f"station {i}: level {level} outside [0, {capacity_J}]")
        if h < 0.0 or c < 0.0:
            raise ValueError(f"station {i}: harvested_J and consumed_J must be >= 0")
        raw = level + h - c + flow
        # conditional expressions in place of two-argument min/max: max(a, b)
        # returns b only when b > a and min(a, b) only when b < a, so each
        # gives the same bits, signed zeros and NaN included, at less cost
        if on_grid:
            floor = 0.0 if 0.0 > raw else raw
            held = capacity_J if capacity_J < floor else floor
            gap = up_J - held
            purchases[i] = purchase = 0.0 if 0.0 > gap else gap
            topped = floor + purchase
            levels[i] = new = capacity_J if capacity_J < topped else topped
            raw += purchase
        else:
            capped_raw = capacity_J if capacity_J < raw else raw
            levels[i] = new = 0.0 if 0.0 > capped_raw else capped_raw
        # roles_of's rule, on the level just written
        if new > up_J:
            surpluses[i] = new - up_J
        elif new < low_J and not on_grid:
            demands[i] = demand[i] = low_J - new
        if raw < 0.0:
            clamped.append(i)
        if raw > capacity_J:
            capped.append(i)
    return levels, purchases, clamped, capped, demand, demands, surpluses


def battery_step(
    level_J: float,
    harvested_J: float,
    consumed_J: float,
    transferred_J: float,
    grid_connected: bool,
    capacity_J: float,
    up_threshold_J: float,
) -> tuple[float, float, bool, bool]:
    """Advance one battery one slot: (new level, purchase, clamped, capped).

    battery_steps on one-station lists; see it for the rules.
    """
    # the roles are dropped, so any lower threshold serves
    levels, purchases, clamped, capped, _, _, _ = battery_steps(
        [level_J], [harvested_J], [consumed_J], [transferred_J], [grid_connected],
        capacity_J, 0.0, up_threshold_J,
    )
    return levels[0], purchases[0], bool(clamped), bool(capped)


def eb_step_offgrid(
    buffer: EnergyBuffer,
    harvested_J: float,
    consumed_J: float,
    transferred_J: float,
) -> EnergyBuffer:
    """Advance an off-grid battery one slot (see battery_step)."""
    level, _, _, _ = battery_step(
        buffer.level_J, harvested_J, consumed_J, transferred_J, False,
        buffer.capacity_J, buffer.up_threshold_J,
    )
    return buffer.with_level(level)


def eb_step_ongrid(
    buffer: EnergyBuffer,
    harvested_J: float,
    consumed_J: float,
    transferred_J: float,
    purchased_J: float,
) -> EnergyBuffer:
    """Advance an on-grid battery one slot; a given purchase adds on top of flows.

    The zero floor applies before the purchase: a battery drained empty
    mid-slot is refilled from zero, so a purchase sized against the
    (clamped) provisional level always lands the station at its upper
    threshold. The off-grid step supplies that floor; the cap it also
    applies cannot change the result, since the purchase is never negative
    and the sum is capped again.
    """
    if purchased_J < 0:
        raise ValueError("purchased_J must be >= 0")
    provisional, _, _, _ = battery_step(
        buffer.level_J, harvested_J, consumed_J, transferred_J, False,
        buffer.capacity_J, buffer.up_threshold_J,
    )
    return buffer.with_level(min(provisional + purchased_J, buffer.capacity_J))


def grid_purchase(buffer: EnergyBuffer) -> float:
    """Energy a grid-connected station buys to reach its upper threshold.

    Call on the provisional end-of-slot level (after harvest, consumption
    and transfers). Returns zero when the level is already at or above the
    threshold.
    """
    _, purchase, _, _ = battery_step(
        buffer.level_J, 0.0, 0.0, 0.0, True, buffer.capacity_J, buffer.up_threshold_J
    )
    return purchase
