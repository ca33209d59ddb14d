"""Power packet grid topology: grid graph, static min-hop routes, line
resistance, per-hop delivery losses, and TDM link reservation state.

Nodes are (row, col) tuples; one base station sits on each node and every
4-adjacent pair is joined by a single identical DC link. Mini-slot indices
are 0-based throughout.

Link calendar. A PowerLink's whole state is the set of mini-slots it
holds: an int bitmask with bit m set while mini-slot m is held, which
answers every overlap test with one AND. Who held which link and when is
derived from the transfer jobs (transfer.job_grants), not stored. A link
reserved for the first time since the last clear puts itself on its
grid's dirty list, and PpgGrid.clear_reservations clears only the links
on that list, whoever reserved them.

Routes. static_route is memoised per grid: the first call for a (source,
consumer) pair builds the Route; later calls return the same Route. The
grid keeps each column's nodes and vertical links in row order, and each
row's in column order, so a route is two slices of those lines (reversed
when it walks up or left), with no link looked up by key. Consecutive
nodes of a line slice are adjacent, so such a route skips the adjacency
check every other Route runs when it is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ConfigError, LinkBusyError

Node = tuple[int, int]
LinkKey = tuple[Node, Node]


def line_resistance(resistivity: float, length_m: float, cross_section_mm2: float) -> float:
    """Resistance of one power link, rho * length / area."""
    if resistivity <= 0 or length_m <= 0 or cross_section_mm2 <= 0:
        raise ValueError(
            "resistivity, length and cross-section must all be positive, got "
            f"({resistivity}, {length_m}, {cross_section_mm2})"
        )
    return resistivity * length_m / cross_section_mm2


def link_key(a: Node, b: Node) -> LinkKey:
    """Canonical undirected key for the link between two adjacent nodes."""
    return (a, b) if a <= b else (b, a)


@dataclass
class PowerLink:
    """One DC link with its TDM reservation calendar for the current slot.

    At most one transfer may hold the link in any mini-slot. A reservation
    takes a half-open [start, end) mini-slot range into mask (bit m set
    while mini-slot m is held); clear() empties it. A link built by a
    PpgGrid shares the grid's dirty list and joins it on its first
    reservation after a clear.
    """

    endpoints: LinkKey
    mask: int = 0
    dirty: list[PowerLink] | None = field(default=None, repr=False, compare=False)

    def reserve(self, start: int, end: int) -> None:
        if end <= start:
            raise ValueError(f"empty mini-slot range [{start}, {end})")
        if start < 0:
            raise ValueError(f"mini-slot range [{start}, {end}) starts before 0")
        bits = ((1 << (end - start)) - 1) << start
        if clash := self.mask & bits:
            raise LinkBusyError(
                f"link {self.endpoints} busy in mini-slot {(clash & -clash).bit_length() - 1}, "
                f"requested [{start}, {end})"
            )
        if not self.mask and self.dirty is not None:
            self.dirty.append(self)
        self.mask |= bits

    def clear(self) -> None:
        self.mask = 0


@dataclass(frozen=True)
class Route:
    """Ordered node path from source to consumer.

    power_links holds the grid's PowerLink for each hop, in route order,
    when the route comes from PpgGrid.static_route; it is empty otherwise.
    """

    hops: tuple[Node, ...]
    power_links: tuple[PowerLink, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.hops) < 2:
            raise ValueError("a route needs at least two nodes")
        for a, b in zip(self.hops, self.hops[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise ValueError(f"nodes {a} and {b} are not adjacent")

    @classmethod
    def _adjacent(cls, hops: tuple[Node, ...], power_links: tuple[PowerLink, ...]) -> Route:
        """A route whose hops are adjacent by construction, built without __post_init__'s check.

        Only PpgGrid._walk builds one: its hops are slices of a grid line.
        Every other Route is checked.
        """
        route = object.__new__(cls)
        # what the frozen dataclass's own __init__ does, minus __post_init__
        object.__setattr__(route, "hops", hops)
        object.__setattr__(route, "power_links", power_links)
        return route

    @functools.cached_property
    def text(self) -> str:
        """The hops as "r:c|r:c|...", as transfers.csv writes them; built once per route."""
        return "|".join(f"{r}:{c}" for r, c in self.hops)

    def links(self) -> tuple[LinkKey, ...]:
        return tuple(link_key(a, b) for a, b in zip(self.hops, self.hops[1:]))


class PpgGrid:
    """Rectangular power packet grid with identical links between 4-neighbors."""

    def __init__(
        self,
        rows: int = 4,
        cols: int = 6,
        link_length_m: float = 100.0,
        resistivity: float = 0.023,
        cross_section_mm2: float = 10.0,
        dc_voltage_V: float = 380.0,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError(f"grid must be at least 1x1, got {rows}x{cols}")
        if dc_voltage_V <= 0:
            raise ConfigError("dc_voltage_V must be positive")
        self.rows = rows
        self.cols = cols
        self.link_length_m = link_length_m
        self.resistivity = resistivity
        self.cross_section_mm2 = cross_section_mm2
        self.dc_voltage_V = dc_voltage_V
        self.links: dict[LinkKey, PowerLink] = {}
        # links reserved since the last clear_reservations
        self._dirty: list[PowerLink] = []
        self._routes: dict[tuple[Node, Node], Route] = {}
        # each column's nodes and vertical links in row order, each row's
        # nodes and horizontal links in column order: _walk slices routes from them
        self._column_nodes = [[(r, c) for r in range(rows)] for c in range(cols)]
        self._row_nodes = [[(r, c) for c in range(cols)] for r in range(rows)]
        self._column_links: list[list[PowerLink]] = [[] for _ in range(cols)]
        self._row_links: list[list[PowerLink]] = [[] for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                if r + 1 < rows:
                    key = link_key((r, c), (r + 1, c))
                    self.links[key] = link = PowerLink(key, dirty=self._dirty)
                    self._column_links[c].append(link)
                if c + 1 < cols:
                    key = link_key((r, c), (r, c + 1))
                    self.links[key] = link = PowerLink(key, dirty=self._dirty)
                    self._row_links[r].append(link)

    @property
    def line_resistance_ohm(self) -> float:
        return line_resistance(self.resistivity, self.link_length_m, self.cross_section_mm2)

    def nodes(self) -> list[Node]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def in_bounds(self, node: Node) -> bool:
        r, c = node
        return 0 <= r < self.rows and 0 <= c < self.cols

    def _check(self, node: Node) -> None:
        if not self.in_bounds(node):
            raise ValueError(f"node {node} outside {self.rows}x{self.cols} grid")

    def hop_count(self, a: Node, b: Node) -> int:
        """Shortest-path length between two nodes (Manhattan distance)."""
        self._check(a)
        self._check(b)
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def static_route(self, a: Node, b: Node) -> Route:
        """Deterministic min-hop route: walk rows first, then columns."""
        route = self._routes.get((a, b))
        if route is None:
            route = self._routes[(a, b)] = self._walk(a, b)
        return route

    def _walk(self, a: Node, b: Node) -> Route:
        self._check(a)
        self._check(b)
        if a == b:
            raise ValueError(f"no route from {a} to itself")
        (r0, c0), (r1, c1) = a, b
        # down or up column c0 to row r1, then along row r1 to column c1;
        # link i of a line joins its nodes i and i + 1
        nodes, links = self._column_nodes[c0], self._column_links[c0]
        if r0 <= r1:
            hops, route_links = nodes[r0:r1 + 1], links[r0:r1]
        else:
            hops, route_links = nodes[r1:r0 + 1][::-1], links[r1:r0][::-1]
        nodes, links = self._row_nodes[r1], self._row_links[r1]
        if c0 <= c1:
            hops += nodes[c0 + 1:c1 + 1]
            route_links += links[c0:c1]
        else:
            hops += nodes[c1:c0][::-1]
            route_links += links[c1:c0][::-1]
        return Route._adjacent(tuple(hops), tuple(route_links))

    def clear_reservations(self) -> None:
        """Empty every link reserved since the last clear; the rest already are."""
        for link in self._dirty:
            link.clear()
        self._dirty.clear()


def per_hop_loss(resistance_ohm: float, link_power_W: float, voltage_V: float) -> float:
    """Fraction of energy dissipated per hop at nominal link power.

    Resistive loss at current I = P/U is I^2 * R, i.e. a fraction
    R * P / U^2 of the transported power.
    """
    if resistance_ohm <= 0 or link_power_W <= 0 or voltage_V <= 0:
        raise ValueError("resistance, power and voltage must be positive")
    return resistance_ohm * link_power_W / voltage_V**2


@dataclass(frozen=True)
class LossModel:
    """Per-hop multiplicative delivery loss over the grid."""

    hop_loss: float

    def __post_init__(self) -> None:
        if not (0.0 < self.hop_loss < 1.0):
            raise ConfigError(
                f"per-hop loss must lie in (0, 1), got {self.hop_loss}; "
                "check cable constants, link power and bus voltage"
            )

    def delivered_fraction(self, hops: int) -> float:
        """Fraction of sent energy surviving a route of the given hop count."""
        if hops < 0:
            raise ValueError(f"hop count must be >= 0, got {hops}")
        return (1.0 - self.hop_loss) ** hops


def loss_model_for(grid: PpgGrid, phi_max_J: float, mini_slot_duration_s: float) -> LossModel:
    """Loss model at the link's nominal power phi_max per mini-slot."""
    if phi_max_J <= 0 or mini_slot_duration_s <= 0:
        raise ConfigError("phi_max_J and mini_slot_duration_s must be positive")
    link_power = phi_max_J / mini_slot_duration_s
    return LossModel(per_hop_loss(grid.line_resistance_ohm, link_power, grid.dc_voltage_V))
