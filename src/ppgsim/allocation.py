"""Per-slot source-to-consumer energy allocation.

allocate_slot is the one slot driver for every policy. The PICKS registry
maps a policy name to a builder that takes the slot's context (lattice
shape, loss model, control weight, policy rng) and returns the slot's
pick(consumer, demand_J, available) closure; a new policy is one
registered builder. Station ids are row-major on the rows x cols lattice,
so the hop count between two stations is their lattice (Manhattan)
distance.

* ``lyapunov`` - the drift-plus-penalty rule with its drift term at 0,
  which is all it can be here (lyapunov_ring_picks says why): consumers
  served priority-first; for each, the nearest source able to cover the
  demand after route losses wins, lowest id first, and only when none can
  does the control weight pick among the nearest inadequate sources. The
  search walks hop rings d = 1, 2, ... around the consumer and stops
  after the first ring holding an adequate source, or, with an inadequate
  source in hand, when even the largest surplus left times the delivered
  fraction of the next ring falls short of the demand. The fraction falls
  with d and float products are monotone, so the rings walked always hold
  the nearest adequate source, or when none exists the nearest inadequate
  ones: the pick equals that of a scan over every source.
* ``radial`` - a two-ring neighborhood search around the consumer.
* ``random`` - a uniform draw over all current sources.

allocate_slot serves consumers with associated users first, then the
rest, and debits a source's remaining surplus as decisions are made, so
later consumers in the same slot see updated availability; a source whose
surplus is spent drops out of the slot.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .numeric import left_sum

Shape = tuple[int, int]
FractionFn = Callable[[int], float]
# (consumer, d) -> ids of the stations d hops from the consumer
RingsFn = Callable[[int, int], Sequence[int]]


class _DecisionFields(NamedTuple):
    source_id: int
    consumer_id: int
    gross_J: float
    fraction: float
    hops: int
    shortfall: bool = False


class AllocationDecision(_DecisionFields):
    """One source-to-consumer transfer order for the current slot.

    gross_J leaves the source; fraction of it survives the route; shortfall
    marks decisions whose source could not cover the full demand. An
    immutable, hashable record: a tuple of its six fields, checked once
    when it is built.
    """

    __slots__ = ()

    def __new__(
        cls,
        source_id: int,
        consumer_id: int,
        gross_J: float,
        fraction: float,
        hops: int,
        shortfall: bool = False,
    ) -> AllocationDecision:
        # written so that NaN and infinities fail the check
        if not (0.0 < gross_J < math.inf):
            raise ValueError(f"gross_J must be positive and finite, got {gross_J}")
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if hops < 0:
            raise ValueError("hop count cannot be negative")
        return tuple.__new__(cls, (source_id, consumer_id, gross_J, fraction, hops, shortfall))

    @classmethod
    def _make(cls, iterable: Iterable) -> AllocationDecision:
        # the inherited _make, which _replace calls too, would skip the checks
        return cls(*iterable)

    @property
    def delivered_J(self) -> float:
        return self.gross_J * self.fraction


class VirtualQueues:
    """Per-station queues under queue_update, a list indexed by station id; start at zero.

    No run keeps these: every queue would stay at 0 (lyapunov_ring_picks).
    The class is kept only because the benchmark's tracer wraps
    VirtualQueues.advance as its allocation.queue span, and
    tests/test_bench_contract.py requires every traced target to resolve.
    """

    def __init__(self, n_stations: int) -> None:
        self.values: list[float] = [0.0] * n_stations

    def advance(self, bs_id: int, delivered_J: float, cap_J: float) -> None:
        self.values[bs_id] = queue_update(self.values[bs_id], delivered_J, cap_J)


def queue_update(backlog_J: float, delivered_J: float, cap_J: float) -> float:
    """Queue recursion: grow by the slot's delivered energy, drain by the cap."""
    if backlog_J < 0 or delivered_J < 0 or cap_J < 0:
        raise ValueError("queue inputs must be >= 0")
    return max(backlog_J + delivered_J - cap_J, 0.0)


def p2_score(backlog_J: float, consumption_J: float, lam: float, delivered_J: float) -> float:
    """Drift-plus-penalty objective: queue * consumption + lam * delivered."""
    if lam < 0:
        raise ValueError("control weight must be >= 0")
    return backlog_J * consumption_J + lam * delivered_J


def _decision_for(
    source: int,
    consumer: int,
    available: Mapping[int, float],
    hops: int,
    fraction_of: FractionFn,
    demand_J: float,
) -> AllocationDecision:
    """Gross-up the demand for route losses, capped by remaining surplus."""
    fraction = fraction_of(hops)
    gross = min(demand_J / fraction, available[source])
    return AllocationDecision(
        source_id=source,
        consumer_id=consumer,
        gross_J=gross,
        fraction=fraction,
        hops=hops,
        shortfall=available[source] * fraction < demand_J,
    )


@functools.cache
def ring_ids(station: int, d: int, shape: Shape) -> tuple[int, ...]:
    """Ids of the stations exactly d hops from station on a row-major lattice.

    Cached: one tuple per (station, d, shape) for the life of the process.
    """
    rows, cols = shape
    r0, c0 = divmod(station, cols)
    ids = []
    for r in range(max(r0 - d, 0), min(r0 + d, rows - 1) + 1):
        rest = d - abs(r - r0)
        if c0 - rest >= 0:
            ids.append(r * cols + c0 - rest)
        if rest and c0 + rest < cols:
            ids.append(r * cols + c0 + rest)
    return tuple(ids)


def live_rings(consumer: int, available: Mapping[int, float], cols: int, nearest: int) -> dict[int, list[int]]:
    """The sources in available nearest or more hops from consumer, keyed by hop count.

    Station ids are row-major with cols columns; one pass over available.
    """
    r0, c0 = divmod(consumer, cols)
    rings: dict[int, list[int]] = {}
    for s in available:
        r, c = divmod(s, cols)
        d = abs(r - r0) + abs(c - c0)
        if d >= nearest:
            rings.setdefault(d, []).append(s)
    return rings


# a far walk reads the live sources once it reaches a ring d >= this whose
# 4d lattice stations are at least as many as the live sources; switching
# from ring 1 on fired on a sixth of the 4x6 reference's picks, where few
# sources are left, and saved nothing there
LIVE_RINGS_FROM = 3


def lyapunov_ring_picks(
    rings: RingsFn,
    hop_values: Sequence[int],
    fractions: Sequence[float] | Mapping[int, float],
    lam: float,
    cols: int = 0,
) -> PickFn:
    """The drift-plus-penalty pick, walking each consumer's candidates nearest first.

    rings(consumer, d) gives the station ids d hops from the consumer, for
    each d of hop_values in ascending order, and fractions[d] the share of
    sent energy that survives d hops, non-increasing in d. The candidates
    are the ids in available, which holds only surpluses above zero, as
    allocate_slot keeps it. A candidate is adequate when its surplus times
    the fraction covers the demand, so a pick always restores the full
    demand after route losses. Adequate candidates are preferred; among
    those at the minimum hop count the one with the lowest score wins, and
    exact ties go to the lower id. When no candidate is adequate the
    nearest inadequate ones are scored the same way, and the winner sends
    everything it has, flagged as a shortfall.

    The score is p2_score with its drift term, queue * consumption, at 0:
    lam * delivered. The consumer's virtual queue cannot leave 0. Its
    demand is beta_low_J - level, below beta_max_J because the config
    keeps low < up < 1; it gets at most one decision per slot, which
    delivers at most the demand up to two roundings; and the queue drains
    beta_max_J per slot, so max(0 + delivered - beta_max_J, 0) is 0 every
    slot. Among adequate candidates every gross is the same need, unless
    rounding leaves a surplus just under it, so the score decides only in
    the shortfall pool, where the smallest surplus wins for lam > 0.

    The walk stops after the first ring holding an adequate candidate, or,
    with an inadequate one in hand, when the largest surplus in available
    times the next ring's fraction falls short of the demand: no farther
    candidate can then be adequate. The pick computes that largest surplus
    when first needed and keeps it between calls, until a pick draws on a
    source holding that much; so available may change between calls only
    by debits of the picked sources, as allocate_slot does.

    With cols, the column count of the row-major lattice that rings walks,
    a far walk reads its candidates from the live sources instead: on
    reaching a ring d >= LIVE_RINGS_FROM with 4d >= len(available), the
    pick buckets available by hop count once (live_rings) and takes that
    ring's and every later ring's candidates from their bucket. A lattice
    ring holds at most 4d stations, so from there a pass over the live
    sources costs no more than the rings would. The walk is the same: the
    same rings in the same order, an empty bucket counting as a walked ring.
    """
    if lam < 0:
        raise ValueError("control weight must be >= 0")
    top: float | None = None

    def pick(consumer: int, demand_J: float, available: Mapping[int, float]) -> AllocationDecision | None:
        nonlocal top
        ge: list[int] = []
        lt: list[int] = []
        hops = lt_hops = 0
        live: dict[int, list[int]] | None = None
        for hops in hop_values:
            fraction = fractions[hops]
            if lt:
                if top is None:
                    top = max(available.values())
                if top * fraction < demand_J:
                    break
            if live is None and cols and hops >= LIVE_RINGS_FROM and 4 * hops >= len(available):
                live = live_rings(consumer, available, cols, hops)
            for s in rings(consumer, hops) if live is None else live.get(hops, ()):
                surplus = available.get(s)
                if surplus is None:
                    continue
                amount = surplus * fraction
                if amount >= demand_J:
                    ge.append(s)
                # a NaN amount joins neither pool; only the nearest inadequate ring counts
                elif amount < demand_J and (not lt or lt_hops == hops):
                    lt.append(s)
                    lt_hops = hops
            if ge:
                break
        if ge:
            pool, shortfall = ge, False
        elif lt:
            pool, hops, shortfall = lt, lt_hops, True
        else:
            return None
        fraction = fractions[hops]
        need = demand_J / fraction
        best = None
        best_gross, best_score = 0.0, math.inf
        for s in sorted(pool):
            surplus = available[s]
            # min(need, surplus) and p2_score's penalty term, inlined
            gross = surplus if shortfall or surplus < need else need
            score = lam * (gross * fraction)
            if score < best_score:
                best, best_gross, best_score = s, gross, score
        if best is None:
            return None
        if available[best] == top:
            top = None
        return AllocationDecision(best, consumer, best_gross, fraction, hops, shortfall)

    return pick


def lyapunov_pick(
    consumer: int,
    demand_J: float,
    available: Mapping[int, float],
    hops_to: Mapping[int, int],
    fraction_of: FractionFn,
    backlog_J: float,
    consumption_J: float,
    lam: float,
) -> AllocationDecision | None:
    """Choose one source for one consumer among the sources in hops_to (see lyapunov_ring_picks).

    hops_to maps each candidate to its hop count, and fraction_of must not
    increase with it; a candidate with no surplus above zero left is
    passed over. The drift term backlog_J * consumption_J must be 0, the
    only value it takes in a run; any other value raises ValueError.
    """
    if backlog_J * consumption_J != 0.0:
        raise ValueError(f"drift term must be 0, got {backlog_J} * {consumption_J}")
    by_hops: dict[int, list[int]] = {}
    for s, h in hops_to.items():
        by_hops.setdefault(h, []).append(s)
    hop_values = sorted(by_hops)
    pick = lyapunov_ring_picks(
        lambda _, h: by_hops[h],
        hop_values,
        {h: fraction_of(h) for h in hop_values},
        lam,
    )
    return pick(consumer, demand_J, {s: a for s, a in available.items() if a > 0.0})


def consumer_order(demands: Mapping[int, float], priority: frozenset[int]) -> list[int]:
    """Consumers currently serving associated users first, then the rest; id order within each group."""
    first = sorted(c for c in demands if c in priority)
    rest = sorted(c for c in demands if c not in priority)
    return first + rest


PickFn = Callable[[int, float, dict[int, float]], AllocationDecision | None]


def lyapunov_picks(shape: Shape, fraction_of: FractionFn, lam: float, rng: random.Random) -> PickFn:
    """Drift-plus-penalty pick over the hop rings around the consumer on the lattice."""
    rows, cols = shape
    return lyapunov_ring_picks(
        lambda consumer, d: ring_ids(consumer, d, shape),
        range(1, rows + cols - 1),
        [fraction_of(d) for d in range(rows + cols - 1)],
        lam,
        cols,
    )


RADIAL_MAX_RINGS = 2


def radial_picks(shape: Shape, fraction_of: FractionFn, lam: float, rng: random.Random) -> PickFn:
    """Benchmark pick: scan the consumer's neighbors, then neighbors-of-neighbors.

    The search stops after RADIAL_MAX_RINGS hop rings; within the first ring
    holding any source the lowest station id wins regardless of how much it
    can give.
    """

    def pick(consumer: int, demand_J: float, available: dict[int, float]) -> AllocationDecision | None:
        for d in range(1, RADIAL_MAX_RINGS + 1):
            hits = [s for s in ring_ids(consumer, d, shape) if s in available and available[s] > 0.0]
            if hits:
                return _decision_for(min(hits), consumer, available, d, fraction_of, demand_J)
        return None

    return pick


def random_picks(shape: Shape, fraction_of: FractionFn, lam: float, rng: random.Random) -> PickFn:
    """Benchmark pick drawn uniformly from every station with surplus left, at its lattice distance."""
    cols = shape[1]

    def pick(consumer: int, demand_J: float, available: dict[int, float]) -> AllocationDecision | None:
        pool = sorted(s for s in available if available[s] > 0.0)
        if not pool:
            return None
        source = rng.choice(pool)
        hops = abs(source // cols - consumer // cols) + abs(source % cols - consumer % cols)
        return _decision_for(source, consumer, available, hops, fraction_of, demand_J)

    return pick


# policy name -> builder of the slot's pick; a new policy is one entry here
PICKS: dict[str, Callable[..., PickFn]] = {
    "lyapunov": lyapunov_picks,
    "radial": radial_picks,
    "random": random_picks,
}
POLICIES = tuple(PICKS)


def allocate_slot(
    policy: str,
    demands: Mapping[int, float],
    priority: frozenset[int],
    surpluses: Mapping[int, float],
    shape: Shape,
    fraction_of: FractionFn,
    lam: float,
    rng: random.Random,
) -> tuple[list[AllocationDecision], list[int]]:
    """Serve one slot's consumers in order under the named policy.

    shape is the (rows, cols) of the row-major station lattice. A source is
    dropped once its surplus is spent, so once none is left every consumer
    not yet served is an outage, in consumer_order, without a search or a
    draw from rng. Returns the decision list plus the ids of consumers no
    source could serve at all; a slot without consumers returns ([], [])
    and draws nothing from rng.
    """
    if policy not in PICKS:
        raise ConfigError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    pick = PICKS[policy](shape, fraction_of, lam, rng)
    available = {s: a for s, a in surpluses.items() if a > 0.0}
    decisions: list[AllocationDecision] = []
    outages: list[int] = []
    order = consumer_order(demands, priority)
    for k, consumer in enumerate(order):
        if not available:
            outages += order[k:]
            break
        picked = pick(consumer, demands[consumer], available)
        if picked is None:
            outages.append(consumer)
            continue
        left = available[picked.source_id] - picked.gross_J
        if left > 0.0:
            available[picked.source_id] = left
        else:
            del available[picked.source_id]
        decisions.append(picked)
    return decisions, outages


@dataclass(frozen=True)
class TheoremDiagnostic:
    """Empirical check of the time-average penalty bound.

    lhs is the time average of delivered energy per slot; rhs the target
    value plus the queue-dependent constant. Reported, never enforced.
    """

    lhs: float
    rhs: float
    target_value: float
    satisfied: bool
    skipped: bool = False


def theorem1_report(
    delivered_per_slot: Sequence[float],
    queue_histories: Mapping[int, Sequence[float]],
    lam: float,
    cap_J: float,
    target_value: float | None = None,
) -> TheoremDiagnostic:
    """Compare the run's mean delivered energy against its theoretical bound.

    The bound is target + (1 / (2 lam)) * (sum of mean queue values - cap)^2.
    With lam == 0 the bound is undefined and the diagnostic is skipped.
    The default target is the run's own time-average demand, supplied by
    the caller via target_value.
    """
    if not delivered_per_slot:
        raise ValueError("need at least one slot of history")
    return theorem1_diagnostic(
        left_sum(delivered_per_slot) / len(delivered_per_slot),
        (left_sum(history) / len(history) for history in queue_histories.values() if history),
        lam,
        cap_J,
        0.0 if target_value is None else target_value,
    )


def theorem1_diagnostic(
    mean_delivered_J: float,
    mean_queues_J: Iterable[float],
    lam: float,
    cap_J: float,
    target_value: float = 0.0,
) -> TheoremDiagnostic:
    """theorem1_report from the run's means, which a streamed run keeps as running sums."""
    if lam == 0.0:
        return TheoremDiagnostic(
            lhs=mean_delivered_J, rhs=float("nan"), target_value=target_value,
            satisfied=False, skipped=True,
        )
    rhs = target_value + (left_sum(mean_queues_J) - cap_J) ** 2 / (2.0 * lam)
    return TheoremDiagnostic(
        lhs=mean_delivered_J, rhs=rhs, target_value=target_value, satisfied=mean_delivered_J <= rhs,
    )
