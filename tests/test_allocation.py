"""Allocation policies: source eligibility, drift-plus-penalty, benchmarks."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgsim import allocation
from ppgsim.allocation import (
    AllocationDecision,
    VirtualQueues,
    allocate_slot,
    consumer_order,
    lyapunov_pick,
    p2_score,
    queue_update,
    ring_ids,
    theorem1_report,
)
from ppgsim.errors import ConfigError
from ppgsim.topology import PpgGrid, loss_model_for

GRID = PpgGrid()
LOSS = loss_model_for(GRID, 100e3, 5.0)
FRACTION = LOSS.delivered_fraction


def deliverable(source, available, hops_to, fraction_of):
    """Energy the source can land at the consumer: surplus net of route losses."""
    return available[source] * fraction_of(hops_to[source])


def pick(available, hops_to, demand):
    return lyapunov_pick(9, demand, available, hops_to, FRACTION, 0.0, 0.0, 1.0)


class TestEligibleSources:
    """Which sources lyapunov_pick considers, and in which order."""

    def test_split_and_sort_by_hops(self):
        # both cover the demand; the nearer one wins
        assert pick({1: 50e3, 2: 30e3}, {1: 2, 2: 1}, 27e3).source_id == 2

    def test_loss_adjusted_split(self):
        # 28 kJ at two hops only lands ~26.2 kJ, below a 27 kJ demand, so
        # the farther source that still lands ~27.2 kJ is preferred
        available = {1: 28e3, 2: 30e3}
        hops_to = {1: 2, 2: 3}
        assert deliverable(1, available, hops_to, FRACTION) < 27e3
        picked = pick(available, hops_to, 27e3)
        assert picked.source_id == 2
        assert not picked.shortfall

    def test_empty(self):
        assert pick({}, {}, 1.0) is None

    def test_tie_broken_by_id(self):
        assert pick({7: 40e3, 3: 40e3}, {7: 2, 3: 2}, 10e3).source_id == 3

    def test_zero_surplus_dropped(self):
        assert pick({1: 0.0}, {1: 1}, 10e3) is None
        assert pick({1: 0.0, 2: 5e3}, {1: 1, 2: 3}, 10e3).source_id == 2


class TestQueueUpdate:
    def test_overflow(self):
        assert queue_update(480e3, 20e3, 490e3) == pytest.approx(10e3)

    def test_zero_state(self):
        assert queue_update(0.0, 0.0, 490e3) == 0.0

    def test_floors_at_zero(self):
        assert queue_update(100e3, 50e3, 490e3) == 0.0

    def test_never_negative_fuzzed(self):
        rng = random.Random(9)
        for _ in range(2000):
            q = rng.uniform(0, 600e3)
            v = rng.uniform(0, 200e3)
            cap = rng.uniform(0, 600e3)
            assert queue_update(q, v, cap) >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            queue_update(-1.0, 0.0, 490e3)


class TestP2Score:
    def test_both_terms(self):
        assert p2_score(10.0, 5.0, 1.0, 20.0) == 70.0

    def test_zero_weight_disables_penalty(self):
        assert p2_score(10.0, 5.0, 0.0, 20.0) == 50.0

    def test_empty_queue_leaves_penalty(self):
        assert p2_score(0.0, 5.0, 1.0, 20.0) == 20.0

    def test_scaling_weight_preserves_argmin(self):
        # with equal drift terms the comparison is invariant to the weight
        rng = random.Random(21)
        for _ in range(200):
            q, c = rng.uniform(0, 1e5), rng.uniform(0, 1e5)
            d1, d2 = rng.uniform(0, 1e5), rng.uniform(0, 1e5)
            lam = rng.uniform(1e-3, 10.0)
            k = rng.uniform(1e-3, 100.0)
            base = p2_score(q, c, lam, d1) < p2_score(q, c, lam, d2)
            scaled = p2_score(q, c, lam * k, d1) < p2_score(q, c, lam * k, d2)
            assert base == scaled


class TestLyapunovPick:
    def test_grosses_up_for_losses(self):
        available = {1: 50e3, 2: 30e3}
        hops_to = {1: 2, 2: 1}
        picked = lyapunov_pick(9, 27e3, available, hops_to, FRACTION, 0.0, 0.0, 1.0)
        assert picked.source_id == 2
        assert picked.hops == 1
        assert picked.gross_J == pytest.approx(27e3 / FRACTION(1))
        assert picked.delivered_J == pytest.approx(27e3)
        assert not picked.shortfall

    def test_falls_back_to_inadequate_set(self):
        available = {4: 10e3}
        hops_to = {4: 1}
        picked = lyapunov_pick(9, 27e3, available, hops_to, FRACTION, 0.0, 0.0, 1.0)
        assert picked.shortfall
        assert picked.gross_J == 10e3
        assert picked.delivered_J == pytest.approx(10e3 * FRACTION(1))

    def test_no_sources(self):
        assert lyapunov_pick(9, 27e3, {}, {}, FRACTION, 0.0, 0.0, 1.0) is None

    def test_min_hop_matches_brute_force(self):
        rng = random.Random(33)
        for _ in range(300):
            n_sources = rng.randint(1, 10)
            available = {i: rng.uniform(1e3, 150e3) for i in range(n_sources)}
            hops_to = {i: rng.randint(1, 8) for i in range(n_sources)}
            demand = rng.uniform(1e3, 120e3)
            picked = lyapunov_pick(99, demand, available, hops_to, FRACTION, 0.0, 0.0, 1.0)
            adequate = [s for s in available if deliverable(s, available, hops_to, FRACTION) >= demand]
            if adequate:
                assert picked.source_id in adequate
                assert hops_to[picked.source_id] == min(hops_to[s] for s in adequate)
            else:
                assert picked.shortfall

    def test_weight_does_not_change_unique_min_hop_choice(self):
        available = {1: 60e3, 2: 80e3}
        hops_to = {1: 1, 2: 3}
        picks = {
            lam: lyapunov_pick(9, 20e3, available, hops_to, FRACTION, 0.0, 0.0, lam).source_id
            for lam in (0.0, 1.0, 7.5)
        }
        assert set(picks.values()) == {1}

    @pytest.mark.parametrize("queue, consumption", [(5e3, 10e3), (1.0, math.nan), (math.inf, 0.0)])
    def test_drift_other_than_zero_rejected(self, queue, consumption):
        # in a run every virtual queue stays 0, so the pick has no drift term to add
        with pytest.raises(ValueError, match="drift term must be 0"):
            lyapunov_pick(9, 20e3, {1: 60e3}, {1: 1}, FRACTION, queue, consumption, 1.0)

    def test_empty_queue_with_any_consumption_accepted(self):
        assert lyapunov_pick(9, 20e3, {1: 60e3}, {1: 1}, FRACTION, 0.0, 10e3, 1.0).source_id == 1


class TestLyapunovAllocate:
    def test_priority_consumers_first(self):
        demands = {3: 10e3, 8: 10e3, 1: 10e3}
        order = consumer_order(demands, priority=frozenset({8}))
        assert order == [8, 1, 3]

    def test_source_debited_across_consumers(self):
        demands = {1: 20e3, 2: 20e3}
        surpluses = {0: 25e3}
        decisions, outages = allocate_slot(
            "lyapunov", demands, frozenset(), surpluses, (1, 3), FRACTION, 1.0, random.Random(1)
        )
        total_gross = sum(d.gross_J for d in decisions if d.source_id == 0)
        assert total_gross <= 25e3 + 1e-9
        assert len(decisions) == 2
        # second consumer sees the debited availability and takes what is left
        assert decisions[1].shortfall

    def test_outage_when_no_source(self):
        decisions, outages = allocate_slot(
            "lyapunov", {5: 10e3}, frozenset(), {}, (1, 6), FRACTION, 1.0, random.Random(1)
        )
        assert decisions == []
        assert outages == [5]


def benchmark_pick(policy, consumer, demand_J, available, seed=1, shape=(4, 6)):
    """The policy's pick for one consumer on the lattice, checked against oracle_pick."""
    picked = allocation.PICKS[policy](shape, FRACTION, 1.0, random.Random(seed))(
        consumer, demand_J, available
    )
    cols = shape[1]
    hops_to = {s: abs(s // cols - consumer // cols) + abs(s % cols - consumer % cols) for s in available}
    oracle = oracle_pick(policy, consumer, demand_J, available, hops_to, 1.0, random.Random(seed))
    assert picked == oracle
    return picked


# on the 4x6 lattice, station 9 sits at (1, 3): 3, 8, 10 and 15 are one hop
# away, 2, 4, 7, 11, 14, 16 and 21 two hops, 20 three hops


class TestRadial:
    def test_ring_one_beats_ring_two(self):
        picked = benchmark_pick("radial", 9, 10e3, {10: 50e3, 4: 50e3})
        assert picked.source_id == 10

    def test_ring_two_when_ring_one_empty(self):
        picked = benchmark_pick("radial", 9, 10e3, {21: 50e3})
        assert picked.source_id == 21
        assert picked.hops == 2

    def test_stops_after_two_rings(self):
        assert benchmark_pick("radial", 9, 10e3, {20: 50e3}) is None

    def test_lowest_id_wins_within_ring(self):
        assert benchmark_pick("radial", 9, 10e3, {15: 50e3, 3: 5e3}).source_id == 3

    def test_caps_at_surplus(self):
        picked = benchmark_pick("radial", 9, 10e3, {10: 5e3})
        assert picked.gross_J == 5e3
        assert picked.shortfall


class TestRandom:
    def test_single_source(self):
        picked = benchmark_pick("random", 9, 10e3, {20: 50e3})
        assert picked.source_id == 20
        assert picked.hops == 3

    def test_empty(self):
        assert benchmark_pick("random", 9, 10e3, {}) is None

    def test_seeded_reproducibility(self):
        available = {i: 50e3 for i in range(6)}
        picks = [benchmark_pick("random", 9, 10e3, available, seed=77).source_id for _ in range(2)]
        assert picks[0] == picks[1]


class TestSlotDrivers:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="'greedy'"):
            allocate_slot("greedy", {}, frozenset(), {}, (1, 2), FRACTION, 1.0, random.Random(1))

    @pytest.mark.parametrize("policy", allocation.POLICIES)
    def test_quiet_slot_returns_nothing_and_draws_nothing(self, policy):
        # sources with surplus and served stations, but no consumer
        rng = random.Random(5)
        state = rng.getstate()
        surpluses = {0: 50_000.0, 7: 20_000.0, 23: 1.0}
        result = allocate_slot(
            policy, {}, frozenset({0, 7}), surpluses, (4, 6), FRACTION, 1.0, rng
        )
        assert result == ([], [])
        assert rng.getstate() == state

    def test_quiet_slot_still_rejects_a_negative_weight(self):
        with pytest.raises(ValueError, match="control weight"):
            allocate_slot(
                "lyapunov", {}, frozenset(), {0: 1.0}, (4, 6), FRACTION, -1.0, random.Random(1)
            )


# The sort-based slot drivers that the ring search replaced, kept as the
# oracle: every source's hop count is computed, sources are sorted by
# (hops, id), and spent sources stay in the map with a surplus of <= 0.


def oracle_eligible_sources(available, hops_to, fraction_of, demand_J):
    order = sorted((s for s in available if available[s] > 0.0), key=lambda s: (hops_to[s], s))
    set_ge = [s for s in order if deliverable(s, available, hops_to, fraction_of) >= demand_J]
    set_lt = [s for s in order if deliverable(s, available, hops_to, fraction_of) < demand_J]
    return set_ge, set_lt


def oracle_decision_for(source, consumer, available, hops, fraction_of, demand_J):
    fraction = fraction_of(hops)
    gross = min(demand_J / fraction, available[source])
    return AllocationDecision(
        source, consumer, gross, fraction, hops, shortfall=available[source] * fraction < demand_J
    )


def oracle_lyapunov_pick(consumer, demand_J, available, hops_to, fraction_of, lam):
    set_ge, set_lt = oracle_eligible_sources(available, hops_to, fraction_of, demand_J)
    pool = set_ge if set_ge else set_lt
    if not pool:
        return None
    best_hops = hops_to[pool[0]]
    best = None
    best_score = float("inf")
    for s in pool:
        if hops_to[s] != best_hops:
            break
        if set_ge:
            candidate = oracle_decision_for(s, consumer, available, best_hops, fraction_of, demand_J)
        else:
            fraction = fraction_of(best_hops)
            candidate = AllocationDecision(s, consumer, available[s], fraction, best_hops, shortfall=True)
        # the drift-plus-penalty score with the drift term at 0, its only value in a run
        score = p2_score(0.0, 0.0, lam, candidate.delivered_J)
        if score < best_score:
            best, best_score = candidate, score
    return best


def oracle_pick(policy, consumer, demand_J, available, hops_to, lam, rng):
    if policy == "lyapunov":
        return oracle_lyapunov_pick(consumer, demand_J, available, hops_to, FRACTION, lam)
    if policy == "radial":
        for ring in (1, 2):
            hits = sorted(s for s in available if available[s] > 0.0 and hops_to[s] == ring)
            if hits:
                return oracle_decision_for(hits[0], consumer, available, ring, FRACTION, demand_J)
        return None
    pool = sorted(s for s in available if available[s] > 0.0)
    if not pool:
        return None
    source = rng.choice(pool)
    return oracle_decision_for(source, consumer, available, hops_to[source], FRACTION, demand_J)


def oracle_allocate(policy, demands, priority, surpluses, shape, lam, rng):
    cols = shape[1]

    def hops(a, b):
        return abs(a // cols - b // cols) + abs(a % cols - b % cols)

    available = dict(surpluses)
    decisions, outages = [], []
    for consumer in consumer_order(demands, priority):
        hops_to = {s: hops(s, consumer) for s in available}
        picked = oracle_pick(policy, consumer, demands[consumer], available, hops_to, lam, rng)
        if picked is None:
            outages.append(consumer)
            continue
        available[picked.source_id] -= picked.gross_J
        decisions.append(picked)
    return decisions, outages


# a few round amounts make exact ties between equally near sources likely
AMOUNTS = st.sampled_from([0.0, 2e3, 10e3, 20e3, 27e3, 40e3]) | st.floats(1.0, 60e3)


@st.composite
def slots(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(2, 9))
    n = rows * cols
    roles = draw(st.lists(st.sampled_from("csn"), min_size=n, max_size=n))
    consumers = [i for i, r in enumerate(roles) if r == "c"]
    sources = [i for i, r in enumerate(roles) if r == "s"]
    k = len(consumers)

    def amounts(size, positive=False):
        element = AMOUNTS.filter(lambda a: a > 0.0) if positive else AMOUNTS
        return draw(st.lists(element, min_size=size, max_size=size))

    demands = dict(zip(consumers, amounts(k, positive=True)))
    surpluses = dict(zip(sources, amounts(len(sources))))
    priority = frozenset(draw(st.sets(st.sampled_from(consumers)))) if consumers else frozenset()
    lam = draw(st.sampled_from([0.0, 1.0, 1e3]))
    return (demands, priority, surpluses, (rows, cols), lam)


def run_both(policy, slot, seed=0):
    demands, priority, surpluses, shape, lam = slot
    new = allocate_slot(policy, demands, priority, surpluses, shape, FRACTION, lam, random.Random(seed))
    old = oracle_allocate(policy, demands, priority, surpluses, shape, lam, random.Random(seed))
    return new, old


class TestMatchesSortedScan:
    """The ring search decides exactly what a sorted scan of every source decides."""

    @settings(max_examples=300, deadline=None)
    @given(slots())
    def test_lyapunov(self, slot):
        new, old = run_both("lyapunov", slot)
        assert new == old

    @settings(max_examples=100, deadline=None)
    @given(slots(), st.sampled_from(["radial", "random"]), st.integers(0, 5))
    def test_benchmarks(self, slot, policy, seed):
        new, old = run_both(policy, slot, seed)
        assert new == old

    def test_shortfall_fallback(self):
        # no source can cover 50 kJ: the nearest one gives everything it has,
        # although a larger source sits farther out
        slot = ({0: 50e3}, frozenset(), {2: 20e3, 11: 40e3}, (2, 6), 1.0)
        (decisions, outages), old = run_both("lyapunov", slot)
        assert (decisions, outages) == old
        assert [(d.source_id, d.shortfall) for d in decisions] == [(2, True)]

    def test_outages_once_sources_are_spent(self):
        slot = ({0: 30e3, 5: 30e3, 7: 30e3}, frozenset({7}), {3: 20e3}, (2, 4), 1.0)
        (decisions, outages), old = run_both("lyapunov", slot)
        assert (decisions, outages) == old
        assert [d.consumer_id for d in decisions] == [7]
        assert outages == [0, 5]

    def test_score_breaks_tie_at_equal_hops(self):
        # two inadequate sources one hop away: the smaller delivery scores lower
        slot = ({5: 50e3}, frozenset(), {4: 30e3, 6: 20e3}, (1, 8), 1e3)
        (decisions, _), old = run_both("lyapunov", slot)
        assert decisions == old[0]
        assert decisions[0].source_id == 6


class TestRingSearch:
    @given(st.integers(1, 8), st.integers(1, 9), st.data())
    def test_rings_are_lattice_distances(self, rows, cols, data):
        station = data.draw(st.integers(0, rows * cols - 1))
        d = data.draw(st.integers(0, rows + cols))
        expected = sorted(
            s for s in range(rows * cols)
            if abs(s // cols - station // cols) + abs(s % cols - station % cols) == d
        )
        assert sorted(ring_ids(station, d, (rows, cols))) == expected

    def test_stops_after_first_adequate_ring(self):
        available = {1: 5e3, 10: 50e3, 3: 50e3, 40: 50e3}
        # consumer 0 on a 5x10 lattice: 1 is ring 1, 10 is ring 1, 3 is ring 3
        walked, decisions = walk(0, 20e3, available, (5, 10))
        assert walked == [1]
        assert [d.source_id for d in decisions] == [10]

    def test_stops_when_nothing_farther_can_cover(self):
        available = {1: 5e3, 3: 6e3, 49: 7e3}
        walked, decisions = walk(0, 20e3, available, (5, 10))
        assert walked == [1]
        assert [(d.source_id, d.shortfall) for d in decisions] == [(1, True)]

    def test_walks_out_to_a_far_adequate_source(self):
        available = {1: 5e3, 49: 50e3}
        walked, decisions = walk(0, 20e3, available, (5, 10))
        assert walked == list(range(1, 14))
        assert [d.source_id for d in decisions] == [49]


# up to 20x30: a large amount still covers a demand 48 hops away
FAR_AMOUNTS = AMOUNTS | st.floats(1.0, 300e3)


@st.composite
def sparse_slots(draw):
    """Slots on lattices up to 20x30 with a few live sources, so far walks read them."""
    rows = draw(st.integers(1, 20))
    cols = draw(st.integers(2 if rows == 1 else 1, 30))
    stations = draw(st.lists(st.integers(0, rows * cols - 1), unique=True, min_size=2, max_size=12))
    k = draw(st.integers(1, len(stations) - 1))
    consumers, sources = stations[:k], stations[k:]
    demands = {c: draw(FAR_AMOUNTS.filter(lambda a: a > 0.0)) for c in consumers}
    surpluses = {s: draw(FAR_AMOUNTS) for s in sources}
    priority = frozenset(draw(st.sets(st.sampled_from(consumers))))
    lam = draw(st.sampled_from([0.0, 1.0, 1e3]))
    return (demands, priority, surpluses, (rows, cols), lam)


def lattice_rings(slot):
    """The rings allocate_slot's lyapunov picks read from the lattice (ring_ids), and its result."""
    read = []

    def recording(station, d, shape):
        read.append(d)
        return ring_ids(station, d, shape)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocation, "ring_ids", recording)
        new, old = run_both("lyapunov", slot)
    assert new == old
    return read, new


class TestFarWalk:
    """From ring 3 on, a walk whose ring could hold more ids than there are live sources reads those."""

    def test_live_rings_bucket_by_lattice_distance(self):
        # consumer 31 sits at (1, 1) on a 20x30 lattice: 32 is one hop away,
        # 0 and 2 two hops, 63 and 121 three, and 599 in the far corner 46
        available = dict.fromkeys([0, 2, 32, 63, 121, 599], 1.0)
        assert allocation.live_rings(31, available, 30, 2) == {2: [0, 2], 3: [63, 121], 46: [599]}
        assert allocation.live_rings(31, available, 30, 3) == {3: [63, 121], 46: [599]}

    def test_far_corner_source(self):
        slot = ({0: 20e3}, frozenset(), {599: 500e3}, (20, 30), 1.0)
        walked, _ = walks_and_decisions(slot)
        # every ring is walked, though rings 3 to 47 come from empty buckets
        assert walked == [(0, d) for d in range(1, 49)]
        read, (decisions, outages) = lattice_rings(slot)
        assert read == [1, 2]
        assert [(d.source_id, d.hops, d.shortfall) for d in decisions] == [(599, 48, False)]
        assert outages == []

    @pytest.mark.parametrize("n, first_live", [(1, 3), (12, 3), (13, 4), (30, 8)])
    def test_switch_ring(self, n, first_live):
        # n sources on the last row, 19 to 48 hops from consumer 0; the
        # nearest, 570, covers the demand
        slot = ({0: 20e3}, frozenset(), {570 + i: 500e3 for i in range(n)}, (20, 30), 1.0)
        walked, _ = walks_and_decisions(slot)
        assert walked == [(0, d) for d in range(1, 20)]
        read, (decisions, _) = lattice_rings(slot)
        assert read == list(range(1, first_live))
        assert [d.source_id for d in decisions] == [570]

    @settings(max_examples=300, deadline=None)
    @given(sparse_slots())
    def test_lyapunov_matches_sorted_scan(self, slot):
        new, old = run_both("lyapunov", slot)
        assert new == old

    @settings(max_examples=100, deadline=None)
    @given(sparse_slots())
    def test_walks_stop_where_a_fresh_maximum_stops_them(self, slot):
        walked, _ = walks_and_decisions(slot)
        assert walked == oracle_walks(slot)


def walk(consumer, demand_J, surpluses, shape):
    """Rings the lyapunov pick walked for a lone consumer, and the slot's decisions."""
    slot = ({consumer: demand_J}, frozenset(), surpluses, shape, 1.0)
    walked, decisions = walks_and_decisions(slot)
    return [d for _, d in walked], decisions


class ReadRings(dict):
    """live_rings' buckets, recording each ring the pick reads from them."""

    def __init__(self, consumer, rings, walked):
        super().__init__(rings)
        self.consumer, self.walked = consumer, walked

    def get(self, d, default=None):
        self.walked.append((self.consumer, d))
        return super().get(d, default)


def walks_and_decisions(slot, slot_max=max):
    """The (consumer, ring) pairs allocate_slot's lyapunov picks walked, in order, and its decisions.

    A walked ring is read either from the lattice (ring_ids) or, on a far
    walk, from the live sources' buckets (live_rings). slot_max stands in
    for the builtin max that the pick takes the slot's largest surplus with.
    """
    demands, priority, surpluses, shape, lam = slot
    walked = []
    live_rings = allocation.live_rings

    def recording(station, d, shape):
        walked.append((station, d))
        return ring_ids(station, d, shape)

    def recording_live(consumer, available, cols, nearest):
        return ReadRings(consumer, live_rings(consumer, available, cols, nearest), walked)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocation, "ring_ids", recording)
        patch.setattr(allocation, "live_rings", recording_live)
        patch.setattr(allocation, "max", slot_max, raising=False)
        decisions, _ = allocate_slot(
            "lyapunov", demands, priority, surpluses, shape, FRACTION, lam, random.Random(0)
        )
    return walked, decisions


# The ring walk as it was before the search and the pick were fused, kept as
# the oracle of where a walk stops: it takes the largest surplus afresh for
# every consumer.


def oracle_rings(consumer, demand_J, available, shape):
    rows, cols = shape
    walked, found, top = [], {}, None
    for d in range(1, rows + cols - 1):
        fraction = FRACTION(d)
        if found:
            if top is None:
                top = max(available.values())
            if top * fraction < demand_J:
                break
        walked.append((consumer, d))
        adequate = False
        for s in ring_ids(consumer, d, shape):
            if s in available:
                found[s] = d
                adequate = adequate or available[s] * fraction >= demand_J
        if adequate or len(found) == len(available):
            break
    return walked


def oracle_walks(slot):
    """Every ring the slot's consumers walk when each takes the largest surplus afresh."""
    demands, priority, surpluses, shape, lam = slot
    decisions, _ = oracle_allocate("lyapunov", demands, priority, surpluses, shape, lam, None)
    picked = {d.consumer_id: d for d in decisions}
    available = {s: a for s, a in surpluses.items() if a > 0.0}
    walked = []
    for consumer in consumer_order(demands, priority):
        if not available:
            continue
        walked += oracle_rings(consumer, demands[consumer], available, shape)
        d = picked[consumer]
        left = available[d.source_id] - d.gross_J
        if left > 0.0:
            available[d.source_id] = left
        else:
            del available[d.source_id]
    return walked


def stale_max():
    """A planted fault: the slot's first maximum is answered for the rest of the slot."""
    first = []

    def answer(*args):
        if len(args) > 1:  # ring_ids' own max(a, b)
            return max(*args)
        if not first:
            first.append(max(*args))
        return first[0]

    return answer


class TestLazyTopSurplus:
    """The pick keeps the slot's largest surplus between consumers; it must never go stale."""

    @settings(max_examples=200, deadline=None)
    @given(slots())
    def test_walks_stop_where_a_fresh_maximum_stops_them(self, slot):
        walked, _ = walks_and_decisions(slot)
        assert walked == oracle_walks(slot)

    def test_stale_top_is_caught(self):
        # consumer 6 drains the big source at 7; consumer 0 then finds the
        # small one at 3, and only a fresh maximum stops its walk there
        slot = ({6: 99e3, 0: 20e3}, frozenset({6}), {7: 100e3, 3: 5e3}, (1, 8), 1.0)
        walked, decisions = walks_and_decisions(slot)
        assert walked == oracle_walks(slot) == [(6, 1), (0, 1), (0, 2), (0, 3)]
        stale_walked, stale_decisions = walks_and_decisions(slot, stale_max())
        # a stale top changes no decision, so only the walk shows it
        assert stale_decisions == decisions
        assert stale_walked != oracle_walks(slot)
        assert stale_walked[-1] == (0, 7)


def bits(x):
    return struct.pack("<d", x)


class TestVirtualQueues:
    def test_starts_at_zero_and_advances(self):
        q = VirtualQueues(3)
        assert q.values == [0.0, 0.0, 0.0]
        q.advance(1, 500e3, 490e3)
        assert q.values == [0.0, pytest.approx(10e3), 0.0]

    def test_signed_zero_queue_kept(self):
        # max(-0.0, 0.0) returns its first argument, so a -0.0 queue stays -0.0
        q = VirtualQueues(1)
        q.values[0] = -0.0
        q.advance(0, -0.0, 0.0)
        assert bits(q.values[0]) == bits(-0.0) == bits(queue_update(-0.0, -0.0, 0.0))

    def test_in_place_write_between_advances_is_honoured(self):
        # values is the queues' only state: a write into the list between
        # two advances counts in the next
        for value in (-0.0, 5e-324, 1.0, math.nan, math.inf):
            q = VirtualQueues(4)
            q.advance(2, 0.0, 1.0)
            q.values[2] = value
            q.advance(2, 0.5, 1.0)
            assert bits(q.values[2]) == bits(queue_update(value, 0.5, 1.0))


class TestTheoremDiagnostic:
    def test_zero_penalty(self):
        report = theorem1_report([0.0, 0.0], {0: [0.0, 0.0]}, 1.0, 490e3, target_value=0.0)
        assert report.lhs == 0.0
        assert report.satisfied

    def test_arithmetic_mean(self):
        report = theorem1_report([10.0, 20.0], {0: [0.0, 0.0]}, 1.0, 490e3, target_value=15.0)
        assert report.lhs == pytest.approx(15.0)

    def test_zero_weight_skipped(self):
        report = theorem1_report([10.0], {0: [0.0]}, 0.0, 490e3, target_value=0.0)
        assert report.skipped

    def test_bound_value(self):
        report = theorem1_report([10.0], {0: [5.0], 1: [15.0]}, 2.0, 100.0, target_value=3.0)
        assert report.rhs == pytest.approx(3.0 + (20.0 - 100.0) ** 2 / 4.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            theorem1_report([], {}, 1.0, 490e3)


def test_decision_validates_inputs():
    with pytest.raises(ValueError):
        AllocationDecision(0, 1, 0.0, 0.9, 1)
    with pytest.raises(ValueError):
        AllocationDecision(0, 1, 10.0, 1.5, 1)
    with pytest.raises(ValueError):
        AllocationDecision(0, 1, 10.0, 0.9, -1)


@pytest.mark.parametrize("gross", [math.nan, math.inf, -math.inf])
def test_decision_rejects_non_finite_gross(gross):
    with pytest.raises(ValueError, match="gross_J must be positive"):
        AllocationDecision(0, 1, gross, 0.5, 1)


@pytest.mark.parametrize(
    "gross, fraction, hops, message",
    [
        (0.0, 0.5, 1, r"gross_J must be positive and finite, got 0\.0"),
        (-0.0, 0.5, 1, r"gross_J must be positive and finite, got -0\.0"),
        (10.0, 0.0, 1, r"fraction must be in \(0, 1\], got 0\.0"),
        (10.0, math.nextafter(1.0, 2.0), 1, r"fraction must be in \(0, 1\], got 1\.0000000000000002"),
        (10.0, math.nan, 1, r"fraction must be in \(0, 1\], got nan"),
        (10.0, 0.5, -1, "hop count cannot be negative"),
    ],
)
def test_decision_names_the_field_it_rejects(gross, fraction, hops, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AllocationDecision(0, 1, gross, fraction, hops)


def test_decision_accepts_each_bound():
    assert AllocationDecision(0, 0, 5e-324, 1.0, 0).delivered_J == 5e-324


class TestDecisionRecord:
    def test_repr_names_every_field(self):
        decision = AllocationDecision(3, 7, 12.5, 0.875, 2, shortfall=True)
        assert repr(decision) == (
            "AllocationDecision(source_id=3, consumer_id=7, gross_J=12.5, fraction=0.875, "
            "hops=2, shortfall=True)"
        )
        assert decision.delivered_J == 12.5 * 0.875

    def test_keywords_and_default_shortfall(self):
        decision = AllocationDecision(source_id=3, consumer_id=7, gross_J=12.5, fraction=0.875, hops=2)
        assert decision == AllocationDecision(3, 7, 12.5, 0.875, 2, False)
        assert decision.shortfall is False

    def test_equal_decisions_hash_equal(self):
        a, b = AllocationDecision(0, 1, 10.0, 0.9, 1), AllocationDecision(0, 1, 10.0, 0.9, 1)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, AllocationDecision(0, 1, 10.0, 0.9, 1, True)}) == 2

    def test_replace_and_make_are_checked(self):
        decision = AllocationDecision(0, 1, 10.0, 0.9, 1)
        assert decision._replace(hops=2) == AllocationDecision(0, 1, 10.0, 0.9, 2)
        assert type(decision._replace(hops=2)) is AllocationDecision
        with pytest.raises(ValueError, match="gross_J must be positive"):
            decision._replace(gross_J=math.nan)
        with pytest.raises(ValueError, match="hop count cannot be negative"):
            AllocationDecision._make((0, 1, 10.0, 0.9, -1, False))

    @pytest.mark.parametrize("name", ["source_id", "gross_J", "shortfall", "extra"])
    def test_assigning_an_attribute_raises(self, name):
        decision = AllocationDecision(0, 1, 10.0, 0.9, 1)
        with pytest.raises(AttributeError):
            setattr(decision, name, 2)
        assert decision == AllocationDecision(0, 1, 10.0, 0.9, 1)
