"""Transfer execution: mini-slot scheduling, occupancy, and bookkeeping."""

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgsim.allocation import AllocationDecision
from ppgsim.engine import run
from ppgsim.errors import ConfigError
from ppgsim.topology import PpgGrid, loss_model_for
from ppgsim.transfer import (
    LinkGrant,
    SlotTransfers,
    TransferJob,
    _earliest_start,
    execute_transfers,
    job_grants,
    link_occupancy,
    mini_slot_count,
)

FRACTION = loss_model_for(PpgGrid(), 100e3, 5.0).delivered_fraction


def run_transfers(decisions, positions, grid=None):
    grid = grid or PpgGrid()
    return execute_transfers(
        decisions,
        grid,
        positions,
        n_stations=len(positions),
        mini_slot_duration_s=5.0,
        processing_delay_s=2.0,
        phi_max_J=100e3,
        deadline_s=60.0,
    )


class TestMiniSlotCount:
    def test_ceiling(self):
        assert mini_slot_count(250e3, 100e3) == 3

    def test_exact_boundary(self):
        assert mini_slot_count(100e3, 100e3) == 1

    def test_zero_energy(self):
        assert mini_slot_count(0.0, 100e3) == 0

    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            mini_slot_count(1.0, 0.0)

    def test_negative_energy(self):
        with pytest.raises(ValueError):
            mini_slot_count(-1.0, 100e3)


class TestLinkOccupancy:
    def test_three_mini_slots(self):
        assert link_occupancy(3, 5.0, 2.0) == 17.0

    def test_largest_feasible(self):
        assert link_occupancy(11, 5.0, 2.0) == 57.0

    def test_first_infeasible(self):
        assert link_occupancy(12, 5.0, 2.0) == 62.0


class TestExecuteTransfers:
    def test_single_job_bookkeeping(self):
        positions = {0: (0, 0), 1: (0, 1)}
        d = AllocationDecision(0, 1, 27e3 / FRACTION(1), FRACTION(1), 1)
        outcome = run_transfers([d], positions)
        assert outcome.flow_J[1] == pytest.approx(27e3)
        assert outcome.flow_J[0] == pytest.approx(-27e3 / FRACTION(1))
        job = outcome.jobs[0]
        assert job.mini_slots == 1
        assert job.start_mini_slot == 0
        assert job.occupancy_s == 7.0
        assert not job.overrun

    def test_tdm_serialization_on_shared_link(self):
        positions = {0: (0, 0), 1: (0, 1), 2: (0, 2)}
        # both routes traverse the (0,1)-(0,2) link
        d1 = AllocationDecision(0, 2, 50e3, FRACTION(2), 2)
        d2 = AllocationDecision(1, 2, 50e3, FRACTION(1), 1)
        outcome = run_transfers([d1, d2], positions)
        first, second = outcome.jobs
        assert first.start_mini_slot == 0
        assert second.start_mini_slot == 1

    def test_disjoint_routes_run_in_parallel(self):
        positions = {0: (0, 0), 1: (0, 1), 2: (2, 0), 3: (2, 1)}
        d1 = AllocationDecision(0, 1, 50e3, FRACTION(1), 1)
        d2 = AllocationDecision(2, 3, 50e3, FRACTION(1), 1)
        outcome = run_transfers([d1, d2], positions)
        assert [j.start_mini_slot for j in outcome.jobs] == [0, 0]

    def test_no_jobs(self):
        outcome = run_transfers([], {})
        assert outcome == SlotTransfers([], [], [], [], 0)

    def test_overrun_flagged_but_completed(self):
        positions = {0: (0, 0), 1: (0, 1)}
        # 1.25 MJ needs 13 mini-slots: 13*5 + 2 = 67 s > 60 s
        d = AllocationDecision(0, 1, 1.25e6 / FRACTION(1), FRACTION(1), 1)
        outcome = run_transfers([d], positions)
        job = outcome.jobs[0]
        assert job.overrun
        assert job.mini_slots == 13
        assert outcome.flow_J[1] == pytest.approx(1.25e6)
        assert outcome.n_overruns == 1

    def test_contention_pushes_job_into_overrun(self):
        positions = {0: (0, 0), 1: (0, 1)}
        # twelve one-mini-slot jobs fill the slot; the thirteenth spills over
        decisions = [
            AllocationDecision(0, 1, 90e3 / FRACTION(1), FRACTION(1), 1) for _ in range(13)
        ]
        outcome = run_transfers(decisions, positions)
        assert [j.overrun for j in outcome.jobs] == [False] * 11 + [True, True]
        assert outcome.jobs[-1].start_mini_slot == 12
        assert outcome.n_overruns == 2

    def test_conservation_with_losses(self):
        positions = {0: (0, 0), 1: (0, 5), 2: (3, 0), 3: (1, 1)}
        decisions = [
            AllocationDecision(0, 3, 40e3, FRACTION(1), 1),
            AllocationDecision(2, 3, 30e3, FRACTION(3), 3),
            AllocationDecision(0, 1, 20e3, FRACTION(5), 5),
        ]
        outcome = run_transfers(decisions, positions)
        expected = sum(d.gross_J * d.fraction for d in decisions)
        received = outcome.flow_J[3] + outcome.flow_J[1]
        assert received == pytest.approx(expected, rel=1e-12)
        assert outcome.delivered_J[3] + outcome.delivered_J[1] == received
        assert sum(outcome.flow_J) <= 0.0

    def test_no_link_carries_two_jobs_in_same_mini_slot(self):
        positions = {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (1, 1)}
        decisions = [
            AllocationDecision(0, 2, 150e3, FRACTION(2), 2),
            AllocationDecision(1, 2, 150e3, FRACTION(1), 1),
            AllocationDecision(3, 2, 150e3, FRACTION(2), 2),
        ]
        outcome = run_transfers(decisions, positions)
        seen: dict[tuple, list[tuple[int, int]]] = {}
        for grant in (grant for job in outcome.jobs for grant in job_grants(0, job)):
            for other_start, other_end in seen.get(grant.link, []):
                assert not (grant.start_mini_slot < other_end and other_start < grant.end_mini_slot)
            seen.setdefault(grant.link, []).append((grant.start_mini_slot, grant.end_mini_slot))


def jump_search_start(reservations, route, length):
    """Earliest start by jumping past overlapping reservations (the list-based search)."""
    start = 0
    while True:
        conflict_end = None
        for key in route.links():
            for s, e in reservations.get(key, ()):
                if start < e and s < start + length:
                    conflict_end = e if conflict_end is None else max(conflict_end, e)
        if conflict_end is None:
            return start
        start = conflict_end


def list_calendar_grants(decisions, grid, positions, slot, phi_max_J):
    """(starts, grants) of one slot's decisions, scheduled on per-link reservation lists."""
    reservations: dict = {}
    starts, grants = [], []
    for job_id, d in enumerate(decisions):
        route = grid.static_route(positions[d.source_id], positions[d.consumer_id])
        y = mini_slot_count(d.delivered_J, phi_max_J)
        start = jump_search_start(reservations, route, y) if y > 0 else 0
        for key in route.links():
            if y > 0:
                reservations.setdefault(key, []).append((start, start + y))
                grants.append(LinkGrant(slot, key, start, start + y, job_id))
        starts.append(start)
    return starts, grants


@st.composite
def calendars(draw):
    """A route on a small grid, non-overlapping reservations on its links, and those ranges."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    grid = PpgGrid(rows=rows, cols=cols)
    nodes = grid.nodes()
    a = draw(st.sampled_from(nodes))
    b = draw(st.sampled_from([n for n in nodes if n != a]))
    route = grid.static_route(a, b)
    reservations: dict = {}
    for key in route.links():
        edge = 0
        for _ in range(draw(st.integers(0, 6))):
            start = edge + draw(st.integers(0, 8))
            edge = start + draw(st.integers(1, 20))
            grid.links[key].reserve(start, edge)
            reservations.setdefault(key, []).append((start, edge))
    return route, reservations


class TestEarliestStart:
    @settings(max_examples=200, deadline=None)
    @given(calendars(), st.integers(1, 20))
    def test_matches_jump_search(self, calendar, length):
        route, reservations = calendar
        assert _earliest_start(route, length) == jump_search_start(reservations, route, length)

    def test_skips_to_gap_long_enough(self):
        grid = PpgGrid()
        route = grid.static_route((0, 0), (0, 2))
        first, second = (grid.links[key] for key in route.links())
        first.reserve(0, 2)
        second.reserve(3, 5)
        # [2, 3) is free on both links but too short for two mini-slots
        assert _earliest_start(route, 1) == 2
        assert _earliest_start(route, 2) == 5


def contended_config(reference_config):
    """Reference scenario on a 10x15 grid with small link capacity: multi-hop,
    multi-mini-slot jobs that wait for links, some of them overrunning."""
    return dataclasses.replace(
        reference_config, rows=10, cols=15, on_grid_ids=(3, 50, 99),
        phi_max_J=5_000.0, initial_fill_fraction=0.32, horizon_slots=120,
    )


class TestDerivedGrants:
    def check_run(self, result):
        cfg = result.config
        grid = PpgGrid(rows=cfg.rows, cols=cfg.cols)
        positions = {i: divmod(i, cfg.cols) for i in range(cfg.n_bs)}
        by_slot: dict[int, list] = {}
        for slot, job in result.jobs:
            by_slot.setdefault(slot, []).append(job)
        expected = []
        for slot, jobs in by_slot.items():
            starts, grants = list_calendar_grants(
                [job.decision for job in jobs], grid, positions, slot, cfg.phi_max_J
            )
            assert [job.start_mini_slot for job in jobs] == starts
            expected.extend(grants)
        assert result.grants == expected
        return [job for _, job in result.jobs]

    def test_reference_compare(self, reference_runs):
        results, _ = reference_runs
        for result in results.values():
            self.check_run(result)

    def test_contended_variant(self, reference_config):
        jobs = self.check_run(run(contended_config(reference_config)))
        assert any(job.mini_slots > 1 for job in jobs)
        assert any(job.start_mini_slot > 0 for job in jobs)
        assert any(job.overrun for job in jobs)
        assert any(job.route.hop_count > 1 for job in jobs)

    def test_outcome_grants_follow_jobs(self):
        positions = {0: (0, 0), 1: (0, 1), 2: (0, 2)}
        decisions = [
            AllocationDecision(0, 2, 150e3, FRACTION(2), 2),
            AllocationDecision(1, 2, 50e3, FRACTION(1), 1),
        ]
        jobs = execute_transfers(decisions, PpgGrid(), positions, 3, 5.0, 2.0, 100e3, 60.0).jobs
        assert [grant for job in jobs for grant in job_grants(4, job)] == [
            LinkGrant(4, ((0, 0), (0, 1)), 0, 2, 0),
            LinkGrant(4, ((0, 1), (0, 2)), 0, 2, 0),
            LinkGrant(4, ((0, 1), (0, 2)), 2, 3, 1),
        ]


def oracle_execute_transfers(
    decisions, grid, positions, n_stations, mini_slot_duration_s, processing_delay_s, phi_max_J, deadline_s
):
    """What execute_transfers must return, restated job by job as the oracle.

    The per-station vectors are folded one station at a time over the jobs,
    from 0.0 in job order, so each entry sees the additions the one pass
    makes to it, in the same order.
    """
    jobs = []
    for job_id, decision in enumerate(decisions):
        delivered = decision.delivered_J
        route = grid.static_route(positions[decision.source_id], positions[decision.consumer_id])
        y = mini_slot_count(delivered, phi_max_J)
        occupancy = link_occupancy(y, mini_slot_duration_s, processing_delay_s)
        start = _earliest_start(route, y) if y > 0 else 0
        completion = (start + y) * mini_slot_duration_s + processing_delay_s
        if y > 0:
            for link in route.power_links:
                link.reserve(start, start + y)
        status = "overrun" if completion > deadline_s else "done"
        jobs.append(
            TransferJob(
                job_id=job_id, decision=decision, route=route, mini_slots=y, start_mini_slot=start,
                occupancy_s=occupancy, completion_s=completion, status=status,
            )
        )
    flows, received = [], []
    for i in range(n_stations):
        flow = into = 0.0
        for job in jobs:
            d = job.decision
            if d.consumer_id == i:
                flow += d.gross_J * d.fraction
                into += d.gross_J * d.fraction
            if d.source_id == i:
                flow -= d.gross_J
        flows.append(flow)
        received.append(into)
    short = [job.decision.consumer_id for job in jobs if job.decision.shortfall]
    shortfall_ids = [i for i in range(n_stations) if i in short]
    n_overruns = len([job for job in jobs if job.status == "overrun"])
    return jobs, flows, received, shortfall_ids, n_overruns


def bits(x):
    return struct.pack("<d", x)


@st.composite
def transfer_slots(draw):
    """One slot's decisions on a small grid, with link capacities that make jobs contend."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    n = rows * cols
    decisions = []
    for _ in range(draw(st.integers(0, 12))):
        source = draw(st.integers(0, n - 1))
        consumer = draw(st.integers(0, n - 1).filter(lambda c: c != source))
        hops = abs(source // cols - consumer // cols) + abs(source % cols - consumer % cols)
        # 5e-324 times a fraction of at most 0.5 lands 0.0: a zero-length job
        gross = draw(st.sampled_from([5e-324, 50e3, 100e3]) | st.floats(1e-3, 600e3))
        fraction = draw(st.just(FRACTION(hops)) | st.floats(0.0, 1.0, exclude_min=True))
        decisions.append(AllocationDecision(source, consumer, gross, fraction, hops, draw(st.booleans())))
    phi_max_J = draw(st.sampled_from([0.0, 5e3, 40e3, 100e3, math.inf]))
    timing = draw(st.sampled_from([(5.0, 2.0, 60.0), (5.0, 0.0, 30.0), (2.5, 1.0, 20.0)]))
    return rows, cols, decisions, phi_max_J, timing


def executed(fn, rows, cols, decisions, phi_max_J, timing):
    """One implementation's five results (floats as bytes) and link calendars, or its error."""
    grid = PpgGrid(rows=rows, cols=cols)
    n = rows * cols
    positions = {i: divmod(i, cols) for i in range(n)}
    mini_slot_s, xi_s, delta_s = timing
    try:
        jobs, flows, received, shortfall_ids, n_overruns = fn(
            decisions, grid, positions, n, mini_slot_s, xi_s, phi_max_J, delta_s
        )
    except (ConfigError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    jobs = [
        (job.job_id, job.decision, job.route, job.mini_slots, job.start_mini_slot,
         bits(job.occupancy_s), bits(job.completion_s), job.status)
        for job in jobs
    ]
    vectors = [struct.pack(f"<{len(v)}d", *v) for v in (flows, received)]
    calendars = [(key, link.mask) for key, link in grid.links.items()]
    return jobs, vectors, shortfall_ids, n_overruns, calendars


class TestMatchesPerJobOracle:
    @settings(max_examples=300, deadline=None)
    @given(transfer_slots())
    def test_same_jobs_flows_and_calendars(self, slot):
        assert executed(execute_transfers, *slot) == executed(oracle_execute_transfers, *slot)

    def test_bad_capacity_rejected_once_there_is_a_job(self):
        decision = AllocationDecision(0, 1, 10e3, FRACTION(1), 1)
        positions = {0: (0, 0), 1: (0, 1)}
        assert execute_transfers([], PpgGrid(), positions, 2, 5.0, 2.0, 0.0, 60.0).jobs == []
        with pytest.raises(ConfigError, match="phi_max_J must be positive"):
            execute_transfers([decision], PpgGrid(), positions, 2, 5.0, 2.0, 0.0, 60.0)
