"""Execute allocation decisions over the grid.

Each decision becomes a TransferJob: a static route, a mini-slot count for
the delivered energy, and reservations on every link of the route. Jobs
contending for a link are serialized in decision order; a job pushed past
the response deadline still completes but is flagged as an overrun.

Losses are debited at the source: the source sends the gross amount, the
consumer receives the surviving fraction, the difference is dissipated.
The same pass over the decisions builds the slot's net flows, shortfall
ids and overrun count. No station is both consumer and source in a slot
(a level is not both below the lower threshold and above the upper), so
a station's delivered energy is the positive part of its net flow.

Link calendar. A link's calendar is the bitmask of its busy mini-slots
(see topology). A job of y mini-slots starts at the first run of y zero
bits in the OR of its route's masks. That equals the start found by a
search over the [start, end) ranges reserved so far (the tests keep it
as the oracle), which starts at 0 and, while reserved ranges overlap the
window [start, start + y), jumps to the largest end among them. No such
end can lie past the earliest free start f >= start, since a range
overlapping [start, start + y) and ending after f would also overlap
[f, f + y); so the jumps never pass f and stop exactly at it. The grants
(which link each job held, when) are derived from the jobs, not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .allocation import AllocationDecision
from .errors import ConfigError
from .topology import LinkKey, Node, PpgGrid, Route


def mini_slot_count(delivered_J: float, phi_max_J: float) -> int:
    """Mini-slots needed to move the delivered energy at phi_max per mini-slot."""
    if phi_max_J <= 0:
        raise ConfigError(f"phi_max_J must be positive, got {phi_max_J}")
    if delivered_J < 0:
        raise ValueError("delivered_J must be >= 0")
    if delivered_J == 0:
        return 0
    return math.ceil(delivered_J / phi_max_J)


def link_occupancy(mini_slots: int, mini_slot_duration_s: float, processing_delay_s: float) -> float:
    """Wall time a transfer holds its links: transmission plus processing delay."""
    if mini_slots < 0:
        raise ValueError("mini_slots must be >= 0")
    return mini_slots * mini_slot_duration_s + processing_delay_s


@dataclass
class TransferJob:
    """One scheduled transfer: route, slot timing, and completion status."""

    job_id: int
    decision: AllocationDecision
    route: Route
    mini_slots: int
    start_mini_slot: int
    occupancy_s: float
    completion_s: float
    status: str = "done"  # "done" | "overrun"

    @property
    def overrun(self) -> bool:
        return self.status == "overrun"


@dataclass(frozen=True)
class LinkGrant:
    """Audit row: one link held by one job for a mini-slot range."""

    slot: int
    link: LinkKey
    start_mini_slot: int
    end_mini_slot: int
    job_id: int


def job_grants(slot: int, job: TransferJob) -> list[LinkGrant]:
    """The links a job held and when, in route order; none for a zero-length job."""
    if job.mini_slots == 0:
        return []
    start, end = job.start_mini_slot, job.start_mini_slot + job.mini_slots
    return [LinkGrant(slot, key, start, end, job.job_id) for key in job.route.links()]


def _earliest_start(route: Route, length: int) -> int:
    """First mini-slot index at which every link of the route is free for `length` slots.

    The route must come from PpgGrid.static_route, which resolves its links.
    """
    busy = 0
    for link in route.power_links:
        busy |= link.mask
    window = (1 << length) - 1
    start = 0
    while clash := (busy >> start) & window:
        # every start up to the highest clashing mini-slot would hold it too
        start += clash.bit_length()
    return start


class SlotTransfers(NamedTuple):
    """One slot's executed transfers and the per-station results they give.

    flow_J (net energy in, losses debited at the source) is indexed by
    station id; each entry starts at 0.0 and adds in decision order.
    shortfall_ids lists, sorted and once each, the consumers of shortfall
    decisions; n_overruns counts the overrun jobs.
    """

    jobs: list[TransferJob]
    flow_J: list[float]
    shortfall_ids: list[int]
    n_overruns: int


def execute_transfers(
    decisions: Sequence[AllocationDecision],
    grid: PpgGrid,
    positions: Mapping[int, Node],
    n_stations: int,
    mini_slot_duration_s: float,
    processing_delay_s: float,
    phi_max_J: float,
    deadline_s: float,
) -> SlotTransfers:
    """Schedule and execute one slot's transfers under per-link TDM.

    Links must be free at entry (the engine clears them before each slot
    that has transfers). Every job completes within the model - energy always
    arrives - but a completion time past deadline_s marks the job overrun.
    """
    jobs: list[TransferJob] = []
    flows = [0.0] * n_stations
    shortfall: set[int] = set()
    n_overruns = 0
    for job_id, decision in enumerate(decisions):
        source, consumer, gross = decision.source_id, decision.consumer_id, decision.gross_J
        delivered = decision.delivered_J
        route = grid.static_route(positions[source], positions[consumer])
        y = mini_slot_count(delivered, phi_max_J)
        if y > 0:
            start = _earliest_start(route, y)
            for link in route.power_links:
                link.reserve(start, start + y)
        else:
            start = 0
        completion = (start + y) * mini_slot_duration_s + processing_delay_s
        occupancy = link_occupancy(y, mini_slot_duration_s, processing_delay_s)
        overrun = completion > deadline_s
        n_overruns += overrun
        status = "overrun" if overrun else "done"
        jobs.append(TransferJob(job_id, decision, route, y, start, occupancy, completion, status))
        flows[consumer] += delivered
        flows[source] -= gross
        if decision.shortfall:
            shortfall.add(consumer)
    return SlotTransfers(jobs, flows, sorted(shortfall), n_overruns)
