"""Per-slot simulation loop and experiment drivers.

Event order inside one slot is a frozen contract:

1. read every battery level (the slot's reported state)
2. advance vehicle groups and compute the association set
3. classify station roles from the reported levels
4. allocate transfers under the configured policy
5. execute transfers over the grid (TDM mini-slot scheduling)
6. sample the slot's load and harvest
7. update batteries; grid-connected stations purchase up to their
   upper threshold on the provisional end-of-slot level
8. advance the per-station virtual queues
9. emit the slot metrics row

Consequences worth noting: energy delivered in a slot is usable against
that slot's consumption (battery updates sum all flows at once), and a
station's tradeable surplus is computed before any grid purchase, so
purchased energy can never be re-exported within the same slot.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import allocation, domain, ingest, mobility, topology, transfer
from .allocation import TheoremDiagnostic, VirtualQueues
from .domain import BaseStation, EnergyBuffer, SimClock
from .errors import ConfigError
from .ingest import HarvestTraceSet, LoadProfileSet
from .topology import LossModel, PpgGrid
from .transfer import LinkGrant, TransferJob

# sub-seed offsets hung off the master seed, one per stochastic component
_SEED_CLUSTERS = 1
_SEED_JITTER = 2
_SEED_MOBILITY = 3
_SEED_POLICY = 4
_SEED_TRACES = 5


def derive_seed(master_seed: int, component: int) -> int:
    return master_seed * 1_000_003 + component


@dataclass(frozen=True)
class SimConfig:
    """Full scenario description; defaults follow the reference parameter set."""

    rows: int = 4
    cols: int = 6
    on_grid_ids: tuple[int, ...] = (0, 5, 9, 14, 18)
    tau_s: float = 60.0
    mini_slot_s: float = 5.0
    delta_s: float = 60.0
    xi_s: float = 2.0
    phi_max_J: float = 100_000.0
    resistivity: float = 0.023
    link_length_m: float = 100.0
    cross_section_mm2: float = 10.0
    dc_voltage_V: float = 380.0
    beta_max_J: float = 490_000.0
    beta_low_fraction: float = 0.30
    beta_up_fraction: float = 0.70
    idle_energy_J: float = 6_000.0
    max_load_energy_J: float = 18_000.0
    lam: float = 1.0
    policy: str = "lyapunov"
    horizon_slots: int = 1440
    seed: int = 1
    initial_fill_fraction: float = 0.5
    profiles_path: str = ""
    harvest_path: str = ""
    solar_peak_fraction: float = 0.2
    offpeak_threshold_fraction: float = 0.01
    harvest_jitter: float = 0.0
    slots_per_day: int = 1440
    bs_spacing_m: float = 500.0
    n_vue_groups: int = 10
    members_per_group: int = 3
    offset_radius_m: float = 20.0
    speed_min_mps: float = 10.0
    speed_max_mps: float = 30.0
    lane_gap_m: float = 4.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ConfigError(f"grid {self.rows}x{self.cols} too small")
        n = self.rows * self.cols
        if len(set(self.on_grid_ids)) != len(self.on_grid_ids):
            raise ConfigError("on_grid_ids contains duplicates")
        for bs_id in self.on_grid_ids:
            if not (0 <= bs_id < n):
                raise ConfigError(f"on_grid id {bs_id} outside 0..{n - 1}")
        # written so that a NaN fails each comparison
        for key in ("tau_s", "mini_slot_s", "beta_max_J", "bs_spacing_m"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and positive, got {value}")
        # a non-finite offset radius would keep the member-offset draw looping forever
        for key in ("idle_energy_J", "max_load_energy_J", "offset_radius_m"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not (0.0 < self.beta_low_fraction < self.beta_up_fraction < 1.0):
            raise ConfigError("thresholds must satisfy 0 < low < up < 1")
        if self.policy not in allocation.POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; pick one of {allocation.POLICIES}")
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.horizon_slots < 0:
            raise ConfigError("horizon_slots must be >= 0")
        if not (0.0 <= self.initial_fill_fraction <= 1.0):
            raise ConfigError("initial_fill_fraction must be in [0, 1]")
        if self.delta_s <= 0 or self.xi_s < 0:
            raise ConfigError("delta_s must be positive and xi_s >= 0")
        if not (0.0 <= self.harvest_jitter < 1.0):
            raise ConfigError("harvest_jitter must be in [0, 1)")
        if self.speed_min_mps > self.speed_max_mps:
            raise ConfigError("speed_min_mps exceeds speed_max_mps")
        if self.slots_per_day < 1:
            raise ConfigError("slots_per_day must be >= 1")
        if self.n_vue_groups < 0 or self.members_per_group < 1:
            raise ConfigError("need non-negative group count and >= 1 member per group")
        # delegated validations: SimClock checks the slot/mini-slot ratio,
        # LossModel checks the per-hop loss stays below 1
        SimClock(0, self.tau_s, self.mini_slot_s)
        self.loss_model()

    @property
    def n_bs(self) -> int:
        return self.rows * self.cols

    @property
    def beta_low_J(self) -> float:
        return self.beta_low_fraction * self.beta_max_J

    @property
    def beta_up_J(self) -> float:
        return self.beta_up_fraction * self.beta_max_J

    @property
    def offpeak_threshold_J(self) -> float:
        return self.offpeak_threshold_fraction * self.beta_max_J

    def make_grid(self) -> PpgGrid:
        return PpgGrid(
            rows=self.rows,
            cols=self.cols,
            link_length_m=self.link_length_m,
            resistivity=self.resistivity,
            cross_section_mm2=self.cross_section_mm2,
            dc_voltage_V=self.dc_voltage_V,
        )

    def loss_model(self) -> LossModel:
        return topology.loss_model_for(self.make_grid(), self.phi_max_J, self.mini_slot_s)

    def make_buffer(self, level_J: float) -> EnergyBuffer:
        return EnergyBuffer(
            level_J=level_J,
            capacity_J=self.beta_max_J,
            low_threshold_J=self.beta_low_J,
            up_threshold_J=self.beta_up_J,
        )

    def make_stations(self) -> list[BaseStation]:
        initial = self.initial_fill_fraction * self.beta_max_J
        stations = []
        for r in range(self.rows):
            for c in range(self.cols):
                bs_id = r * self.cols + c
                stations.append(
                    BaseStation(
                        id=bs_id,
                        row=r,
                        col=c,
                        grid_connected=bs_id in self.on_grid_ids,
                        buffer=self.make_buffer(initial),
                        idle_energy_J=self.idle_energy_J,
                        max_load_energy_J=self.max_load_energy_J,
                    )
                )
        return stations


# configuration fields are echoed into summaries and parsed back from
# key=value scenario files; keep one canonical name/type table
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(SimConfig)}


def config_items(config: SimConfig) -> list[tuple[str, str]]:
    """Stable (key, rendered value) pairs for provenance echoing."""
    items = []
    for f in dataclasses.fields(SimConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        items.append((f.name, rendered))
    return items


def config_from_items(items: Mapping[str, str]) -> SimConfig:
    """Rebuild a SimConfig from rendered key/value pairs; unknown keys are errors."""
    kwargs: dict[str, object] = {}
    for key, raw in items.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        tp = _CONFIG_FIELDS[key]
        raw = raw.strip()
        if tp in ("int", int):
            kwargs[key] = int(raw)
        elif tp in ("float", float):
            kwargs[key] = float(raw)
        elif tp in ("str", str):
            kwargs[key] = raw
        else:  # tuple of ints
            kwargs[key] = tuple(int(p) for p in raw.split(",")) if raw else ()
    return SimConfig(**kwargs)


@dataclass
class SlotMetrics:
    """One row per slot; per-station vectors are indexed by station id."""

    slot: int
    level_J: tuple[float, ...]
    level_end_J: tuple[float, ...]
    queue_J: tuple[float, ...]
    role: tuple[str, ...]
    demand_J: tuple[float, ...]
    delivered_J: tuple[float, ...]
    gross_out_J: tuple[float, ...]
    flow_J: tuple[float, ...]
    purchase_J: tuple[float, ...]
    harvest_J: tuple[float, ...]
    consumption_J: tuple[float, ...]
    association: frozenset[int]
    outage_ids: tuple[int, ...]
    shortfall_ids: tuple[int, ...]
    clamped_ids: tuple[int, ...]
    capped_ids: tuple[int, ...]
    n_overruns: int

    @property
    def total_demand_J(self) -> float:
        return sum(self.demand_J)

    @property
    def total_delivered_J(self) -> float:
        return sum(self.delivered_J)

    @property
    def total_flow_J(self) -> float:
        return sum(self.flow_J)

    @property
    def total_purchase_J(self) -> float:
        return sum(self.purchase_J)


@dataclass
class RunResult:
    config: SimConfig
    slots: list[SlotMetrics]
    jobs: list[tuple[int, TransferJob]]
    theorem: TheoremDiagnostic | None
    summary: dict[str, object] = field(default_factory=dict)
    trajectories: list[tuple[int, int, float, float, int]] = field(default_factory=list)

    @property
    def grants(self) -> list[LinkGrant]:
        """Link grants of the whole run, in slot, job and route order."""
        return [grant for slot, job in self.jobs for grant in transfer.job_grants(slot, job)]


def build_traces(config: SimConfig) -> tuple[LoadProfileSet, HarvestTraceSet]:
    """Load the configured trace files, or synthesize both under the run seed."""
    cluster_rng = random.Random(derive_seed(config.seed, _SEED_CLUSTERS))
    bs_ids = range(config.n_bs)
    if config.profiles_path:
        profiles = ingest.load_profiles(
            config.profiles_path, bs_ids, cluster_rng, config.slots_per_day
        )
    else:
        clusters = ingest.synthetic_profiles(
            derive_seed(config.seed, _SEED_TRACES), config.slots_per_day
        )
        profiles = LoadProfileSet(clusters, ingest.assign_clusters(bs_ids, cluster_rng))
    if config.harvest_path:
        harvest = ingest.load_harvest(
            config.harvest_path, config.beta_max_J, config.tau_s, config.solar_peak_fraction
        )
    else:
        harvest = ingest.synthetic_harvest(
            derive_seed(config.seed, _SEED_TRACES),
            config.horizon_slots,
            config.beta_max_J,
            config.solar_peak_fraction,
            config.slots_per_day,
        )
    return profiles, harvest


class Simulation:
    """Mutable state of one run; strictly single-threaded and seed-deterministic."""

    def __init__(
        self,
        config: SimConfig,
        profiles: LoadProfileSet | None = None,
        harvest: HarvestTraceSet | None = None,
    ) -> None:
        self.config = config
        if profiles is None or harvest is None:
            built_profiles, built_harvest = build_traces(config)
            profiles = profiles or built_profiles
            harvest = harvest or built_harvest
        if harvest.n_slots < config.horizon_slots:
            raise ConfigError(
                f"harvest trace covers {harvest.n_slots} slots, "
                f"horizon needs {config.horizon_slots}"
            )
        self.profiles = profiles
        self.harvest = harvest
        self.slots_per_day = profiles.slots_per_day
        self.grid = config.make_grid()
        self.loss = config.loss_model()
        # every hop count on the lattice, so allocation never re-derives a fraction
        self.fractions = [
            self.loss.delivered_fraction(d) for d in range(config.rows + config.cols - 1)
        ]
        self.stations = config.make_stations()
        self.positions = {bs.id: bs.node for bs in self.stations}
        # one int object per id, shared by every slot's role maps and id lists
        self.ids = [bs.id for bs in self.stations]
        self.on_grid = [bs.grid_connected for bs in self.stations]
        # per-station state, indexed by station id
        self.levels: list[float] = [bs.buffer.level_J for bs in self.stations]
        # each profile value is checked here once, not per station in every slot
        for k, row in enumerate(profiles.clusters):
            for slot, value in enumerate(row):
                if not (0.0 <= value <= 1.0):
                    raise ValueError(
                        f"load profile cluster {k}, slot {slot}: "
                        f"load_fraction must be in [0, 1], got {value}"
                    )
        # consumption = idle + profile value * peak load, from (idle, row, peak) per station
        self.consumption_terms = [
            (bs.idle_energy_J, profiles.clusters[profiles.assignment[bs.id]], bs.max_load_energy_J)
            for bs in self.stations
        ]
        self.queues = VirtualQueues(range(config.n_bs))
        self.prev_consumption: dict[int, float] = dict.fromkeys(range(config.n_bs), 0.0)
        jitter_rng = random.Random(derive_seed(config.seed, _SEED_JITTER))
        self.jitter = [
            1.0
            if config.harvest_jitter == 0.0
            else jitter_rng.uniform(1.0 - config.harvest_jitter, 1.0 + config.harvest_jitter)
            for _ in self.stations
        ]
        self.policy_rng = random.Random(derive_seed(config.seed, _SEED_POLICY))
        world_length_m = max((config.cols - 1) * config.bs_spacing_m, 1.0)
        mid_y = (config.rows - 1) * config.bs_spacing_m / 2.0
        lane_y = (mid_y - config.lane_gap_m / 2.0, mid_y + config.lane_gap_m / 2.0)
        # the only draws from the mobility stream: speeds, positions, offsets
        groups = mobility.make_groups(
            random.Random(derive_seed(config.seed, _SEED_MOBILITY)),
            config.n_vue_groups,
            config.members_per_group,
            world_length_m,
            lane_y,
            (config.speed_min_mps, config.speed_max_mps),
            config.offset_radius_m,
        )
        self.fleet = mobility.Fleet(
            groups, config.tau_s, world_length_m, config.rows, config.cols, config.bs_spacing_m
        )

    def step(self, t: int) -> tuple[SlotMetrics, transfer.TransferOutcome]:
        cfg = self.config
        n = cfg.n_bs
        cap, low, up = cfg.beta_max_J, cfg.beta_low_J, cfg.beta_up_J
        ids, on_grid = self.ids, self.on_grid
        levels_start = tuple(self.levels)

        # mobility first: the association set is this slot's priority input
        serving = self.fleet.step()

        roles: list[str] = []
        demands: dict[int, float] = {}
        surpluses: dict[int, float] = {}
        for i, level in zip(ids, levels_start):
            if not (0 <= level <= cap):
                raise ValueError(f"station {i}: level {level} outside [0, {cap}]")
            role, amount = domain.role_of(level, on_grid[i], low, up)
            roles.append(role)
            if role == "consumer":
                demands[i] = amount
            elif role == "source":
                surpluses[i] = amount

        decisions, outage_ids = allocation.allocate_slot(
            cfg.policy,
            demands,
            serving,
            surpluses,
            (cfg.rows, cfg.cols),
            self.fractions.__getitem__,
            self.queues.values,
            self.prev_consumption,
            cfg.lam,
            self.policy_rng,
        )

        self.grid.clear_reservations()
        outcome = transfer.execute_transfers(
            decisions,
            self.grid,
            self.positions,
            t,
            cfg.mini_slot_s,
            cfg.xi_s,
            cfg.phi_max_J,
            cfg.delta_s,
        )
        flows = outcome.flows(n)

        solar, wind = self.harvest.sample(t)
        harvest_J = ingest.harvest_select(solar, wind, cfg.offpeak_threshold_J)
        harvested = [j * harvest_J for j in self.jitter]
        k = t % self.slots_per_day
        consumption = [idle + row[k] * peak for idle, row, peak in self.consumption_terms]

        self.levels, purchases, clamped, capped = domain.battery_steps(
            levels_start, harvested, consumption, flows, on_grid, cap, up
        )

        delivered = [0.0] * n
        gross_out = [0.0] * n
        for d in decisions:
            delivered[d.consumer_id] += d.delivered_J
            gross_out[d.source_id] += d.gross_J
        queue_snapshot = tuple(self.queues.values.values())
        self.queues.advance_all(delivered, cap)

        self.prev_consumption = dict(enumerate(consumption))

        return SlotMetrics(
            slot=t,
            level_J=levels_start,
            level_end_J=tuple(self.levels),
            queue_J=queue_snapshot,
            role=tuple(roles),
            demand_J=tuple(demands.get(i, 0.0) for i in range(n)),
            delivered_J=tuple(delivered),
            gross_out_J=tuple(gross_out),
            flow_J=tuple(flows),
            purchase_J=tuple(purchases),
            harvest_J=tuple(harvested),
            consumption_J=tuple(consumption),
            association=serving,
            outage_ids=tuple(outage_ids),
            shortfall_ids=tuple(sorted({d.consumer_id for d in decisions if d.shortfall})),
            clamped_ids=tuple(clamped),
            capped_ids=tuple(capped),
            n_overruns=sum(1 for job in outcome.jobs if job.overrun),
        ), outcome

    def run(self, collect_trajectories: bool = False) -> RunResult:
        cfg = self.config
        slots: list[SlotMetrics] = []
        jobs: list[tuple[int, TransferJob]] = []
        trajectories: list[tuple[int, int, float, float, int]] = []
        queue_history: dict[int, list[float]] = {i: [] for i in range(cfg.n_bs)}
        for t in range(cfg.horizon_slots):
            metrics, outcome = self.step(t)
            slots.append(metrics)
            jobs.extend((t, job) for job in outcome.jobs)
            if collect_trajectories:
                trajectories.extend(self.fleet.trajectory_rows(t))
            for i in range(cfg.n_bs):
                queue_history[i].append(metrics.queue_J[i])
        theorem = None
        if slots:
            mean_demand = sum(m.total_demand_J for m in slots) / len(slots)
            theorem = allocation.theorem1_report(
                [m.total_delivered_J for m in slots],
                queue_history,
                cfg.lam,
                cfg.beta_max_J,
                target_value=mean_demand,
            )
        result = RunResult(cfg, slots, jobs, theorem, trajectories=trajectories)
        result.summary = summarize(result)
        return result


def run(
    config: SimConfig,
    profiles: LoadProfileSet | None = None,
    harvest: HarvestTraceSet | None = None,
    collect_trajectories: bool = False,
) -> RunResult:
    """Build and execute one run; traces may be injected for shared-trace studies."""
    return Simulation(config, profiles, harvest).run(collect_trajectories)


def compare(config: SimConfig, policies: Sequence[str]) -> dict[str, RunResult]:
    """Run several policies against identical traces, mobility and seed."""
    profiles, harvest = build_traces(config)
    results = {}
    for policy in policies:
        cfg = dataclasses.replace(config, policy=policy)
        results[policy] = run(cfg, profiles, harvest)
    return results


def sweep_lambda(config: SimConfig, values: Sequence[float]) -> list[tuple[float, RunResult]]:
    """Run the configured policy once per control-weight value, same traces."""
    profiles, harvest = build_traces(config)
    out = []
    for lam in values:
        cfg = dataclasses.replace(config, lam=lam)
        out.append((lam, run(cfg, profiles, harvest)))
    return out


def demand_coverage_pct(slots: Sequence[SlotMetrics]) -> float:
    """Delivered energy as a percentage of demand over the whole run."""
    demand = sum(m.total_demand_J for m in slots)
    if demand == 0.0:
        return 100.0
    return 100.0 * sum(m.total_delivered_J for m in slots) / demand


def min_restored_level_J(slots: Sequence[SlotMetrics], offgrid_ids: Sequence[int]) -> float:
    """Lowest off-grid buffer level counting the slot's incoming transfer.

    This is the level the allocator restores a deficient station to; a
    policy that always meets demand keeps it at or above the low threshold.
    """
    lows = [
        m.level_J[i] + m.delivered_J[i]
        for m in slots
        for i in offgrid_ids
    ]
    return min(lows) if lows else float("inf")


def summarize(result: RunResult) -> dict[str, object]:
    cfg = result.config
    slots = result.slots
    offgrid = [i for i in range(cfg.n_bs) if i not in cfg.on_grid_ids]
    n_slots = len(slots)
    total_demand = sum(m.total_demand_J for m in slots)
    total_delivered = sum(m.total_delivered_J for m in slots)
    summary: dict[str, object] = {
        "policy": cfg.policy,
        "lam": cfg.lam,
        "seed": cfg.seed,
        "horizon_slots": n_slots,
        "total_demand_J": total_demand,
        "total_delivered_J": total_delivered,
        "total_gross_J": -sum(sum((f for f in m.flow_J if f < 0.0), 0.0) for m in slots),
        "total_purchased_J": sum(m.total_purchase_J for m in slots),
        "total_harvest_J": sum(sum(m.harvest_J) for m in slots),
        "total_consumption_J": sum(sum(m.consumption_J) for m in slots),
        "demand_coverage_pct": demand_coverage_pct(slots),
        "demand_slots": sum(1 for m in slots if m.total_demand_J > 0),
        "unmet_slots": sum(
            1 for m in slots if m.total_delivered_J < m.total_demand_J - 1e-6
        ),
        "outage_events": sum(len(m.outage_ids) for m in slots),
        "shortfall_events": sum(len(m.shortfall_ids) for m in slots),
        "overrun_jobs": sum(m.n_overruns for m in slots),
        "clamp_events": sum(len(m.clamped_ids) for m in slots),
        "mean_eb_J": (
            sum(sum(m.level_J) for m in slots) / (n_slots * cfg.n_bs) if n_slots else 0.0
        ),
        "min_offgrid_level_J": (
            min(min(m.level_J[i] for i in offgrid) for m in slots)
            if n_slots and offgrid
            else float("inf")
        ),
        "min_offgrid_restored_J": min_restored_level_J(slots, offgrid),
        "c2_restored": (
            min_restored_level_J(slots, offgrid) >= cfg.beta_low_J - 1e-6
            if n_slots and offgrid
            else True
        ),
    }
    if result.theorem is not None:
        summary["theorem_lhs_J"] = result.theorem.lhs
        summary["theorem_rhs_J"] = result.theorem.rhs
        summary["theorem_target_J"] = result.theorem.target_value
        summary["theorem_satisfied"] = result.theorem.satisfied
        summary["theorem_skipped"] = result.theorem.skipped
    for key, value in config_items(cfg):
        summary[f"config.{key}"] = value
    return summary


# ---------------------------------------------------------------------------
# Delimited output; float fields use repr so identical runs write identical bytes.
# ---------------------------------------------------------------------------

_METRIC_COLUMNS = [
    "slot", "n_sources", "n_consumers", "demand_J", "delivered_J", "gross_J",
    "flow_sum_J", "purchase_J", "harvest_J", "consumption_J", "outages",
    "shortfalls", "overruns", "assoc_size", "min_level_offgrid_J",
    "min_restored_offgrid_J", "mean_level_J", "queue_sum_J",
]


def metrics_rows(result: RunResult) -> list[str]:
    cfg = result.config
    offgrid = [i for i in range(cfg.n_bs) if i not in cfg.on_grid_ids]
    rows = [",".join(_METRIC_COLUMNS)]
    for m in result.slots:
        gross = -sum((f for f in m.flow_J if f < 0.0), 0.0)
        min_off = min((m.level_J[i] for i in offgrid), default=0.0)
        min_restored = min((m.level_J[i] + m.delivered_J[i] for i in offgrid), default=0.0)
        rows.append(
            ",".join(
                [
                    str(m.slot),
                    str(sum(1 for r in m.role if r == "source")),
                    str(sum(1 for r in m.role if r == "consumer")),
                    repr(m.total_demand_J),
                    repr(m.total_delivered_J),
                    repr(gross),
                    repr(m.total_flow_J),
                    repr(m.total_purchase_J),
                    repr(sum(m.harvest_J)),
                    repr(sum(m.consumption_J)),
                    str(len(m.outage_ids)),
                    str(len(m.shortfall_ids)),
                    str(m.n_overruns),
                    str(len(m.association)),
                    repr(min_off),
                    repr(min_restored),
                    repr(sum(m.level_J) / cfg.n_bs),
                    repr(sum(m.queue_J)),
                ]
            )
        )
    return rows


def transfer_rows(result: RunResult) -> list[str]:
    rows = [
        "slot,job_id,source,consumer,gross_J,fraction,delivered_J,hops,"
        "mini_slots,start_mini_slot,occupancy_s,completion_s,status,shortfall,route"
    ]
    for slot, job in result.jobs:
        d = job.decision
        route = "|".join(f"{r}:{c}" for r, c in job.route.hops)
        rows.append(
            f"{slot},{job.job_id},{d.source_id},{d.consumer_id},{d.gross_J!r},"
            f"{d.fraction!r},{d.delivered_J!r},{d.hops},{job.mini_slots},"
            f"{job.start_mini_slot},{job.occupancy_s!r},{job.completion_s!r},"
            f"{job.status},{int(d.shortfall)},{route}"
        )
    return rows


def summary_rows(result: RunResult) -> list[str]:
    rows = []
    for key, value in result.summary.items():
        if isinstance(value, float):
            rows.append(f"{key} = {value!r}")
        else:
            rows.append(f"{key} = {value}")
    return rows


def trajectory_rows_text(result: RunResult) -> list[str]:
    rows = ["slot,group,x_m,y_m,serving_bs"]
    for slot, group, x, y, bs in result.trajectories:
        rows.append(f"{slot},{group},{x!r},{y!r},{bs}")
    return rows


def write_outputs(result: RunResult, out_dir: str | Path, prefix: str = "") -> dict[str, Path]:
    """Write metrics, transfer audit and summary files; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{prefix}_" if prefix else ""
    paths = {
        "metrics": out / f"{tag}metrics.csv",
        "transfers": out / f"{tag}transfers.csv",
        "summary": out / f"{tag}summary.txt",
    }
    paths["metrics"].write_text("\n".join(metrics_rows(result)) + "\n")
    paths["transfers"].write_text("\n".join(transfer_rows(result)) + "\n")
    paths["summary"].write_text("\n".join(summary_rows(result)) + "\n")
    if result.trajectories:
        paths["trajectories"] = out / f"{tag}trajectories.csv"
        paths["trajectories"].write_text("\n".join(trajectory_rows_text(result)) + "\n")
    return paths
