"""Per-slot simulation loop and experiment drivers.

Event order inside one slot is a frozen contract:

1. read every battery level (the slot's reported state)
2. advance vehicle groups and compute the association set
3. classify station roles from the reported levels (the previous slot's
   battery update already read them, so only the first slot, or levels a
   caller put in place, take a pass of their own)
4. allocate transfers under the configured policy (only in a slot with
   consumers)
5. execute transfers over the grid (TDM mini-slot scheduling; only in a
   slot with decisions, which first clears the links reserved before);
   the same pass builds the slot's flow and delivered vectors, its
   shortfall ids and its overrun count
6. sample the slot's load and harvest
7. update batteries; grid-connected stations purchase up to their
   upper threshold on the provisional end-of-slot level
8. return the slot's (metrics, jobs), which run hands to the run's sink

Consequences worth noting: energy delivered in a slot is usable against
that slot's consumption (battery updates sum all flows at once), and a
station's tradeable surplus is computed before any grid purchase, so
purchased energy can never be re-exported within the same slot.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import operator
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence, TextIO

from . import allocation, domain, ingest, mobility, topology, transfer
from .allocation import TheoremDiagnostic
from .domain import SimClock
from .errors import ConfigError
from .ingest import HarvestTraceSet, LoadProfileSet
from .numeric import left_sum
from .topology import PpgGrid
from .transfer import LinkGrant, TransferJob

# sub-seed offsets hung off the master seed, one per stochastic component
_SEED_CLUSTERS = 1
_SEED_JITTER = 2
_SEED_MOBILITY = 3
_SEED_POLICY = 4
_SEED_TRACES = 5
# a job holds ceil(delivered / phi_max_J) mini-slots, at most
# ceil(beta_max_J / phi_max_J), and each link's calendar is an int with a
# bit per mini-slot
MAX_JOB_MINI_SLOTS = 2**20


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
        for key in ("rows", "cols"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.rows * self.cols < 2:
            raise ConfigError(f"rows and cols must give at least 2 stations, got {self.rows}x{self.cols}")
        n = self.rows * self.cols
        if len(set(self.on_grid_ids)) != len(self.on_grid_ids):
            raise ConfigError("on_grid_ids contains duplicates")
        for bs_id in self.on_grid_ids:
            if not (0 <= bs_id < n):
                raise ConfigError(f"on_grid id {bs_id} outside 0..{n - 1}")
        # written so that a NaN fails each comparison
        for key in (
            "tau_s", "mini_slot_s", "beta_max_J", "bs_spacing_m", "delta_s", "resistivity",
            "link_length_m", "cross_section_mm2", "dc_voltage_V", "phi_max_J",
        ):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and positive, got {value}")
        # a non-finite offset radius would keep the member-offset draw looping
        # forever; a NaN peak or off-peak fraction would reach every level
        for key in (
            "idle_energy_J", "max_load_energy_J", "offset_radius_m", "xi_s", "lam",
            "solar_peak_fraction", "offpeak_threshold_fraction",
        ):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        # a non-finite vehicle position would reach the integer lattice lookup
        for key in ("lane_gap_m", "speed_min_mps", "speed_max_mps"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        # low < 1 keeps every demand below beta_max_J, so no virtual queue can
        # leave 0 (allocation.lyapunov_ring_picks)
        if not (0.0 < self.beta_low_fraction < self.beta_up_fraction < 1.0):
            raise ConfigError(
                "beta_low_fraction and beta_up_fraction must satisfy 0 < low < up < 1, "
                f"got {self.beta_low_fraction} and {self.beta_up_fraction}"
            )
        if self.policy not in allocation.POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; pick one of {allocation.POLICIES}")
        if self.horizon_slots < 0:
            raise ConfigError("horizon_slots must be >= 0")
        if not (0.0 <= self.initial_fill_fraction <= 1.0):
            raise ConfigError("initial_fill_fraction must be in [0, 1]")
        if not (0.0 <= self.harvest_jitter < 1.0):
            raise ConfigError("harvest_jitter must be in [0, 1)")
        if self.speed_min_mps > self.speed_max_mps:
            raise ConfigError("speed_min_mps exceeds speed_max_mps")
        if self.slots_per_day < 1:
            raise ConfigError("slots_per_day must be >= 1")
        if self.n_vue_groups < 0:
            raise ConfigError(f"n_vue_groups must be >= 0, got {self.n_vue_groups}")
        if self.members_per_group < 1:
            raise ConfigError(f"members_per_group must be >= 1, got {self.members_per_group}")
        # SimClock checks the slot/mini-slot ratio
        try:
            SimClock(0, self.tau_s, self.mini_slot_s)
        except ValueError:
            raise ConfigError(
                f"tau_s must be a whole multiple of mini_slot_s, got {self.tau_s}/{self.mini_slot_s}"
            ) from None
        # loss_model_for's per-hop loss, from the fields alone, with no grid built;
        # a resistance or link power that underflows to 0 has no loss model either
        resistance = topology.line_resistance(self.resistivity, self.link_length_m, self.cross_section_mm2)
        power = self.phi_max_J / self.mini_slot_s
        hop_loss = topology.per_hop_loss(resistance, power, self.dc_voltage_V) if resistance and power else 0.0
        if not (0.0 < hop_loss < 1.0):
            raise ConfigError(
                f"per-hop loss must lie in (0, 1), got {hop_loss}; it comes from phi_max_J, "
                "mini_slot_s, resistivity, link_length_m, cross_section_mm2 and dc_voltage_V"
            )
        # ceil(x) > n exactly when x > n, for an integer n; an infinite ratio fails too
        if self.beta_max_J / self.phi_max_J > MAX_JOB_MINI_SLOTS:
            raise ConfigError(
                f"phi_max_J must be at least beta_max_J / {MAX_JOB_MINI_SLOTS}, so that a job needs at "
                f"most {MAX_JOB_MINI_SLOTS} mini-slots, got phi_max_J = {self.phi_max_J} and "
                f"beta_max_J = {self.beta_max_J}"
            )

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


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",")) if raw else ()


# field annotation -> (parser of its rendered value, what that value must be)
_PARSERS: dict[str, tuple[Callable[[str], object], str]] = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "tuple[int, ...]": (_ints, "comma-separated integers"),
}


def config_from_items(items: Mapping[str, str]) -> SimConfig:
    """Rebuild a SimConfig from rendered key/value pairs.

    An unknown key, or a value its field's type cannot parse, raises
    ConfigError naming the key.
    """
    kwargs: dict[str, object] = {}
    for key, raw in items.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        parse, expected = _PARSERS[_CONFIG_FIELDS[key]]
        raw = raw.strip()
        try:
            kwargs[key] = parse(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be {expected}, got {raw!r}") from None
    return SimConfig(**kwargs)


@dataclass
class SlotMetrics:
    """One row per slot; per-station vectors are indexed by station id.

    The vectors are the step's own lists, not copies; nothing mutates them.
    flow_J, delivered_J, shortfall_ids and n_overruns are the transfer
    pass's (transfer.SlotTransfers), or zeros in a slot without decisions.
    """

    slot: int
    level_J: Sequence[float]
    level_end_J: Sequence[float]
    n_sources: int
    n_consumers: int
    demand_J: Sequence[float]
    delivered_J: Sequence[float]
    flow_J: Sequence[float]
    purchase_J: Sequence[float]
    harvest_J: Sequence[float]
    consumption_J: Sequence[float]
    association: frozenset[int]
    outage_ids: Sequence[int]
    shortfall_ids: Sequence[int]
    clamped_ids: Sequence[int]
    capped_ids: Sequence[int]
    n_overruns: int

    @property
    def total_flow_J(self) -> float:
        return left_sum(self.flow_J)


@dataclass
class RunSummary:
    """What a streamed run keeps once its slots are gone.

    paths holds the data files its sink wrote while the run stepped; the
    per-slot demand and delivered totals are kept only when asked for.
    """

    config: SimConfig
    theorem: TheoremDiagnostic | None
    summary: dict[str, object]
    paths: dict[str, Path] = field(default_factory=dict)
    demand_series: list[float] | None = None
    delivered_series: list[float] | None = None


@dataclass
class RunResult(RunSummary):
    """A whole run held in memory: its summary and series, every slot's metrics and every job."""

    slots: list[SlotMetrics] = field(kw_only=True)
    jobs: list[tuple[int, TransferJob]] = field(kw_only=True)

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


def make_fleet(config: SimConfig) -> mobility.Fleet:
    """The config's vehicle groups at slot start; no energy state ever moves them."""
    world_length_m = max((config.cols - 1) * config.bs_spacing_m, 1.0)
    mid_y = (config.rows - 1) * config.bs_spacing_m / 2.0
    lane_y = (mid_y - config.lane_gap_m / 2.0, mid_y + config.lane_gap_m / 2.0)
    # the only draws from the mobility stream: speeds, positions, offsets
    groups = mobility.make_groups(
        random.Random(derive_seed(config.seed, _SEED_MOBILITY)), config.n_vue_groups,
        config.members_per_group, world_length_m, lane_y,
        (config.speed_min_mps, config.speed_max_mps), config.offset_radius_m,
    )
    return mobility.Fleet(
        groups, config.tau_s, world_length_m, config.rows, config.cols, config.bs_spacing_m
    )


class Simulation:
    """Mutable state of one run; strictly single-threaded and seed-deterministic.

    To set the levels between steps, assign a new list to levels; the step
    never mutates a list it built, and reuses the roles its battery pass
    read only while levels is still the list that pass wrote.
    """

    def __init__(
        self,
        config: SimConfig,
        profiles: LoadProfileSet | None = None,
        harvest: HarvestTraceSet | None = None,
        serving_log: list[frozenset[int]] | None = None,
    ) -> None:
        self.config = config
        # slot t's serving set: read from the log once it holds t, else the
        # fleet steps and appends it (see run_variants)
        self.serving_log = serving_log
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
        self.loss = topology.loss_model_for(self.grid, config.phi_max_J, config.mini_slot_s)
        # every hop count on the lattice, so allocation never re-derives a fraction
        self.fractions = [
            self.loss.delivered_fraction(d) for d in range(config.rows + config.cols - 1)
        ]
        self.ids = list(range(config.n_bs))
        self.positions = {i: divmod(i, config.cols) for i in self.ids}
        self.on_grid = [i in config.on_grid_ids for i in self.ids]
        # per-station state, indexed by station id
        self.levels: list[float] = [config.initial_fill_fraction * config.beta_max_J] * config.n_bs
        # each profile value is checked here once, not per station in every slot
        for k, row in enumerate(profiles.clusters):
            for slot, value in enumerate(row):
                if not (0.0 <= value <= 1.0):
                    raise ValueError(
                        f"load profile cluster {k}, slot {slot}: "
                        f"load_fraction must be in [0, 1], got {value}"
                    )
        # each station's load cluster: consumption is computed once per cluster
        self.cluster_of = [profiles.assignment[i] for i in self.ids]
        jitter_rng = random.Random(derive_seed(config.seed, _SEED_JITTER))
        self.jitter = [
            1.0
            if config.harvest_jitter == 0.0
            else jitter_rng.uniform(1.0 - config.harvest_jitter, 1.0 + config.harvest_jitter)
            for _ in self.ids
        ]
        self.policy_rng = random.Random(derive_seed(config.seed, _SEED_POLICY))
        self.fleet = make_fleet(config)
        # (level list, its roles), as the last battery pass wrote them
        self._roles: tuple[list[float] | None, list] = (None, [])

    def step(self, t: int) -> tuple[SlotMetrics, list[TransferJob]]:
        cfg = self.config
        n = cfg.n_bs
        cap, low, up = cfg.beta_max_J, cfg.beta_low_J, cfg.beta_up_J
        on_grid = self.on_grid
        # no per-station list is mutated once built: battery_steps returns
        # new ones, so the slot's metrics need no copies
        levels_start = self.levels

        # mobility first: the association set is this slot's priority input
        log = self.serving_log
        if log is None or t == len(log):
            serving = self.fleet.step()
            if log is not None:
                log.append(serving)
        else:
            serving = log[t]

        classified, roles = self._roles
        if classified is not levels_start:
            roles = domain.roles_of(levels_start, on_grid, cap, low, up)
        demand, demands, surpluses = roles

        # a slot without consumers trades nothing and draws nothing from the
        # policy rng; the config already checked the policy and lam
        if demands:
            decisions, outage_ids = allocation.allocate_slot(
                cfg.policy,
                demands,
                serving,
                surpluses,
                (cfg.rows, cfg.cols),
                self.fractions.__getitem__,
                cfg.lam,
                self.policy_rng,
            )
        else:
            decisions, outage_ids = [], []

        # a slot without decisions moves no energy and reserves no link, so
        # the links a busy slot reserved may stay until the next busy slot
        # clears them
        if decisions:
            self.grid.clear_reservations()
            jobs, flows, delivered, shortfall_ids, n_overruns = transfer.execute_transfers(
                decisions, self.grid, self.positions, n, cfg.mini_slot_s, cfg.xi_s, cfg.phi_max_J, cfg.delta_s
            )
        else:
            jobs, flows, delivered, shortfall_ids, n_overruns = [], [0.0] * n, [0.0] * n, [], 0

        solar, wind = self.harvest.sample(t)
        harvest_J = ingest.harvest_select(solar, wind, cfg.offpeak_threshold_J)
        harvested = [j * harvest_J for j in self.jitter]
        k = t % self.slots_per_day
        idle, peak = cfg.idle_energy_J, cfg.max_load_energy_J
        cluster_load = [domain.bs_consumption(row[k], idle, peak) for row in self.profiles.clusters]
        consumption = [cluster_load[c] for c in self.cluster_of]

        self.levels, purchases, clamped, capped, *next_roles = domain.battery_steps(
            levels_start, harvested, consumption, flows, on_grid, cap, low, up
        )
        self._roles = self.levels, next_roles

        return SlotMetrics(
            slot=t,
            level_J=levels_start,
            level_end_J=self.levels,
            n_sources=len(surpluses),
            n_consumers=len(demands),
            demand_J=demand,
            delivered_J=delivered,
            flow_J=flows,
            purchase_J=purchases,
            harvest_J=harvested,
            consumption_J=consumption,
            association=serving,
            outage_ids=outage_ids,
            shortfall_ids=shortfall_ids,
            clamped_ids=clamped,
            capped_ids=capped,
            n_overruns=n_overruns,
        ), jobs

    def run(self, sink: SlotSink | None = None):
        """Step every slot into the sink and return what its close() returns.

        The default sink keeps the whole run as a RunResult; a streaming
        sink keeps O(stations) state however long the horizon. A slot that
        raises closes the sink before the error propagates.
        """
        if sink is None:
            sink = ResultSink(self.config)
        return _feed(sink, map(self.step, range(self.config.horizon_slots)))


SinkFactory = Callable[[SimConfig], "SlotSink"]


def run(
    config: SimConfig,
    profiles: LoadProfileSet | None = None,
    harvest: HarvestTraceSet | None = None,
    sink_for: SinkFactory | None = None,
):
    """Build and execute one run; traces may be injected for shared-trace studies.

    Returns a RunResult, or what the sink built by sink_for(config) returns.
    """
    sim = Simulation(config, profiles, harvest)
    return sim.run(sink_for(config) if sink_for else None)


# the only fields a variant may change: the traces and the mobility that
# run_variants shares are built from every other field
_VARIANT_KEYS = ("policy", "lam")


def run_variants(
    config: SimConfig, overrides: Sequence[Mapping[str, object]], sink_for: SinkFactory | None = None
) -> list[tuple[Mapping[str, object], object]]:
    """Run config once per override mapping, one after another, over shared inputs.

    Every variant reads the same traces, and the same per-slot serving
    sets: the first variant's fleet steps and fills the log, and every
    later variant reads it instead of stepping its own. Returns
    (override, result) pairs in order; each result is a RunResult, or what
    the sink built by sink_for(variant config) returns.
    """
    for override in overrides:
        for key in override:
            if key not in _VARIANT_KEYS:
                raise ConfigError(
                    f"run_variants cannot vary {key!r}: variants share traces and mobility, "
                    f"so only {', '.join(_VARIANT_KEYS)} may differ"
                )
    # every variant config is validated before the first run
    configs = [dataclasses.replace(config, **override) for override in overrides]
    profiles, harvest = build_traces(config)
    serving_log: list[frozenset[int]] = []
    out = []
    for override, cfg in zip(overrides, configs):
        sim = Simulation(cfg, profiles, harvest, serving_log)
        out.append((override, sim.run(sink=sink_for(cfg) if sink_for else None)))
    return out


def compare(config: SimConfig, policies: Sequence[str], sink_for: SinkFactory | None = None) -> dict:
    """Run several policies against identical traces, mobility and seed.

    Results are keyed by policy, so a repeated policy raises ConfigError
    before any run.
    """
    for k, policy in enumerate(policies):
        if policy in policies[:k]:
            raise ConfigError(f"policy {policy!r} is listed twice; compare runs each policy once")
    variants = run_variants(config, [{"policy": policy} for policy in policies], sink_for)
    return {override["policy"]: result for override, result in variants}


def sweep_lambda(
    config: SimConfig, values: Sequence[float], sink_for: SinkFactory | None = None
) -> list[tuple[float, object]]:
    """Run the configured policy once per control-weight value, same traces and mobility."""
    variants = run_variants(config, [{"lam": lam} for lam in values], sink_for)
    return [(override["lam"], result) for override, result in variants]


def coverage_pct(demand_J: float, delivered_J: float) -> float:
    """Delivered energy as a percentage of demand; full when nothing was asked."""
    if demand_J == 0.0:
        return 100.0
    return 100.0 * delivered_J / demand_J


# ---------------------------------------------------------------------------
# Slot sinks. Simulation.run hands each slot to one; the file writers and
# the in-memory result are SummarySinks, so every run's totals come from one
# SummarySink.add and its rows from the formatters below, and a streamed run
# and a stored one write the same bytes. Float fields use repr so identical
# runs write identical bytes.
# ---------------------------------------------------------------------------


# one metrics.csv row; every field is an int or a float, so repr renders each.
# queue_sum_J is always 0.0, as every virtual queue is (see
# allocation.lyapunov_ring_picks); the column stays so the file keeps its bytes
SlotRow = collections.namedtuple(
    "SlotRow",
    "slot n_sources n_consumers demand_J delivered_J gross_J flow_sum_J purchase_J harvest_J"
    " consumption_J outages shortfalls overruns assoc_size min_level_offgrid_J"
    " min_restored_offgrid_J mean_level_J queue_sum_J",
)

_METRICS_HEADER = ",".join(SlotRow._fields)
_TRANSFERS_HEADER = (
    "slot,job_id,source,consumer,gross_J,fraction,delivered_J,hops,"
    "mini_slots,start_mini_slot,occupancy_s,completion_s,status,shortfall,route"
)
_TRAJECTORIES_HEADER = "slot,group,x_m,y_m,serving_bs"


def metrics_line(row: SlotRow) -> str:
    return ",".join(map(repr, row))


class FloatReprs(dict):
    """repr of each float looked up, rendered once per distinct value.

    Equal floats share a repr except +0.0 and -0.0, which are equal keys,
    so zeros are rendered every time and never stored. A sink owns one, so
    it lives as long as the sink and holds only the values it wrote.
    """

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def transfer_line(slot: int, job: TransferJob, reprs: FloatReprs) -> str:
    """One transfers.csv row; fraction and the two times take few values, so reprs renders them."""
    d = job.decision
    return (
        f"{slot},{job.job_id},{d.source_id},{d.consumer_id},{d.gross_J!r},"
        f"{reprs[d.fraction]},{d.delivered_J!r},{d.hops},{job.mini_slots},"
        f"{job.start_mini_slot},{reprs[job.occupancy_s]},{reprs[job.completion_s]},"
        f"{job.status},{int(d.shortfall)},{job.route.text}"
    )


def trajectory_line(row: tuple[int, int, float, float, int]) -> str:
    slot, group, x, y, bs = row
    return f"{slot},{group},{x!r},{y!r},{bs}"


def _total(values: Sequence[float]) -> float:
    """left_sum of a slot's per-station vector, folded only when an entry is non-zero.

    Left to right from the int 0, a non-empty vector of signed zeros sums
    to +0.0, so a quiet slot's zeros skip the loop and keep their bits.
    """
    return left_sum(values) if any(values) else 0.0


class SlotSink(Protocol):
    """Receives a run one slot at a time; Simulation.run returns what close() returns.

    A slot is its metrics and its jobs. A sink that wants vehicle positions
    steps a fleet of its own from make_fleet, as FileSink does.
    """

    def slot(self, metrics: SlotMetrics, jobs: Sequence[TransferJob]) -> None: ...

    def close(self) -> object: ...


class SummarySink:
    """A run's summary totals, fed one slot at a time in slot order.

    Each total starts from the int 0 and adds one slot's value, as
    left_sum does over a stored list, and each minimum replaces the
    running one only when strictly lower, as min does, so the summary of a
    streamed run equals that of the stored run bit for bit. The restored
    level of a station is its level plus the energy delivered to it that
    slot: the level the allocator restores a deficient station to, at or
    above the lower threshold under a policy that meets every demand.
    With keep_series, each slot's demand and delivered totals are kept too.

    Zero rule: a slot's zeros are not added up. A vector with no non-zero
    entry (any() is false) totals +0.0, which is what left_sum gives for
    signed zeros; and with no non-zero delivery, the restored minimum is
    the level minimum unless that is a zero. Each short-cut keeps every bit.
    """

    def __init__(self, config: SimConfig, keep_series: bool = False) -> None:
        self.config = config
        self.offgrid = [i for i in range(config.n_bs) if i not in config.on_grid_ids]
        self.n_slots = 0
        self.demand = self.delivered = self.negative_flow = self.purchase = 0
        self.harvest = self.consumption = self.level = 0
        self.demand_slots = self.unmet_slots = 0
        self.outages = self.shortfalls = self.overruns = self.clamps = 0
        self.min_level = self.min_restored = math.inf
        self.demand_series: list[float] | None = [] if keep_series else None
        self.delivered_series: list[float] | None = [] if keep_series else None

    def add(self, m: SlotMetrics) -> SlotRow:
        """Fold one slot into the totals and return its metrics row."""
        flows, received = m.flow_J, m.delivered_J
        demand = _total(m.demand_J)
        delivered = _total(received)
        negative = left_sum((f for f in flows if f < 0.0), 0.0) if any(flows) else 0.0
        purchase = _total(m.purchase_J)
        harvest = _total(m.harvest_J)
        consumption = _total(m.consumption_J)
        level = _total(m.level_J)
        min_level = min_restored = 0.0
        if self.offgrid:
            offgrid, levels = self.offgrid, m.level_J
            min_level = min(map(levels.__getitem__, offgrid))
            if min_level and not any(received):
                # a signed-zero delivery leaves a non-zero level's bits alone, so
                # both minima stop at the same station and read the same
                min_restored = min_level
            else:
                min_restored = min(
                    map(operator.add, map(levels.__getitem__, offgrid), map(received.__getitem__, offgrid))
                )
            if min_level < self.min_level:
                self.min_level = min_level
            if min_restored < self.min_restored:
                self.min_restored = min_restored
        self.n_slots += 1
        self.demand += demand
        self.delivered += delivered
        self.negative_flow += negative
        self.purchase += purchase
        self.harvest += harvest
        self.consumption += consumption
        self.level += level
        self.demand_slots += demand > 0
        self.unmet_slots += delivered < demand - 1e-6
        self.outages += len(m.outage_ids)
        self.shortfalls += len(m.shortfall_ids)
        self.overruns += m.n_overruns
        self.clamps += len(m.clamped_ids)
        if self.demand_series is not None:
            self.demand_series.append(demand)
            self.delivered_series.append(delivered)
        return SlotRow(
            m.slot, m.n_sources, m.n_consumers,
            demand, delivered, -negative, _total(flows), purchase, harvest, consumption,
            len(m.outage_ids), len(m.shortfall_ids), m.n_overruns, len(m.association),
            min_level, min_restored, level / self.config.n_bs, 0.0,
        )

    def theorem(self) -> TheoremDiagnostic | None:
        """The penalty-bound diagnostic against the run's mean demand; None without slots.

        Every queue mean is 0, so none is passed: left_sum(()) is the int 0,
        and (0 - cap) ** 2 has the bits of (0.0 - cap) ** 2.
        """
        n, cfg = self.n_slots, self.config
        if not n:
            return None
        return allocation.theorem1_diagnostic(
            self.delivered / n,
            (),
            cfg.lam,
            cfg.beta_max_J,
            target_value=self.demand / n,
        )

    def summary(self, theorem: TheoremDiagnostic | None) -> dict[str, object]:
        cfg, n = self.config, self.n_slots
        summary: dict[str, object] = {
            "policy": cfg.policy,
            "lam": cfg.lam,
            "seed": cfg.seed,
            "horizon_slots": n,
            "total_demand_J": self.demand,
            "total_delivered_J": self.delivered,
            "total_gross_J": -self.negative_flow,
            "total_purchased_J": self.purchase,
            "total_harvest_J": self.harvest,
            "total_consumption_J": self.consumption,
            "demand_coverage_pct": coverage_pct(self.demand, self.delivered),
            "demand_slots": self.demand_slots,
            "unmet_slots": self.unmet_slots,
            "outage_events": self.outages,
            "shortfall_events": self.shortfalls,
            "overrun_jobs": self.overruns,
            "clamp_events": self.clamps,
            "mean_eb_J": self.level / (n * cfg.n_bs) if n else 0.0,
            "min_offgrid_level_J": self.min_level,
            "min_offgrid_restored_J": self.min_restored,
            "c2_restored": (
                self.min_restored >= cfg.beta_low_J - 1e-6 if n and self.offgrid else True
            ),
        }
        if theorem is not None:
            summary["theorem_lhs_J"] = theorem.lhs
            summary["theorem_rhs_J"] = theorem.rhs
            summary["theorem_target_J"] = theorem.target_value
            summary["theorem_satisfied"] = theorem.satisfied
            summary["theorem_skipped"] = theorem.skipped
        for key, value in config_items(cfg):
            summary[f"config.{key}"] = value
        return summary

    def slot(self, metrics, jobs) -> None:
        self.add(metrics)

    def close(self) -> RunSummary:
        theorem = self.theorem()
        return RunSummary(
            self.config,
            theorem,
            self.summary(theorem),
            demand_series=self.demand_series,
            delivered_series=self.delivered_series,
        )


def _output_path(out_dir: str | Path, prefix: str, name: str) -> Path:
    suffix = "txt" if name == "summary" else "csv"
    return Path(out_dir) / f"{prefix}_{name}.{suffix}" if prefix else Path(out_dir) / f"{name}.{suffix}"


def _open_stream(path: Path, header: str) -> TextIO:
    # write-through: each row goes straight into the file's byte buffer, so
    # no list of pending row strings builds up between flushes
    handle = path.open("w")
    handle.reconfigure(write_through=True)
    handle.write(header + "\n")
    return handle


class FileSink(SummarySink):
    """Streams metrics.csv, transfers.csv and, when asked, trajectories.csv as the run steps.

    summary.txt needs the whole run, so write_outputs writes it from the
    RunSummary that close() returns. The vehicle dump steps the sink's own
    fleet (make_fleet) once per slot: positions depend on the config alone,
    and a run_variants replay never moves the run's fleet. The file is
    created with its first row, so a run without vehicle rows writes none.
    """

    def __init__(
        self,
        config: SimConfig,
        out_dir: str | Path,
        prefix: str = "",
        trajectories: bool = False,
        keep_series: bool = False,
    ) -> None:
        super().__init__(config, keep_series)
        self.fleet = make_fleet(config) if trajectories else None
        self.out_dir, self.prefix = out_dir, prefix
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        self.paths = {name: _output_path(out_dir, prefix, name) for name in ("metrics", "transfers")}
        self._metrics = _open_stream(self.paths["metrics"], _METRICS_HEADER)
        self._transfers = _open_stream(self.paths["transfers"], _TRANSFERS_HEADER)
        self._trajectories: TextIO | None = None
        self._reprs = FloatReprs()

    def slot(self, metrics, jobs) -> None:
        self._metrics.write(metrics_line(self.add(metrics)) + "\n")
        if jobs:
            slot, reprs = metrics.slot, self._reprs
            self._transfers.write("".join([transfer_line(slot, job, reprs) + "\n" for job in jobs]))
        if self.fleet is not None:
            self.fleet.step()
            for row in self.fleet.trajectory_rows(metrics.slot):
                if self._trajectories is None:
                    self.paths["trajectories"] = _output_path(self.out_dir, self.prefix, "trajectories")
                    self._trajectories = _open_stream(self.paths["trajectories"], _TRAJECTORIES_HEADER)
                self._trajectories.write(trajectory_line(row) + "\n")

    def close(self) -> RunSummary:
        for handle in (self._metrics, self._transfers, self._trajectories):
            if handle is not None:
                handle.close()
        result = super().close()
        result.paths = self.paths
        return result


class ResultSink(SummarySink):
    """Keeps every slot and job: the in-memory RunResult."""

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config, keep_series=True)
        self.slots: list[SlotMetrics] = []
        self.jobs: list[tuple[int, TransferJob]] = []

    def slot(self, metrics, jobs) -> None:
        self.add(metrics)
        self.slots.append(metrics)
        self.jobs.extend((metrics.slot, job) for job in jobs)

    def close(self) -> RunResult:
        return RunResult(**vars(super().close()), slots=self.slots, jobs=self.jobs)


def _feed(sink: SlotSink, slots: Iterable[tuple[SlotMetrics, Sequence[TransferJob]]]):
    """Hand each (metrics, jobs) to the sink in order and return what its close() returns.

    A slot that raises closes the sink before the error propagates: its
    files are released, and what it built of the run is dropped.
    """
    try:
        for metrics, jobs in slots:
            sink.slot(metrics, jobs)
    except BaseException:
        sink.close()
        raise
    return sink.close()


def _replay(result: RunResult, sink: SlotSink):
    """Feed a stored run's slots to a sink, as Simulation.run did."""
    jobs: dict[int, list[TransferJob]] = {}
    for slot, job in result.jobs:
        jobs.setdefault(slot, []).append(job)
    return _feed(sink, ((m, jobs.get(m.slot, ())) for m in result.slots))


def summarize(result: RunResult) -> dict[str, object]:
    return _replay(result, SummarySink(result.config)).summary


def summary_rows(result: RunSummary) -> list[str]:
    rows = []
    for key, value in result.summary.items():
        if isinstance(value, float):
            rows.append(f"{key} = {value!r}")
        else:
            rows.append(f"{key} = {value}")
    return rows


def write_outputs(result: RunSummary, out_dir: str | Path, prefix: str = "") -> dict[str, Path]:
    """Write a run's files and return the path of each: metrics, transfers, summary, trajectories.

    A stored RunResult is replayed through a FileSink. A streamed
    RunSummary already wrote its data files while it ran; only summary.txt
    is written here, and the returned paths include the streamed files.
    """
    if isinstance(result, RunResult):
        streamed = _replay(result, FileSink(result.config, out_dir, prefix))
    else:
        streamed = result
    paths = dict(streamed.paths)
    paths["summary"] = _output_path(out_dir, prefix, "summary")
    paths["summary"].write_text("\n".join(summary_rows(result)) + "\n")
    if "trajectories" in paths:
        paths["trajectories"] = paths.pop("trajectories")
    return paths
