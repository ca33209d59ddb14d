"""Output checks built from independent arithmetic.

Every check reads only the files a run writes (``metrics.csv``,
``transfers.csv``, ``summary.txt`` and the compare plot series) plus the
scenario the benchmark handed the program, and returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path
from typing import Mapping, Sequence

REL = 1e-9


def close(a: float, b: float, rel: float = REL, scale: float = 0.0) -> bool:
    """Equal up to `rel` of the larger of |a|, |b| and `scale` (for sums)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale, 1e-300)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_series(path: Path) -> list[float]:
    return [float(row["energy_J"]) for row in read_csv(path)]


def parse_scenario(text: str) -> dict[str, str]:
    """The key = value scenario format the program reads."""
    items = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            items[key.strip()] = value.strip()
    return items


class Physics:
    """Cable and timing constants of a scenario, with the per-hop loss derived here."""

    def __init__(self, scenario: Mapping[str, str]) -> None:
        self.rows = int(scenario["rows"])
        self.cols = int(scenario["cols"])
        self.n_bs = self.rows * self.cols
        self.phi_max_J = float(scenario["phi_max_J"])
        self.mini_slot_s = float(scenario["mini_slot_s"])
        self.xi_s = float(scenario["xi_s"])
        self.delta_s = float(scenario["delta_s"])
        resistance = (
            float(scenario["resistivity"])
            * float(scenario["link_length_m"])
            / float(scenario["cross_section_mm2"])
        )
        power_W = self.phi_max_J / self.mini_slot_s
        self.hop_loss = resistance * power_W / float(scenario["dc_voltage_V"]) ** 2

    def node(self, bs_id: int) -> tuple[int, int]:
        return divmod(bs_id, self.cols)


def check_transfers(transfers: Sequence[Mapping[str, str]], phys: Physics) -> list[str]:
    """Per-job arithmetic, route shape and TDM exclusivity of transfers.csv."""
    failures: list[str] = []
    busy: dict[tuple[str, tuple], list[tuple[int, int, str]]] = defaultdict(list)
    for row in transfers:
        where = f"transfers slot {row['slot']} job {row['job_id']}"
        gross, fraction, delivered = (float(row[k]) for k in ("gross_J", "fraction", "delivered_J"))
        hops, mini_slots, start = (int(row[k]) for k in ("hops", "mini_slots", "start_mini_slot"))
        if not close(delivered, gross * fraction, 1e-12):
            failures.append(f"{where}: delivered {delivered} != gross x fraction {gross * fraction}")
        if not close(fraction, (1.0 - phys.hop_loss) ** hops, 1e-12):
            failures.append(f"{where}: fraction {fraction} != (1 - h)^{hops}")
        src, dst = phys.node(int(row["source"])), phys.node(int(row["consumer"]))
        if hops != abs(src[0] - dst[0]) + abs(src[1] - dst[1]):
            failures.append(f"{where}: hops {hops} is not the Manhattan distance {src}->{dst}")
        route = [tuple(int(x) for x in hop.split(":")) for hop in row["route"].split("|")]
        steps = list(zip(route, route[1:]))
        if route[0] != src or route[-1] != dst or len(steps) != hops or any(
            abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 for a, b in steps
        ):
            failures.append(f"{where}: route {row['route']} is not a {hops}-step lattice path {src}->{dst}")
        if mini_slots != math.ceil(delivered / phys.phi_max_J):
            failures.append(f"{where}: mini_slots {mini_slots} for {delivered} J")
        if not close(float(row["occupancy_s"]), mini_slots * phys.mini_slot_s + phys.xi_s):
            failures.append(f"{where}: occupancy_s {row['occupancy_s']}")
        completion = float(row["completion_s"])
        if not close(completion, (start + mini_slots) * phys.mini_slot_s + phys.xi_s):
            failures.append(f"{where}: completion_s {completion} off its formula")
        if row["status"] != ("overrun" if completion > phys.delta_s else "done"):
            failures.append(f"{where}: status {row['status']} at completion {completion}")
        if row["shortfall"] not in ("0", "1"):
            failures.append(f"{where}: shortfall flag {row['shortfall']!r}")
        if mini_slots > 0:
            for a, b in steps:
                busy[(row["slot"], (min(a, b), max(a, b)))].append((start, start + mini_slots, row["job_id"]))
    for (slot, link), spans in busy.items():
        # sorted by start, any overlap shows between neighbours
        spans.sort()
        for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
            if start < end:
                failures.append(f"slot {slot} link {link}: jobs {first} and {second} share a mini-slot")
    return failures


def check_metrics(
    metrics: Sequence[Mapping[str, str]], transfers: Sequence[Mapping[str, str]]
) -> list[str]:
    """Per-slot metrics.csv totals against sums over transfers.csv."""
    failures: list[str] = []
    per_slot: dict[int, list[Mapping[str, str]]] = defaultdict(list)
    for row in transfers:
        per_slot[int(row["slot"])].append(row)
    for t, m in enumerate(metrics):
        if int(m["slot"]) != t:
            failures.append(f"metrics row {t} has slot {m['slot']}")
            break
        jobs = per_slot.pop(t, [])
        delivered = math.fsum(float(j["delivered_J"]) for j in jobs)
        gross = math.fsum(float(j["gross_J"]) for j in jobs)
        got_delivered, got_gross, flow = (float(m[k]) for k in ("delivered_J", "gross_J", "flow_sum_J"))
        if not close(got_delivered, delivered):
            failures.append(f"slot {t}: delivered_J {got_delivered} != transfers sum {delivered}")
        if not close(got_gross, gross):
            failures.append(f"slot {t}: gross_J {got_gross} != transfers sum {gross}")
        if not close(flow, delivered - gross, scale=gross) or flow > 0.0:
            failures.append(f"slot {t}: flow_sum_J {flow} != delivered - gross {delivered - gross}")
        if int(m["overruns"]) != sum(j["status"] == "overrun" for j in jobs):
            failures.append(f"slot {t}: overruns {m['overruns']} disagree with transfers")
        if int(m["shortfalls"]) != len({j["consumer"] for j in jobs if j["shortfall"] == "1"}):
            failures.append(f"slot {t}: shortfalls {m['shortfalls']} disagree with transfers")
    if per_slot:
        failures.append(f"transfers in slots {sorted(per_slot)[:5]} past the last metrics row")
    return failures


# summary key -> metrics.csv column it totals
SUMMARY_SUMS = {
    "total_demand_J": "demand_J",
    "total_delivered_J": "delivered_J",
    "total_gross_J": "gross_J",
    "total_purchased_J": "purchase_J",
    "total_harvest_J": "harvest_J",
    "total_consumption_J": "consumption_J",
}
SUMMARY_COUNTS = {
    "outage_events": "outages",
    "shortfall_events": "shortfalls",
    "overrun_jobs": "overruns",
}


def check_summary(summary: Mapping[str, str], metrics: Sequence[Mapping[str, str]]) -> list[str]:
    """Summary totals against column sums of metrics.csv."""
    failures: list[str] = []
    if int(summary["horizon_slots"]) != len(metrics):
        failures.append(f"summary horizon_slots {summary['horizon_slots']} != {len(metrics)} rows")
    for key, column in SUMMARY_SUMS.items():
        values = [float(m[column]) for m in metrics]
        total = math.fsum(values)
        if not close(float(summary[key]), total, scale=math.fsum(map(abs, values))):
            failures.append(f"summary {key} {summary[key]} != column sum {total}")
    for key, column in SUMMARY_COUNTS.items():
        total = sum(int(m[column]) for m in metrics)
        if int(summary[key]) != total:
            failures.append(f"summary {key} {summary[key]} != column sum {total}")
    demand = math.fsum(float(m["demand_J"]) for m in metrics)
    delivered = math.fsum(float(m["delivered_J"]) for m in metrics)
    coverage = 100.0 * delivered / demand if demand else 100.0
    if not close(float(summary["demand_coverage_pct"]), coverage):
        failures.append(f"summary demand_coverage_pct {summary['demand_coverage_pct']} != {coverage}")
    if int(summary["demand_slots"]) != sum(float(m["demand_J"]) > 0.0 for m in metrics):
        failures.append(f"summary demand_slots {summary['demand_slots']} disagrees with metrics")
    return failures


def check_run(out_dir: Path, prefix: str, phys: Physics) -> list[str]:
    """All single-run checks on one metrics/transfers/summary triple."""
    tag = f"{prefix}_" if prefix else ""
    metrics = read_csv(out_dir / f"{tag}metrics.csv")
    transfers = read_csv(out_dir / f"{tag}transfers.csv")
    summary = read_summary(out_dir / f"{tag}summary.txt")
    failures = check_transfers(transfers, phys)
    failures += check_metrics(metrics, transfers)
    failures += check_summary(summary, metrics)
    return [f"{tag or 'run'}: {f}" for f in failures]


def check_plot_series(out_dir: Path, policies: Sequence[str]) -> list[str]:
    """Compare plot series equal the per-slot metrics columns they restate."""
    failures: list[str] = []
    first = read_csv(out_dir / f"{policies[0]}_metrics.csv")
    if read_series(out_dir / "demand.csv") != [float(m["demand_J"]) for m in first]:
        failures.append(f"demand.csv differs from {policies[0]}_metrics.csv demand_J")
    for policy in policies:
        metrics = read_csv(out_dir / f"{policy}_metrics.csv")
        if read_series(out_dir / f"delivered_{policy}.csv") != [float(m["delivered_J"]) for m in metrics]:
            failures.append(f"delivered_{policy}.csv differs from {policy}_metrics.csv delivered_J")
    return failures


def check_policy_outcome(out_dir: Path) -> list[str]:
    """The paper's experiment: lyapunov serves all demand and delivers the most."""
    s = {p: read_summary(out_dir / f"{p}_summary.txt") for p in ("lyapunov", "radial", "random")}
    failures: list[str] = []
    lyapunov = s["lyapunov"]
    if float(lyapunov["demand_coverage_pct"]) < 100.0 - 1e-9:
        failures.append(f"lyapunov covers {lyapunov['demand_coverage_pct']}% of demand")
    if int(lyapunov["shortfall_events"]) or int(lyapunov["outage_events"]):
        failures.append(
            f"lyapunov has {lyapunov['shortfall_events']} shortfalls, {lyapunov['outage_events']} outages"
        )
    delivered = [float(s[p]["total_delivered_J"]) for p in ("lyapunov", "radial", "random")]
    if not delivered[0] >= delivered[1] >= delivered[2]:
        failures.append(f"delivered energy not ordered lyapunov >= radial >= random: {delivered}")
    return failures


def expected_harvest(
    solar_raw: Sequence[float],
    wind_raw: Sequence[float],
    samples_per_slot: int,
    scenario: Mapping[str, str],
) -> list[tuple[float, float]]:
    """Per-station (solar, wind) joules per slot: window sums scaled so the solar peak
    maps to solar_peak_fraction of the battery."""
    n = len(solar_raw) // samples_per_slot
    solar = [math.fsum(solar_raw[w * samples_per_slot : (w + 1) * samples_per_slot]) for w in range(n)]
    wind = [math.fsum(wind_raw[w * samples_per_slot : (w + 1) * samples_per_slot]) for w in range(n)]
    factor = float(scenario["solar_peak_fraction"]) * float(scenario["beta_max_J"]) / max(solar)
    return [(s * factor, w * factor) for s, w in zip(solar, wind)]


def check_harvest(
    metrics: Sequence[Mapping[str, str]],
    expected: Sequence[tuple[float, float]],
    scenario: Mapping[str, str],
) -> list[str]:
    """Each slot's harvest_J is n_bs x (solar if solar >= off-peak threshold, else wind)."""
    n_bs = int(scenario["rows"]) * int(scenario["cols"])
    threshold = float(scenario["offpeak_threshold_fraction"]) * float(scenario["beta_max_J"])
    failures: list[str] = []
    for m, (solar, wind) in zip(metrics, expected):
        got = float(m["harvest_J"])
        if close(solar, threshold):  # either side of the switch is right at the boundary
            allowed = (n_bs * solar, n_bs * wind)
        else:
            allowed = (n_bs * (solar if solar >= threshold else wind),)
        if not any(close(got, want) for want in allowed):
            failures.append(f"slot {m['slot']}: harvest_J {got} != {allowed[0]}")
    if len(metrics) > len(expected):
        failures.append(f"metrics has {len(metrics)} slots, the harvest file covers {len(expected)}")
    return failures
