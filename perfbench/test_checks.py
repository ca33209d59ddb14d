"""Each output check passes real ppgsim output and rejects a corrupted copy of it."""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ppgsim import cli  # noqa: E402

# half a day on the reference grid reaches the solar peak at noon
HORIZON = 750


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A short three-policy compare on the reference scenario."""
    out = tmp_path_factory.mktemp("compare")
    argv = ["compare", "--config", str(ROOT / workloads.REFERENCE), "--horizon", "240", "--out", str(out)]
    assert cli.main(argv) == 0
    scenario = checks.parse_scenario((ROOT / workloads.REFERENCE).read_text())
    return out, checks.Physics(scenario)


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """A trace-file run with a generated 1-second harvest file."""
    work = tmp_path_factory.mktemp("replay")
    rng = random.Random(5)
    scenario = checks.parse_scenario((ROOT / workloads.REFERENCE).read_text())
    clusters = workloads.make_profiles(rng, int(scenario["slots_per_day"]))
    solar, wind = workloads.make_harvest(rng, HORIZON * 60)
    profiles, harvest = workloads.write_traces(work, clusters, solar, wind)
    scenario.update(
        horizon_slots=str(HORIZON), harvest_jitter="0.0",
        profiles_path=str(profiles), harvest_path=str(harvest),
    )
    workloads.write_scenario(work / "replay.cfg", scenario)
    out = work / "out"
    assert cli.main(["run", "--config", str(work / "replay.cfg"), "--out", str(out)]) == 0
    return out, scenario, checks.expected_harvest(solar, wind, 60, scenario)


def corrupt(src: Path, dst_dir: Path, name: str, edit) -> Path:
    """Copy every output file to dst_dir, rewriting `name` through edit(lines)."""
    shutil.copytree(src, dst_dir)
    path = dst_dir / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return dst_dir


def set_field(lines: list[str], row: int, column: str, value: str) -> list[str]:
    header = lines[0].split(",")
    fields = lines[row].split(",")
    fields[header.index(column)] = value
    lines[row] = ",".join(fields)
    return lines


def first_row(lines: list[str], column: str, predicate) -> int:
    index = lines[0].split(",").index(column)
    return next(i for i, line in enumerate(lines[1:], 1) if predicate(line.split(",")[index]))


def test_valid_outputs_pass(reference, replay):
    out, phys = reference
    for policy in workloads.POLICIES:
        assert checks.check_run(out, policy, phys) == []
    assert checks.check_plot_series(out, workloads.POLICIES) == []
    replay_out, scenario, expected = replay
    assert checks.check_run(replay_out, "", checks.Physics(scenario)) == []
    assert checks.check_harvest(checks.read_csv(replay_out / "metrics.csv"), expected, scenario) == []


def test_changed_metrics_delivered_is_rejected(reference, tmp_path):
    out, phys = reference
    name = "lyapunov_metrics.csv"

    def edit(lines):
        row = first_row(lines, "delivered_J", lambda v: float(v) > 0)
        value = float(lines[row].split(",")[4])
        return set_field(lines, row, "delivered_J", repr(value * 1.001))

    bad = corrupt(out, tmp_path / "bad", name, edit)
    failures = checks.check_run(bad, "lyapunov", phys)
    assert any("delivered_J" in f and "transfers sum" in f for f in failures)


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("delivered_J", "123.0", "gross x fraction"),
        ("fraction", "0.5", "(1 - h)"),
        ("hops", "7", "Manhattan"),
        ("route", "0:0|0:2", "lattice path"),
        ("status", "overrun", "status"),
        ("completion_s", "61.0", "completion_s"),
    ],
)
def test_corrupted_transfer_field_is_rejected(reference, tmp_path, column, value, message):
    out, phys = reference
    bad = corrupt(out, tmp_path / "bad", "lyapunov_transfers.csv", lambda lines: set_field(lines, 1, column, value))
    failures = checks.check_transfers(checks.read_csv(bad / "lyapunov_transfers.csv"), phys)
    assert any(message in f for f in failures), failures


def test_overlapping_reservations_are_rejected(reference, tmp_path):
    out, phys = reference

    def duplicate_job(lines):
        # a second job on the same route and mini-slots as the first one
        fields = lines[1].split(",")
        fields[1] = "999"
        return lines[:2] + [",".join(fields)] + lines[2:]

    bad = corrupt(out, tmp_path / "bad", "lyapunov_transfers.csv", duplicate_job)
    failures = checks.check_transfers(checks.read_csv(bad / "lyapunov_transfers.csv"), phys)
    assert any("share a mini-slot" in f for f in failures), failures


def test_changed_summary_total_is_rejected(reference, tmp_path):
    out, phys = reference

    def edit(lines):
        return [
            f"total_harvest_J = {float(l.partition(' = ')[2]) + 1.0!r}" if l.startswith("total_harvest_J") else l
            for l in lines
        ]

    bad = corrupt(out, tmp_path / "bad", "radial_summary.txt", edit)
    assert any("total_harvest_J" in f for f in checks.check_run(bad, "radial", phys))


def test_changed_plot_series_is_rejected(reference, tmp_path):
    out, _ = reference
    bad = corrupt(out, tmp_path / "bad", "delivered_random.csv", lambda lines: set_field(lines, 5, "energy_J", "1.5"))
    assert checks.check_plot_series(bad, workloads.POLICIES) == ["delivered_random.csv differs from random_metrics.csv delivered_J"]


def test_changed_harvest_is_rejected(replay, tmp_path):
    out, scenario, expected = replay
    bad = corrupt(out, tmp_path / "bad", "metrics.csv", lambda lines: set_field(lines, 700, "harvest_J", "1000.0"))
    failures = checks.check_harvest(checks.read_csv(bad / "metrics.csv"), expected, scenario)
    assert len(failures) == 1 and failures[0].startswith("slot 699: harvest_J 1000.0")


def test_policy_outcome_rejects_misordered_delivery(tmp_path):
    for policy, delivered in (("lyapunov", 10.0), ("radial", 12.0), ("random", 9.0)):
        (tmp_path / f"{policy}_summary.txt").write_text(
            f"total_delivered_J = {delivered!r}\ndemand_coverage_pct = 100.0\n"
            "shortfall_events = 0\noutage_events = 0\n"
        )
    assert checks.check_policy_outcome(tmp_path) == [
        "delivered energy not ordered lyapunov >= radial >= random: [10.0, 12.0, 9.0]"
    ]


def test_changed_byte_changes_the_digest(reference, tmp_path):
    out, _ = reference
    bad = corrupt(out, tmp_path / "bad", "random_metrics.csv", lambda lines: lines + [""])
    assert run.output_digest(bad) != run.output_digest(out)
