"""Regression lock on the committed reference scenario.

The golden file freezes the headline numbers of the three-policy comparison
on configs/table1.cfg. Any change to the synthetic generators, the
allocation policies, or the engine's event order that shifts these values
shows up here first. The digest file freezes every byte that the comparison
and a trajectory dump on the same scenario write.
"""

import hashlib
from pathlib import Path

from ppgsim.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "reference_summary.txt"
REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1.cfg"

KEYS = (
    "total_demand_J", "total_delivered_J", "demand_coverage_pct", "demand_slots",
    "unmet_slots", "outage_events", "shortfall_events", "overrun_jobs",
    "clamp_events", "mean_eb_J", "min_offgrid_restored_J", "c2_restored",
)


def render(results) -> list[str]:
    lines = []
    for policy in ("lyapunov", "radial", "random"):
        summary = results[policy].summary
        for key in KEYS:
            value = summary[key]
            rendered = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{policy}.{key} = {rendered}")
    return lines


def test_reference_comparison_matches_golden_summary(reference_runs):
    results, _ = reference_runs
    expected = GOLDEN.read_text().splitlines()
    assert render(results) == expected


DIGESTS = DATA / "reference_digests.txt"


def test_reference_outputs_match_committed_digests(tmp_path):
    """Every byte of the reference compare's files and of a trajectory dump is locked.

    The summary keys above miss a change confined to, say, the transfer log
    or the vehicle positions; the digests do not.
    """
    config = str(REFERENCE_CONFIG)
    assert main(["compare", "--config", config, "--out", str(tmp_path / "compare")]) == 0
    assert main([
        "run", "--config", config, "--horizon", "200", "--dump-trajectories",
        "--out", str(tmp_path / "run"),
    ]) == 0
    expected = {}
    for line in DIGESTS.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            expected[name] = digest
    written = [*(tmp_path / "compare").iterdir(), tmp_path / "run" / "trajectories.csv"]
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in written
    }
    assert got == expected
