"""Regression lock on the committed reference scenario.

The golden file freezes the headline numbers of the three-policy comparison
on configs/table1.cfg. Any change to the synthetic generators, the
allocation policies, or the engine's event order that shifts these values
shows up here first. The digest file freezes every byte that the comparison
and a trajectory dump on the same scenario write, and the grid digest file
every byte of one run on a 20x30 grid, where the allocator walks far rings.
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
GRID_DIGESTS = DATA / "grid_digests.txt"
# the reference scenario scaled to a 20x30 grid at a low start
GRID_OVERRIDES = {
    "rows": "20", "cols": "30", "initial_fill_fraction": "0.32", "horizon_slots": "120",
    "on_grid_ids": "64,120,137,261,582",
}


def read_digests(path: Path) -> dict[str, str]:
    expected = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            expected[name] = digest
    return expected


def digests(paths, root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


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
    written = [*(tmp_path / "compare").iterdir(), tmp_path / "run" / "trajectories.csv"]
    assert digests(written, tmp_path) == read_digests(DIGESTS)


def test_grid_run_matches_committed_digests(tmp_path):
    """Every byte of one lyapunov run on a 20x30 grid is locked.

    On the 4x6 reference no pick walks past ring 5 of its consumer; here
    many do, so the far part of the ring walk and long routes are covered.
    """
    lines, replaced = [], set()
    for line in REFERENCE_CONFIG.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if key in GRID_OVERRIDES:
            line = f"{key} = {GRID_OVERRIDES[key]}"
            replaced.add(key)
        lines.append(line)
    assert replaced == set(GRID_OVERRIDES)
    config = tmp_path / "grid.cfg"
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    written = [out / name for name in ("metrics.csv", "transfers.csv", "summary.txt")]
    assert digests(written, out) == read_digests(GRID_DIGESTS)
