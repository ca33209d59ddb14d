"""Left-to-right float sums: the same output bytes on every supported Python."""

import builtins
import dataclasses
import hashlib
import math
from pathlib import Path

import pytest

from ppgsim import allocation, cli, domain, engine, ingest, mobility, topology, transfer
from ppgsim.numeric import left_sum

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1.cfg"

# left to right: 1e16 + 1.0 rounds back to 1e16, so the total is 0.0; a
# compensated sum (builtin sum since 3.12, math.fsum) keeps the 1.0
CANCELLING = [1e16, 1.0, -1e16]


def compensated_sum(values, start=0):
    """A sum that does not round left to right on floats; ints stay ints, as with sum."""
    values = list(values)
    if all(isinstance(v, int) for v in [start, *values]):
        return builtins.sum(values, start)
    return math.fsum([start, *values])


def test_left_sum_adds_left_to_right():
    assert left_sum(CANCELLING) == 0.0
    assert math.fsum(CANCELLING) == 1.0
    assert left_sum(CANCELLING[::-1]) == 0.0
    assert left_sum([1.0, 1e16, -1e16]) == 0.0
    assert left_sum([1e16, -1e16, 1.0]) == 1.0


def test_left_sum_starts_like_sum():
    assert left_sum([]) == 0 and isinstance(left_sum([]), int)
    assert isinstance(left_sum([], 0.0), float)
    assert left_sum([2, 3]) == 5 and isinstance(left_sum([2, 3]), int)
    assert left_sum((x for x in (0.5, 0.25)), 1.0) == 1.75


@pytest.fixture
def compensated_builtin(monkeypatch):
    """Every ppgsim module's sum becomes a compensated one, as the builtin is since 3.12.

    A total still summed with the builtin then picks it up, on any interpreter.
    """
    for module in (allocation, cli, domain, engine, ingest, mobility, topology, transfer):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_totals_that_reach_outputs_round_left_to_right(compensated_builtin, tmp_path):
    assert ingest.window_sums(CANCELLING + [2.0, 2.0, 2.0], 3) == [0.0, 6.0]

    n = len(CANCELLING)
    cancelling, zeros = tuple(CANCELLING), (0.0,) * n
    # the negative flows -1e16, -1.0, -1.0 lose both ones left to right
    flows = (-1e16, -1.0, -1.0)
    metrics = engine.SlotMetrics(
        0, cancelling, zeros, ("idle",) * n, cancelling, cancelling,
        flows, cancelling, cancelling, cancelling, frozenset(), (), (), (), (), 0,
    )
    assert metrics.total_demand_J == metrics.total_delivered_J == 0.0
    assert metrics.total_flow_J == -1e16
    config = engine.SimConfig(rows=1, cols=3, on_grid_ids=())
    row = engine.SummaryAccumulator(config).add(metrics)
    assert (row.purchase_J, row.harvest_J, row.consumption_J, row.mean_level_J, row.queue_sum_J) == (0.0,) * 5
    assert (row.gross_J, row.flow_sum_J) == (1e16, -1e16)

    def coverage(pairs):
        totals = engine.SummaryAccumulator(config)
        for demand_J, delivered_J in pairs:
            totals.add(dataclasses.replace(
                metrics, demand_J=(demand_J, 0.0, 0.0), delivered_J=(delivered_J, 0.0, 0.0)
            ))
        return totals.summary(None)["demand_coverage_pct"]

    # slot totals summed over the run: demand 0.0 (full coverage), then delivered 0.0
    assert coverage((x, 0.0) for x in CANCELLING) == 100.0
    assert coverage((1.0, x) for x in CANCELLING) == 0.0

    # per-station mean queues, then their sum over stations
    report = allocation.theorem1_report(CANCELLING, {0: CANCELLING}, 1.0, 0.0)
    assert (report.lhs, report.rhs) == (0.0, 0.0)
    report = allocation.theorem1_report([1.0], {i: [q] for i, q in enumerate(CANCELLING)}, 1.0, 0.0)
    assert report.rhs == 0.0

    series = [*CANCELLING, *[0.0] * 57]
    summary = engine.RunSummary(None, None, {}, demand_series=series, delivered_series=series)
    cli.emit_plot_data({"radial": summary}, tmp_path, hourly=True)
    assert (tmp_path / "demand.csv").read_text() == "hour,energy_J\n0,0.0\n"


@pytest.mark.parametrize("extra", [[], ["--hourly"]])
def test_reference_outputs_do_not_depend_on_the_builtin_sum(tmp_path, request, extra):
    """A compare run writes the same bytes when every module's sum is a compensated one."""

    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}

    argv = ["compare", "--config", str(REFERENCE_CONFIG), "--horizon", "100", *extra]
    assert cli.main([*argv, "--out", str(tmp_path / "builtin")]) == 0
    request.getfixturevalue("compensated_builtin")
    assert cli.main([*argv, "--out", str(tmp_path / "compensated")]) == 0
    assert digests(tmp_path / "compensated") == digests(tmp_path / "builtin")
