"""The benchmark's tracer still finds every function it wraps.

perfbench/worker.py wraps ppgsim functions by qualified name and leaves out
the metrics of a target it cannot find, or of a hooked span whose
arguments or result no longer have the shape it reads. A renamed function
therefore shows up only as a shorter metric list. These tests read
perfbench/ and BENCHMARK.json and write neither.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ppgsim.engine import SimConfig, config_items
from ppgsim.ingest import synthetic_profiles, write_harvest, write_profiles

REPO_ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = REPO_ROOT / "perfbench"


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


worker = load_worker()
TARGETS = sorted(
    {target for targets in [*worker.LAYERS.values(), *worker.COUNTERS.values()] for target in targets}
)


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    module_name, _, qualname = target.partition(".")
    module = importlib.import_module(f"ppgsim.{module_name}")
    assert worker._lookup(module, qualname) is not None, f"{target} is gone"


def traced(tmp_path, config, *argv):
    """Report of one `worker.py --trace 1` execution of ppgsim on config."""
    scenario = tmp_path / "small.cfg"
    scenario.write_text("".join(f"{key} = {value}\n" for key, value in config_items(config)))
    report = tmp_path / "report.json"
    completed = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "worker.py"),
            "--src", str(REPO_ROOT / "src"), "--report", str(report), "--trace", "1", "--",
            *argv, "--config", str(scenario), "--out", str(tmp_path / "out"),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(report.read_text())


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    config = SimConfig(rows=2, cols=3, on_grid_ids=(0,), horizon_slots=10, initial_fill_fraction=0.32)
    result = traced(tmp_path, config, "compare", "--policies", "lyapunov,radial,random")
    assert result["exit_code"] == 0
    assert result["slots"] == 3 * config.horizon_slots
    declared = {m["name"] for m in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py adds the overhead from a paired untraced execution
    reported = set(result["layers"]) | {"trace.overhead_s"}
    assert sorted(declared - reported) == []
    assert sorted(reported - declared) == []


def test_file_fed_run_counts_every_parsed_row(tmp_path):
    slots_per_day, samples = 24, 30
    profiles, harvest = tmp_path / "profiles.csv", tmp_path / "harvest.csv"
    write_profiles(profiles, synthetic_profiles(3, slots_per_day))
    write_harvest(harvest, [1.0 + t % 4 for t in range(samples)], [0.5] * samples, 30.0)
    config = SimConfig(
        rows=2, cols=3, on_grid_ids=(0,), horizon_slots=samples // 2, slots_per_day=slots_per_day,
        profiles_path=str(profiles), harvest_path=str(harvest),
    )
    result = traced(tmp_path, config, "run")
    assert result["exit_code"] == 0
    assert result["slots"] == config.horizon_slots
    # ingest.rows adds up the first element of each parser's result
    assert result["layers"]["ingest.rows"] == slots_per_day + samples
    assert result["layers"]["ingest.load_s"] > 0


# Non-zero on a traced compare of the scenario below: a change that stops
# calling what one of these wraps, or reshapes its arguments or result,
# turns it to 0 or drops it and fails the test.
COUNTED = [
    "allocation.allocate_s", "allocation.consumers", "allocation.decisions",
    "allocation.outages", "allocation.shortfalls",
    "transfer.execute_s", "transfer.jobs", "transfer.mini_slots",
    "topology.route_calls", "topology.route_s", "topology.reserve_calls", "topology.clear_s",
    "ingest.sample_calls", "ingest.sample_s", "ingest.synth_s",
    "engine.step_s", "engine.step_self_s", "engine.init_s", "engine.write_s", "engine.output_bytes",
    "domain.consumption_s", "domain.consumption_calls",
]
# Blind today: the engine no longer calls what these wrap (ROADMAP item 1
# re-aims them; this list then shrinks).
BLIND = [
    "mobility.move_s", "mobility.move_calls", "mobility.assoc_s", "mobility.assoc_calls",
    "domain.role_s", "domain.role_calls", "domain.battery_s", "domain.battery_calls",
    "domain.buffers_built",
    "allocation.queue_s", "allocation.queue_calls", "allocation.theorem_s",
    "allocation.hop_lookups", "allocation.hop_lookups_per_consumer", "engine.summarize_s",
]
# Not exercised by the scenario: it reads no trace file and no job overruns.
UNEXERCISED = ["ingest.load_s", "ingest.rows", "transfer.overruns"]


def test_traced_compare_keeps_every_span_that_ran(tmp_path):
    config = SimConfig(initial_fill_fraction=0.32, horizon_slots=20)
    result = traced(tmp_path, config, "compare", "--policies", "lyapunov,radial,random")
    assert result["exit_code"] == 0
    layers = result["layers"]
    assert [name for name in COUNTED if not layers.get(name, 0) > 0] == []
    assert sorted(name for name, value in layers.items() if value == 0) == sorted(BLIND + UNEXERCISED)
    # the transfer hook counts what the run wrote: one row per job
    paths = sorted((tmp_path / "out").glob("*_transfers.csv"))
    assert len(paths) == 3
    mini_slots = []
    for path in paths:
        header, *lines = path.read_text().splitlines()
        column = header.split(",").index("mini_slots")
        mini_slots.extend(int(line.split(",")[column]) for line in lines)
    assert (layers["transfer.jobs"], layers["transfer.mini_slots"]) == (len(mini_slots), sum(mini_slots))
