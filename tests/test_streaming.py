"""Streamed runs write the bytes of stored runs, in memory that does not grow with the horizon.

The CLI's run, compare and sweep-lambda hand each slot to a sink that
writes it out or folds it into running totals, and keep nothing per slot.
Library callers get the whole run in memory from engine.run, and
write_outputs, emit_plot_data and emit_lambda_table write it. Both paths
share one row formatter and one summary accumulator; these tests hold
them to the same bytes, and hold the streamed path to flat memory.
"""

import dataclasses
import gc
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppgsim import allocation, engine
from ppgsim.cli import emit_lambda_table, emit_plot_data, main
from ppgsim.engine import SimConfig, config_items

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1.cfg"
LAMBDAS = (0.2, 0.4, 0.6, 0.8, 1.0)


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def write_config(path: Path, config: SimConfig) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in config_items(config)))
    return path


def stored_run_files(config: SimConfig, out: Path) -> dict[str, bytes]:
    """A stored run's files, plus the vehicle dump stepped from a fleet of the config's own."""
    engine.write_outputs(engine.run(config), out)
    stored = files(out)
    fleet = engine.make_fleet(config)
    lines = []
    for t in range(config.horizon_slots):
        fleet.step()
        lines.extend(engine.trajectory_line(row) + "\n" for row in fleet.trajectory_rows(t))
    if lines:
        stored["trajectories.csv"] = "".join(["slot,group,x_m,y_m,serving_bs\n", *lines]).encode()
    return stored


def stored_compare_files(results: dict, out: Path, hourly: bool = False) -> dict[str, bytes]:
    for policy, result in results.items():
        engine.write_outputs(result, out, prefix=policy)
    emit_plot_data(results, out, hourly=hourly)
    return files(out)


def stored_sweep_files(sweep: list, out: Path) -> dict[str, bytes]:
    emit_lambda_table(sweep, out)
    return files(out)


def cli_files(out: Path, *argv: str) -> dict[str, bytes]:
    assert main([*argv, "--out", str(out)]) == 0
    return files(out)


class TestReferenceBytes:
    def test_run_with_trajectories(self, tmp_path, reference_config):
        streamed = cli_files(
            tmp_path / "cli", "run", "--config", str(REFERENCE_CONFIG), "--dump-trajectories"
        )
        assert set(streamed) == {"metrics.csv", "transfers.csv", "summary.txt", "trajectories.csv"}
        assert streamed == stored_run_files(reference_config, tmp_path / "stored")

    def test_compare(self, tmp_path, reference_runs):
        results, _ = reference_runs
        streamed = cli_files(tmp_path / "cli", "compare", "--config", str(REFERENCE_CONFIG))
        assert streamed == stored_compare_files(results, tmp_path / "stored")

    def test_sweep_lambda(self, tmp_path, reference_sweep):
        sweep, _ = reference_sweep
        values = ",".join(map(str, LAMBDAS))
        assert [lam for lam, _ in sweep] == list(LAMBDAS)
        streamed = cli_files(
            tmp_path / "cli", "sweep-lambda", "--config", str(REFERENCE_CONFIG), "--values", values
        )
        assert streamed == stored_sweep_files(sweep, tmp_path / "stored")


@st.composite
def small_configs(draw) -> SimConfig:
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2 if rows == 1 else 1, 5))
    on_grid = draw(st.lists(st.integers(0, rows * cols - 1), unique=True, max_size=2))
    return SimConfig(
        rows=rows,
        cols=cols,
        on_grid_ids=tuple(sorted(on_grid)),
        horizon_slots=draw(st.integers(0, 30)),
        policy=draw(st.sampled_from(allocation.POLICIES)),
        lam=draw(st.sampled_from((0.0, 1.0))),
        # a nearly empty start next to a grid-connected station trades by
        # midday of a 24-slot day; a nearly full one never asks for energy
        initial_fill_fraction=draw(st.sampled_from((0.05, 0.32, 0.9))),
        slots_per_day=draw(st.sampled_from((24, 1440))),
        harvest_jitter=draw(st.sampled_from((0.0, 0.3))),
        n_vue_groups=draw(st.integers(0, 3)),
        seed=draw(st.integers(1, 20)),
    )


TRADING = SimConfig(
    rows=2, cols=3, on_grid_ids=(0,), horizon_slots=30, initial_fill_fraction=0.05,
    slots_per_day=24, seed=3,
)
IDLE = dataclasses.replace(TRADING, initial_fill_fraction=0.9)


def test_pinned_examples_run_with_and_without_transfers():
    assert engine.run(TRADING).jobs
    idle = engine.run(IDLE)
    assert idle.slots and not idle.jobs


@settings(derandomize=True, max_examples=25, deadline=None)
@given(config=small_configs(), hourly=st.booleans())
@example(config=TRADING, hourly=False)
@example(config=IDLE, hourly=True)
@example(config=dataclasses.replace(TRADING, horizon_slots=0), hourly=False)
def test_small_configs_stream_the_bytes_of_stored_runs(config, hourly):
    policies = ",".join(allocation.POLICIES)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_config(tmp / "scenario.cfg", config)

        streamed = cli_files(tmp / "run", "run", "--config", str(path), "--dump-trajectories")
        assert streamed == stored_run_files(config, tmp / "run_stored")

        argv = ["compare", "--config", str(path), "--policies", policies]
        streamed = cli_files(tmp / "compare", *argv, *(["--hourly"] if hourly else []))
        stored = stored_compare_files(
            engine.compare(config, allocation.POLICIES), tmp / "compare_stored", hourly
        )
        assert streamed == stored

        argv = ["sweep-lambda", "--config", str(path), "--values", "0,0.5,2"]
        streamed = cli_files(tmp / "sweep", *argv)
        assert streamed == stored_sweep_files(
            engine.sweep_lambda(config, [0.0, 0.5, 2.0]), tmp / "sweep_stored"
        )


def fresh_serving_sets(config: SimConfig, slots: int) -> list[frozenset[int]]:
    """The serving sets of a new fleet stepped slot by slot, outside any run."""
    fleet = engine.Simulation(config).fleet
    return [fleet.step() for _ in range(slots)]


def serving_logs_of(call):
    """Run call() and return the serving log that each Simulation.run of it replayed or filled."""
    logs = []
    real_run = engine.Simulation.run

    def spy(sim, *args, **kwargs):
        logs.append(sim.serving_log)
        return real_run(sim, *args, **kwargs)

    with mock.patch.object(engine.Simulation, "run", spy):
        return call(), logs


@settings(derandomize=True, max_examples=15, deadline=None)
@given(config=small_configs())
@example(config=TRADING)
def test_shared_variants_write_the_bytes_of_separate_runs(config):
    # compare and sweep_lambda share one serving log across their variants;
    # engine.run steps its own fleet, so it is an oracle outside that path
    lambdas = [0.0, 0.5, 2.0]
    results, compare_logs = serving_logs_of(lambda: engine.compare(config, allocation.POLICIES))
    sweep, sweep_logs = serving_logs_of(lambda: engine.sweep_lambda(config, lambdas))
    assert (len(compare_logs), len(sweep_logs)) == (len(allocation.POLICIES), len(lambdas))
    for logs in (compare_logs, sweep_logs):
        assert all(log is logs[0] for log in logs)
        assert logs[0] == fresh_serving_sets(config, config.horizon_slots)
    variants = [
        *((f"policy_{p}", {"policy": p}, result) for p, result in results.items()),
        *((f"lam_{k}", {"lam": lam}, result) for k, (lam, result) in enumerate(sweep)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for prefix, override, result in variants:
            engine.write_outputs(result, tmp / "shared", prefix)
            alone = engine.run(dataclasses.replace(config, **override))
            engine.write_outputs(alone, tmp / "alone", prefix)
        assert files(tmp / "shared") == files(tmp / "alone")


def test_a_log_one_slot_ahead_is_caught():
    # the two checks above fail when the replayed log runs one slot ahead
    log = fresh_serving_sets(TRADING, TRADING.horizon_slots + 1)
    ahead = log[1:]
    assert ahead != log[:-1]
    profiles, harvest = engine.build_traces(TRADING)
    replayed = engine.Simulation(TRADING, profiles, harvest, ahead).run()
    with tempfile.TemporaryDirectory() as tmp:
        engine.write_outputs(replayed, Path(tmp) / "ahead")
        engine.write_outputs(engine.run(TRADING), Path(tmp) / "fresh")
        assert files(Path(tmp) / "ahead")["metrics.csv"] != files(Path(tmp) / "fresh")["metrics.csv"]


class TestMemory:
    """tracemalloc peak of one run, at a tenth of a day and at a whole day.

    The traces are built once, before tracing starts, and injected, so the
    peak holds only what the run itself allocates. A run of the shorter
    horizon goes first, untraced, so that one-off process state is not
    counted against it. On the reference that run trades nothing (the
    first consumer comes at slot 201), so it never calls the allocator and
    fills none of its caches.
    """

    @staticmethod
    def flat_in_horizon(config: SimConfig, sink_for) -> bool:
        profiles, harvest = engine.build_traces(config)
        short = dataclasses.replace(config, horizon_slots=config.horizon_slots // 10)
        engine.run(short, profiles, harvest, sink_for=engine.SummarySink)
        peaks = []
        for cfg in (short, config):
            gc.collect()
            tracemalloc.start()
            try:
                engine.run(cfg, profiles, harvest, sink_for=sink_for)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[1] <= 1.2 * peaks[0]

    def test_streamed_run_is_flat(self, tmp_path, reference_config):
        assert reference_config.horizon_slots == 1440
        assert self.flat_in_horizon(reference_config, lambda cfg: engine.FileSink(cfg, tmp_path))

    def test_stored_run_grows(self, reference_config):
        # the same check on the in-memory path fails: it can fail
        assert not self.flat_in_horizon(reference_config, None)
