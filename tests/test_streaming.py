"""Streamed runs write the bytes of stored runs, in memory that does not grow with the horizon.

The CLI's run, compare and sweep-lambda hand each slot to a sink that
writes it out or folds it into running totals, and keep nothing per slot.
Library callers get the whole run in memory from engine.run, and
write_outputs, emit_plot_data and emit_lambda_table write it. Both paths
share one row formatter and one summary sink; these tests hold them to
the same bytes, and hold the streamed path to flat memory. The summary
sink's zero short-cuts and the transfer-field memo are held to the plain
code they replaced.
"""

import dataclasses
import gc
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppgsim import allocation, engine
from ppgsim.cli import emit_lambda_table, emit_plot_data, main
from ppgsim.engine import SimConfig, SlotMetrics, config_items
from ppgsim.numeric import left_sum

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
def small_configs(draw, trading: bool = False) -> SimConfig:
    """Small scenarios, many of which trade.

    A grid-connected station sits at its upper threshold after slot 0 and
    turns source once the sun outruns its load; an off-grid station that
    started nearly empty is then still a consumer. On a 24-slot day the sun
    rises at slot 6; a 1440-slot day stays dark for 30 slots, and one in
    four configs keeps that quiet night. Small horizons are drawn often,
    and many stop before the sunrise. trading=True leaves out what keeps a
    run from trading: every horizon reaches the sunrise, every day has 24
    slots, some station is off the grid and none starts nearly full.
    """
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2 if rows == 1 else 1, 5))
    max_on_grid = min(2, rows * cols - 1) if trading else 2
    on_grid = draw(st.lists(st.integers(0, rows * cols - 1), unique=True, min_size=1, max_size=max_on_grid))
    low = draw(st.floats(0.01, 0.95))
    # four starts below the lower threshold, and one nearly full
    fills = (0.0, 0.25 * low, 0.5 * low, 0.9 * low) + (() if trading else (0.9,))
    return SimConfig(
        rows=rows,
        cols=cols,
        on_grid_ids=tuple(sorted(on_grid)),
        horizon_slots=draw(st.integers(10, 30) if trading else st.one_of(st.integers(0, 30), st.integers(10, 30))),
        policy=draw(st.sampled_from(allocation.POLICIES)),
        lam=draw(st.sampled_from((0.0, 1e-4, 1.0, 1e3))),
        beta_low_fraction=low,
        beta_up_fraction=draw(st.floats(low, 0.999, exclude_min=True)),
        # a small link power stretches jobs over many mini-slots, so they contend
        phi_max_J=draw(st.sampled_from((1e4, 3e4, 1e5))),
        initial_fill_fraction=draw(st.sampled_from(fills)),
        slots_per_day=draw(st.sampled_from((24,) if trading else (24, 24, 24, 1440))),
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


def test_stored_series_are_the_metrics_rows(tmp_path):
    # the rows' totals are held to the plain fold in TestSummaryShortCuts
    result = engine.run(TRADING)
    header, *rows = engine.write_outputs(result, tmp_path)["metrics"].read_text().splitlines()
    columns = [row.split(",") for row in rows]
    for name, series in (("demand_J", result.demand_series), ("delivered_J", result.delivered_series)):
        k = header.split(",").index(name)
        assert list(map(repr, series)) == [row[k] for row in columns]
    assert any(result.delivered_series)


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


class OracleAccumulator(engine.SummarySink):
    """The summary sink with every vector folded and every minimum taken, in every slot.

    SummarySink.add skips the zeros of a quiet slot; this is the add it
    replaced, kept as the reference for those short-cuts.
    """

    def add(self, m: SlotMetrics) -> engine.SlotRow:
        demand = left_sum(m.demand_J)
        delivered = left_sum(m.delivered_J)
        negative = left_sum((f for f in m.flow_J if f < 0.0), 0.0)
        purchase = left_sum(m.purchase_J)
        harvest = left_sum(m.harvest_J)
        consumption = left_sum(m.consumption_J)
        level = left_sum(m.level_J)
        min_level = min_restored = 0.0
        if self.offgrid:
            levels, received = m.level_J, m.delivered_J
            min_level = min(levels[i] for i in self.offgrid)
            min_restored = min(levels[i] + received[i] for i in self.offgrid)
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
        return engine.SlotRow(
            m.slot, m.n_sources, m.n_consumers,
            demand, delivered, -negative, left_sum(m.flow_J), purchase, harvest, consumption,
            len(m.outage_ids), len(m.shortfall_ids), m.n_overruns, len(m.association),
            min_level, min_restored, level / self.config.n_bs, 0.0,
        )


def settled(totals: engine.SummarySink) -> str:
    """The run's summary, theorem included, as repr; a bound that overflows gives its error."""
    try:
        theorem = totals.theorem()
    except OverflowError as exc:
        return repr(exc)
    return repr(totals.summary(theorem))


def assert_same_totals(config: SimConfig, slots) -> None:
    fast, oracle = engine.SummarySink(config), OracleAccumulator(config)
    for m in slots:
        assert repr(fast.add(m)) == repr(oracle.add(m))
    assert settled(fast) == settled(oracle)


# signed zeros, the smallest subnormals, infinities, NaN and the triple that
# left-to-right addition cancels to 0.0
CANCELLING = [1e16, 1.0, -1e16]
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, *CANCELLING)


@st.composite
def slot_streams(draw) -> tuple[SimConfig, list[SlotMetrics]]:
    """A one-row grid with any on-grid set, and a few slots of drawn vectors."""
    n = draw(st.integers(2, 6))
    everyone = tuple(range(n))
    on_grid = draw(st.one_of(
        st.just(everyone),
        st.lists(st.sampled_from(everyone), unique=True).map(lambda ids: tuple(sorted(ids))),
    ))
    config = SimConfig(rows=1, cols=n, on_grid_ids=on_grid, lam=draw(st.sampled_from((0.0, 1.0))))
    zero = st.sampled_from((0.0, -0.0))
    values = st.one_of(st.sampled_from(SPECIAL), st.floats())
    # a quiet slot's vector, a busy slot's (mostly zeros), and a dense one
    vectors = [
        st.lists(zero, min_size=n, max_size=n),
        st.lists(st.one_of(zero, values), min_size=n, max_size=n),
        st.lists(values, min_size=n, max_size=n),
    ]
    if n >= 3:
        vectors.append(st.just([*CANCELLING, *[0.0] * (n - 3)]))
    vector = st.one_of(*vectors)
    ids = st.lists(st.sampled_from(everyone), unique=True)
    counts = st.integers(0, n)
    slots = [
        SlotMetrics(
            slot=t, level_J=draw(vector), level_end_J=draw(vector), n_sources=draw(counts),
            n_consumers=draw(counts), demand_J=draw(vector), delivered_J=draw(vector),
            flow_J=draw(vector), purchase_J=draw(vector), harvest_J=draw(vector),
            consumption_J=draw(vector), association=frozenset(draw(ids)), outage_ids=draw(ids),
            shortfall_ids=draw(ids), clamped_ids=draw(ids), capped_ids=draw(ids),
            n_overruns=draw(st.integers(0, 3)),
        )
        for t in range(draw(st.integers(1, 4)))
    ]
    return config, slots


def quiet_slot(level_J, delivered_J) -> SlotMetrics:
    n = len(level_J)
    zeros = [0.0] * n
    return SlotMetrics(
        0, level_J, level_J, 0, 0, zeros, delivered_J, zeros, zeros, zeros,
        zeros, frozenset(), [], [], [], [], 0,
    )


OFF_GRID_PAIR = SimConfig(rows=1, cols=2, on_grid_ids=())


class TestSummaryShortCuts:
    """SummarySink.add against the fold of every vector, row by row, as repr."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stream=slot_streams())
    # a -0.0 minimum level: a -0.0 delivery keeps it -0.0, a +0.0 one makes it +0.0
    @example(stream=(OFF_GRID_PAIR, [quiet_slot([-0.0, 1.0], [-0.0, 0.0])]))
    @example(stream=(OFF_GRID_PAIR, [quiet_slot([-0.0, 1.0], [0.0, -0.0])]))
    def test_drawn_slots(self, stream):
        assert_same_totals(*stream)

    def test_every_reference_slot(self, reference_runs):
        results, _ = reference_runs
        assert sum(len(result.slots) for result in results.values()) == 4320
        for result in results.values():
            assert_same_totals(result.config, result.slots)


def plain_transfer_line(slot: int, job) -> str:
    """A transfers.csv row with every float field rendered by repr, as before the memo."""
    d = job.decision
    return (
        f"{slot},{job.job_id},{d.source_id},{d.consumer_id},{d.gross_J!r},"
        f"{d.fraction!r},{d.delivered_J!r},{d.hops},{job.mini_slots},"
        f"{job.start_mini_slot},{job.occupancy_s!r},{job.completion_s!r},"
        f"{job.status},{int(d.shortfall)},{job.route.text}"
    )


def plain_transfers(result: engine.RunResult) -> str:
    header = "slot,job_id,source,consumer,gross_J,fraction,delivered_J,hops,mini_slots,start_mini_slot,"
    header += "occupancy_s,completion_s,status,shortfall,route\n"
    return "".join([header, *(plain_transfer_line(slot, job) + "\n" for slot, job in result.jobs)])


class TestTransferFieldMemo:
    def test_float_reprs_render_signed_zeros_apart(self):
        reprs = engine.FloatReprs()
        values = (0.0, -0.0, 0.0, 7.0, -0.0, 7.0, math.nan, 0.1 + 0.2)
        assert [reprs[v] for v in values] == [repr(v) for v in values]
        assert 0.0 not in reprs and reprs[7.0] == "7.0"

    def test_zero_processing_delay_and_zero_times(self, tmp_path):
        config = dataclasses.replace(TRADING, xi_s=0.0)
        result = engine.run(config)
        assert len(result.jobs) >= 4
        # a zero-length job holds its links for 0.0 s; write both signed zeros in one run
        zeroed = [0.0, -0.0, 0.0, -0.0]
        for (_, job), zero in zip(result.jobs, zeroed):
            job.occupancy_s = job.completion_s = zero
        paths = engine.write_outputs(result, tmp_path)
        text = paths["transfers"].read_text()
        assert text == plain_transfers(result)
        assert ",0.0,0.0," in text and ",-0.0,-0.0," in text

    def test_runs_with_other_mini_slots_render_their_own_times(self, tmp_path):
        results = [engine.run(dataclasses.replace(TRADING, mini_slot_s=m)) for m in (5.0, 3.0, 5.0)]
        for k, result in enumerate(results):
            paths = engine.write_outputs(result, tmp_path / str(k))
            assert paths["transfers"].read_text() == plain_transfers(result)
        times = [{job.occupancy_s for _, job in result.jobs} for result in results]
        assert times[0] == times[2] and times[0] != times[1]

    def test_memo_lives_and_dies_with_its_sink(self, tmp_path):
        result = engine.run(TRADING)
        sinks = [engine.FileSink(TRADING, tmp_path / name) for name in "ab"]
        assert sinks[0]._reprs is not sinks[1]._reprs
        engine._replay(result, sinks[0])
        assert sinks[0]._reprs and not sinks[1]._reprs
        sinks[1].close()
        memo = weakref.ref(sinks[0]._reprs)
        del sinks
        gc.collect()
        assert memo() is None


def test_a_run_that_raises_closes_its_files(tmp_path, monkeypatch):
    config = SimConfig(horizon_slots=10)
    real_step = engine.Simulation.step

    def step(sim, t):
        if t == 3:
            raise RuntimeError("step failed at t = 3")
        return real_step(sim, t)

    monkeypatch.setattr(engine.Simulation, "step", step)
    sink = engine.FileSink(config, tmp_path, trajectories=True)
    with pytest.raises(RuntimeError, match="t = 3"):
        engine.Simulation(config).run(sink)
    handles = (sink._metrics, sink._transfers, sink._trajectories)
    assert all(handle.closed for handle in handles)
    # the three slots before the error were written out
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1 + 3


def test_a_replay_that_raises_closes_its_files(tmp_path, monkeypatch):
    result = engine.run(SimConfig(horizon_slots=5))
    result.slots[3] = dataclasses.replace(result.slots[3], association=None)
    opened = []
    real_open = engine._open_stream

    def recording_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    monkeypatch.setattr(engine, "_open_stream", recording_open)
    with pytest.raises(TypeError):
        engine.write_outputs(result, tmp_path)
    assert len(opened) == 2 and all(handle.closed for handle in opened)
