"""Per-slot loop semantics, run orchestration, and output determinism."""

import collections
import dataclasses
import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgsim import allocation, cli, domain, engine, ingest, mobility, transfer
from ppgsim.engine import (
    SimConfig,
    Simulation,
    build_traces,
    compare,
    config_from_items,
    config_items,
    run,
    run_variants,
    summary_rows,
    sweep_lambda,
    write_outputs,
)
from ppgsim.errors import ConfigError
from ppgsim.ingest import HarvestTraceSet, LoadProfileSet
from ppgsim.topology import PpgGrid
from test_streaming import TRADING, small_configs
from test_transfer import contended_config


Station = collections.namedtuple("Station", "id node grid_connected level_J")


def reference_stations(config):
    """One station per lattice node, row-major, as the config describes it."""
    level = config.initial_fill_fraction * config.beta_max_J
    return [
        Station(r * config.cols + c, (r, c), r * config.cols + c in config.on_grid_ids, level)
        for r in range(config.rows)
        for c in range(config.cols)
    ]


def quiet_traces(config, solar=0.0, wind=0.0, load=0.0):
    """Flat traces: constant load fraction and constant harvest."""
    n = max(config.horizon_slots, 1)
    clusters = tuple(tuple([load] * config.slots_per_day) for _ in range(4))
    profiles = LoadProfileSet(clusters, {i: 0 for i in range(config.n_bs)})
    harvest = HarvestTraceSet((solar,) * n, (wind,) * n)
    return profiles, harvest


class TestConfigValidation:
    def test_defaults_valid(self):
        SimConfig()

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            SimConfig(policy="greedy")

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError):
            SimConfig(beta_low_fraction=0.8, beta_up_fraction=0.7)

    def test_on_grid_out_of_range(self):
        with pytest.raises(ConfigError):
            SimConfig(on_grid_ids=(0, 99))

    def test_duplicate_on_grid(self):
        with pytest.raises(ConfigError):
            SimConfig(on_grid_ids=(0, 0))

    def test_negative_horizon(self):
        with pytest.raises(ConfigError):
            SimConfig(horizon_slots=-1)

    def test_bad_lam(self):
        with pytest.raises(ConfigError):
            SimConfig(lam=-0.1)

    def test_slot_not_multiple_of_mini_slot(self):
        with pytest.raises(ValueError):
            SimConfig(tau_s=60.0, mini_slot_s=7.0)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param(key, value, f"^{key} must be finite", id=f"{key}-{value}")
            for key, value in [
                ("tau_s", math.nan), ("tau_s", math.inf), ("tau_s", 0.0),
                ("mini_slot_s", math.nan), ("mini_slot_s", -5.0),
                ("beta_max_J", math.nan), ("beta_max_J", math.inf), ("beta_max_J", 0.0),
                ("idle_energy_J", -7000.0), ("idle_energy_J", math.nan),
                ("max_load_energy_J", -1.0), ("max_load_energy_J", math.inf),
                ("bs_spacing_m", math.nan), ("bs_spacing_m", 0.0),
                ("offset_radius_m", math.nan), ("offset_radius_m", math.inf),
                ("offset_radius_m", -1.0),
                ("resistivity", -1.0), ("resistivity", math.nan),
                ("link_length_m", 0.0), ("link_length_m", math.inf),
                ("cross_section_mm2", -2.0), ("dc_voltage_V", math.nan), ("phi_max_J", math.nan),
                ("lam", -0.1), ("solar_peak_fraction", -0.1), ("offpeak_threshold_fraction", -1.0),
            ]
        ]
        + [
            pytest.param(
                "mini_slot_s", 7.0, "^tau_s must be a whole multiple of mini_slot_s", id="mini_slot_s-7.0"
            )
        ]
        + [
            pytest.param(key, value, message, id=f"{key}-{value}")
            for key, value, message in [
                ("rows", 0, "^rows must be >= 1, got 0$"),
                ("cols", -2, "^cols must be >= 1, got -2$"),
                ("n_vue_groups", -1, "^n_vue_groups must be >= 0, got -1$"),
                ("members_per_group", 0, "^members_per_group must be >= 1, got 0$"),
            ]
            + [
                (key, value, "^beta_low_fraction and beta_up_fraction must satisfy 0 < low < up < 1, got ")
                for key, value in [
                    ("beta_low_fraction", 0.0), ("beta_low_fraction", 0.7), ("beta_low_fraction", math.nan),
                    ("beta_up_fraction", 1.0), ("beta_up_fraction", 0.3), ("beta_up_fraction", math.inf),
                ]
            ]
        ],
    )
    def test_bad_numeric_key_rejected_by_name(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            SimConfig(**{key: value})

    @pytest.mark.parametrize(
        "key",
        [
            "lane_gap_m", "speed_min_mps", "speed_max_mps", "delta_s", "xi_s",
            "lam", "solar_peak_fraction", "offpeak_threshold_fraction",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_key_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            SimConfig(**{key: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"phi_max_J": 1e12}, {"resistivity": 10.0}, {"dc_voltage_V": 10.0},
            {"mini_slot_s": 1e-6, "tau_s": 1e-6},
            {"resistivity": 1e-200, "link_length_m": 1e-200},
            {"phi_max_J": 1e-300, "mini_slot_s": 1e300, "tau_s": 1e300},
        ],
        ids=["phi_max_J", "resistivity", "dc_voltage_V", "mini_slot_s", "zero-resistance", "zero-power"],
    )
    def test_per_hop_loss_of_one_or_more_names_its_keys(self, overrides):
        keys = "phi_max_J, mini_slot_s, resistivity, link_length_m, cross_section_mm2 and dc_voltage_V"
        with pytest.raises(ConfigError, match=f"^per-hop loss must lie in \\(0, 1\\), got .*; it comes from {keys}$"):
            SimConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"phi_max_J": 1e-6}, {"phi_max_J": 0.46}, {"beta_max_J": 1e300},
            {"phi_max_J": 1e-6, "beta_max_J": 1e308},
        ],
        ids=["phi-1e-6", "phi-0.46", "beta-1e300", "infinite-ratio"],
    )
    def test_job_of_too_many_mini_slots_names_phi_and_beta(self, overrides):
        # a link calendar for such a job would be an int of up to 4.9e11 bits
        with pytest.raises(ConfigError, match="^phi_max_J must be at least beta_max_J / 1048576, .*beta_max_J = "):
            SimConfig(**overrides)

    def test_most_mini_slots_per_job_accepted(self):
        # 490 kJ at 0.5 J per mini-slot: 980,000 mini-slots, under 2**20
        cfg = SimConfig(phi_max_J=0.5)
        assert math.ceil(cfg.beta_max_J / cfg.phi_max_J) == 980_000
        assert SimConfig(phi_max_J=cfg.beta_max_J / 2**20).phi_max_J == cfg.beta_max_J / 2**20

    def test_one_station_grid_names_rows_and_cols(self):
        with pytest.raises(ConfigError, match="^rows and cols must give at least 2 stations, got 1x1$"):
            SimConfig(rows=1, cols=1, on_grid_ids=())

    def test_loss_check_builds_no_grid(self, monkeypatch):
        monkeypatch.setattr(PpgGrid, "__init__", lambda *args, **kwargs: pytest.fail("grid built"))
        SimConfig(rows=20, cols=30)

    def test_deadline_past_slot_end_accepted(self):
        # delta_s only decides which jobs are flagged as overruns; a deadline
        # past the end of the slot is allowed and flags none
        cfg = SimConfig(delta_s=90.0, horizon_slots=3)
        assert cfg.delta_s > cfg.tau_s
        assert run(cfg).summary["overrun_jobs"] == 0

    def test_zero_energies_accepted(self):
        SimConfig(idle_energy_J=0.0, max_load_energy_J=0.0)

    def test_derived_thresholds(self):
        cfg = SimConfig()
        assert cfg.beta_low_J == pytest.approx(147e3)
        assert cfg.beta_up_J == pytest.approx(343e3)
        assert cfg.n_bs == 24


class TestConfigRoundTrip:
    def test_items_reparse_to_identical_config(self):
        cfg = SimConfig(seed=123, lam=0.4, policy="radial", harvest_jitter=0.05)
        rebuilt = config_from_items(dict(config_items(cfg)))
        assert rebuilt == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_items({"not_a_field": "1"})

    @pytest.mark.parametrize(
        "key, raw, expected",
        [
            ("rows", "four", "an integer"),
            ("seed", "1e3", "an integer"),
            ("horizon_slots", "", "an integer"),
            ("lam", "x", "a number"),
            ("on_grid_ids", "1,a", "comma-separated integers"),
            ("on_grid_ids", "1,,2", "comma-separated integers"),
        ],
    )
    def test_malformed_value_names_its_key(self, key, raw, expected):
        message = f"^config key '{key}' must be {expected}, got '{re.escape(raw)}'$"
        with pytest.raises(ConfigError, match=message):
            config_from_items({"rows": "4", key: f" {raw} "})


class TestStepSemantics:
    def test_fixed_point_at_upper_threshold(self):
        cfg = SimConfig(horizon_slots=5, initial_fill_fraction=0.7, idle_energy_J=0.0)
        profiles, harvest = quiet_traces(cfg)
        result = run(cfg, profiles, harvest)
        for m in result.slots:
            assert m.n_sources == m.n_consumers == 0
            assert not any(m.demand_J)
            assert not any(m.delivered_J)
            assert not any(m.purchase_J)
            assert m.level_J == m.level_end_J

    def test_consumer_next_to_source_gains_exactly_demand(self):
        cfg = SimConfig(horizon_slots=1, idle_energy_J=0.0, on_grid_ids=())
        profiles, harvest = quiet_traces(cfg)
        sim = Simulation(cfg, profiles, harvest)
        sim.levels[0] = 100e3   # off-grid, below the lower threshold
        sim.levels[1] = 400e3   # adjacent source
        metrics, _ = sim.step(0)
        demand = 147e3 - 100e3
        assert metrics.demand_J[0] == pytest.approx(demand)
        assert metrics.delivered_J[0] == pytest.approx(demand)
        assert sim.levels[0] == pytest.approx(147e3)
        assert sim.levels[1] == pytest.approx(400e3 - demand / sim.loss.delivered_fraction(1))

    def test_ongrid_purchases_to_upper_threshold(self):
        cfg = SimConfig(horizon_slots=1, idle_energy_J=0.0, on_grid_ids=(3,))
        profiles, harvest = quiet_traces(cfg)
        sim = Simulation(cfg, profiles, harvest)
        sim.levels[3] = 300e3
        metrics, _ = sim.step(0)
        assert metrics.purchase_J[3] == pytest.approx(43e3)
        assert sim.levels[3] == pytest.approx(343e3)

    def test_consumption_drains_buffer(self):
        cfg = SimConfig(horizon_slots=3, idle_energy_J=6e3, on_grid_ids=())
        profiles, harvest = quiet_traces(cfg, load=0.0)
        sim = Simulation(cfg, profiles, harvest)
        start = list(sim.levels)
        sim.step(0)
        for i in range(cfg.n_bs):
            assert sim.levels[i] == pytest.approx(start[i] - 6e3)

    def test_energy_accounting_closes(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=240)
        result = run(cfg)
        for m in result.slots:
            for i in range(cfg.n_bs):
                if i in m.clamped_ids or i in m.capped_ids:
                    continue
                delta = m.level_end_J[i] - m.level_J[i]
                flows = m.harvest_J[i] + m.flow_J[i] + m.purchase_J[i] - m.consumption_J[i]
                assert delta == pytest.approx(flows, abs=1e-6)

    @pytest.mark.parametrize("level", [math.nan, -1.0, 490e3 + 1.0])
    def test_level_outside_range_rejected(self, level):
        cfg = SimConfig(horizon_slots=1)
        profiles, harvest = quiet_traces(cfg)
        sim = Simulation(cfg, profiles, harvest)
        sim.levels[4] = level
        with pytest.raises(ValueError, match="station 4"):
            sim.step(0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3),
        st.integers(0, 23),
        st.one_of(st.floats(max_value=-1e-12), st.floats(min_value=1.0 + 1e-12), st.just(math.nan)),
    )
    def test_profile_value_outside_unit_interval_rejected_at_construction(self, cluster, slot, value):
        cfg = SimConfig(horizon_slots=1, slots_per_day=24)
        profiles, harvest = quiet_traces(cfg, load=0.5)
        rows = [list(row) for row in profiles.clusters]
        rows[cluster][slot] = value
        bad = LoadProfileSet(tuple(map(tuple, rows)), profiles.assignment)
        with pytest.raises(ValueError, match=f"cluster {cluster}, slot {slot}:"):
            Simulation(cfg, bad, harvest)

    def test_consumption_matches_per_station_profile_lookup(self):
        cfg = SimConfig(horizon_slots=30, slots_per_day=12, idle_energy_J=5e3)
        profiles, harvest = build_traces(cfg)
        assert len(set(profiles.assignment.values())) > 1
        sim = Simulation(cfg, profiles, harvest)
        stations = reference_stations(cfg)
        for t in range(cfg.horizon_slots):
            metrics, _ = sim.step(t)
            # element by element: the step hands over its own list
            assert list(metrics.consumption_J) == [
                cfg.idle_energy_J + profiles.load_at(bs.id, t) * cfg.max_load_energy_J
                for bs in stations
            ]

    def test_station_state_built_from_config(self):
        cfg = SimConfig(rows=3, cols=5, on_grid_ids=(2, 7), initial_fill_fraction=0.4, horizon_slots=1)
        sim = Simulation(cfg)
        stations = reference_stations(cfg)
        assert sim.ids == [bs.id for bs in stations]
        assert sim.positions == {bs.id: bs.node for bs in stations}
        assert sim.on_grid == [bs.grid_connected for bs in stations]
        assert sim.levels == [bs.level_J for bs in stations]
        assert [i for i, flag in enumerate(sim.on_grid) if flag] == [2, 7]

    def test_association_feeds_priority(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=10)
        result = run(cfg)
        for m in result.slots:
            assert len(m.association) <= cfg.n_vue_groups


class TestRun:
    def test_zero_horizon(self):
        cfg = SimConfig(horizon_slots=0)
        result = run(cfg)
        assert result.slots == []
        assert result.summary["total_delivered_J"] == 0
        assert result.theorem is None

    def test_trace_shorter_than_horizon_rejected(self):
        cfg = SimConfig(horizon_slots=100)
        profiles, harvest = quiet_traces(dataclasses.replace(cfg, horizon_slots=50))
        with pytest.raises(ConfigError, match="harvest trace covers 50 slots, horizon needs 100"):
            run(cfg, profiles, harvest)

    def test_harvest_file_shorter_than_horizon_rejected(self, tmp_path):
        path = tmp_path / "harvest.csv"
        ingest.write_harvest(path, [1.0] * 5, [0.5] * 5, 60.0)
        cfg = SimConfig(horizon_slots=10, harvest_path=str(path))
        with pytest.raises(ConfigError, match="harvest trace covers 5 slots, horizon needs 10"):
            run(cfg)
        with pytest.raises(ConfigError, match="harvest trace covers 5 slots, horizon needs 10"):
            compare(cfg, ["lyapunov", "radial"])

    def test_summary_echoes_config(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=5)
        result = run(cfg)
        echoed = {
            key[len("config."):]: str(value)
            for key, value in result.summary.items()
            if key.startswith("config.")
        }
        assert config_from_items(echoed) == cfg

    def test_deterministic_outputs(self, tmp_path, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=120)
        paths1 = write_outputs(run(cfg), tmp_path / "a")
        paths2 = write_outputs(run(cfg), tmp_path / "b")
        for name in paths1:
            assert paths1[name].read_bytes() == paths2[name].read_bytes()

    def test_different_seeds_differ(self, tmp_path, reference_config):
        cfg1 = dataclasses.replace(reference_config, horizon_slots=240)
        cfg2 = dataclasses.replace(cfg1, seed=8)
        paths1 = write_outputs(run(cfg1), tmp_path / "a")
        paths2 = write_outputs(run(cfg2), tmp_path / "b")
        assert paths1["metrics"].read_bytes() != paths2["metrics"].read_bytes()


class TestCompareAndSweep:
    def test_single_policy_compare(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=30)
        results = compare(cfg, ["lyapunov"])
        assert list(results) == ["lyapunov"]

    def test_policies_share_demand_until_divergence(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=30)
        results = compare(cfg, ["lyapunov", "radial", "random"])
        # same traces, mobility and initial state: slot 0 demand identical
        first = [r.demand_series[0] for r in results.values()]
        assert all(v == first[0] for v in first)

    def test_sweep_rows(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=30)
        sweep = sweep_lambda(cfg, [0.2, 1.0])
        assert [lam for lam, _ in sweep] == [0.2, 1.0]

    def test_zero_weight_matches_unit_weight_without_ties(self, reference_config):
        # adequate sources all deliver the full demand, so the penalty term
        # ties and the weight cannot change any pick
        cfg = dataclasses.replace(reference_config, horizon_slots=300)
        sweep = sweep_lambda(cfg, [0.0, 1.0])
        totals = [r.summary["total_delivered_J"] for _, r in sweep]
        assert totals[0] == totals[1]

    @pytest.mark.parametrize("policies", [["radial", "radial"], ["lyapunov", "random", "lyapunov"]])
    def test_repeated_policy_rejected_before_any_run(self, policies, monkeypatch):
        runs = []
        monkeypatch.setattr(Simulation, "run", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ConfigError, match=f"policy '{policies[0]}' is listed twice"):
            compare(SimConfig(horizon_slots=3), policies)
        assert runs == []

    def test_coverage_on_empty_demand_is_full(self):
        totals = engine.SummarySink(SimConfig(horizon_slots=0))
        assert totals.summary(None)["demand_coverage_pct"] == 100.0
        cfg = SimConfig(horizon_slots=3)
        profiles, harvest = quiet_traces(cfg)
        assert run(cfg, profiles, harvest).summary["demand_coverage_pct"] == 100.0


class TestRunVariants:
    def test_results_follow_the_overrides(self):
        cfg = SimConfig(horizon_slots=5)
        overrides = [{"policy": "radial"}, {"lam": 0.5}, {"policy": "random", "lam": 2.0}, {}]
        variants = run_variants(cfg, overrides)
        assert [override for override, _ in variants] == overrides
        assert [(r.config.policy, r.config.lam) for _, r in variants] == [
            ("radial", 1.0), ("lyapunov", 0.5), ("random", 2.0), ("lyapunov", 1.0),
        ]

    def test_fleet_steps_once_per_slot_across_variants(self, monkeypatch):
        calls = []
        original = mobility.Fleet.step

        def counted(fleet):
            calls.append(fleet)
            return original(fleet)

        monkeypatch.setattr(mobility.Fleet, "step", counted)
        compare(SimConfig(horizon_slots=7), ["lyapunov", "radial", "random"])
        assert len(calls) == 7
        assert len(set(map(id, calls))) == 1

    @pytest.mark.parametrize("key", ["seed", "horizon_slots", "n_vue_groups", "profiles_path"])
    def test_rejects_a_key_the_variants_would_not_share(self, key, monkeypatch):
        steps = []
        monkeypatch.setattr(Simulation, "run", lambda *args, **kwargs: steps.append(args))
        overrides = [{"policy": "radial"}, {key: getattr(SimConfig(), key)}]
        with pytest.raises(ConfigError, match=f"cannot vary '{key}'"):
            run_variants(SimConfig(horizon_slots=3), overrides)
        assert steps == []

    def test_every_compare_variant_dumps_the_lone_run_trajectories(self, tmp_path):
        # only the first variant steps the run's fleet; a later one replays
        # the serving log, so its dump must come from the sink's own fleet
        cfg = SimConfig(horizon_slots=6)
        run(cfg, sink_for=lambda c: engine.FileSink(c, tmp_path / "alone", trajectories=True))
        alone = (tmp_path / "alone" / "trajectories.csv").read_bytes()
        assert len(alone.splitlines()) == 1 + 6 * cfg.n_vue_groups
        out = tmp_path / "compare"
        compare(
            cfg,
            allocation.POLICIES,
            sink_for=lambda c: engine.FileSink(c, out, prefix=c.policy, trajectories=True),
        )
        for policy in allocation.POLICIES:
            assert (out / f"{policy}_trajectories.csv").read_bytes() == alone


class TestOutputs:
    def test_metrics_header_and_rows(self, tmp_path, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=3)
        rows = write_outputs(run(cfg), tmp_path)["metrics"].read_text().splitlines()
        assert rows[0].startswith("slot,")
        assert len(rows) == 4

    def test_transfer_rows_have_route(self, tmp_path, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=500)
        result = run(cfg)
        rows = write_outputs(result, tmp_path)["transfers"].read_text().splitlines()
        assert len(rows) == len(result.jobs) + 1 > 1
        assert "|" in rows[1].rsplit(",", 1)[1]

    def test_summary_parseable(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=3)
        for line in summary_rows(run(cfg)):
            assert " = " in line

    def test_trajectories_collected_on_request(self, tmp_path, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=4)
        for dump in (False, True):
            out = tmp_path / str(dump)
            paths = write_outputs(run(cfg, sink_for=lambda c: engine.FileSink(c, out, trajectories=dump)), out)
            assert ("trajectories" in paths) == dump == (out / "trajectories.csv").exists()
        rows = (tmp_path / "True" / "trajectories.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * cfg.n_vue_groups
        assert [row.split(",", 1)[0] for row in rows[1::cfg.n_vue_groups]] == ["0", "1", "2", "3"]


class TestStepContract:
    """Simulation.step, Simulation.run, write_outputs and emit_plot_data are
    the seams a caller wraps to count slots and time the step loop and the
    writes, so each run must go through them."""

    @staticmethod
    def count_calls(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_run_steps_once_per_slot(self, monkeypatch):
        calls = {}
        self.count_calls(monkeypatch, Simulation, "step", calls)
        self.count_calls(monkeypatch, Simulation, "run", calls)
        cfg = SimConfig(horizon_slots=7)
        result = run(cfg)
        assert calls == {"step": 7, "run": 1}
        assert [m.slot for m in result.slots] == list(range(7))

    def test_compare_writes_through_hooks(self, monkeypatch, tmp_path):
        calls = {}
        self.count_calls(monkeypatch, Simulation, "step", calls)
        self.count_calls(monkeypatch, Simulation, "run", calls)
        self.count_calls(monkeypatch, engine, "write_outputs", calls)
        self.count_calls(monkeypatch, cli, "emit_plot_data", calls)
        argv = ["compare", "--horizon", "5", "--policies", "lyapunov,radial", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert calls == {"step": 10, "run": 2, "write_outputs": 2, "emit_plot_data": 1}

    def test_compare_finishes_every_run_before_the_first_write(self, monkeypatch, tmp_path):
        # a caller timing the gap between one run's end and the next run's
        # first step as set-up would count any write made in that gap
        events = []

        def logged(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                events.append(f"{name} start")
                try:
                    return original(*args, **kwargs)
                finally:
                    events.append(f"{name} end")

            monkeypatch.setattr(owner, name, wrapper)

        logged(Simulation, "run")
        logged(engine, "write_outputs")
        logged(cli, "emit_plot_data")
        argv = ["compare", "--horizon", "5", "--policies", "lyapunov,radial", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert events == [
            *["run start", "run end"] * 2,
            *["write_outputs start", "write_outputs end"] * 2,
            "emit_plot_data start",
            "emit_plot_data end",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--horizon", "5", "--policies", "lyapunov,radial"],
            ["run", "--horizon", "5", "--dump-trajectories"],
            ["run", "--horizon", "0", "--dump-trajectories"],
        ],
    )
    def test_write_hooks_return_every_written_file(self, monkeypatch, tmp_path, argv):
        returned = []

        def recording(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                returned.append(result)
                return result

            monkeypatch.setattr(owner, name, wrapper)

        recording(engine, "write_outputs")
        recording(cli, "emit_plot_data")
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        # write_outputs returns {name: path}, emit_plot_data a list of paths
        paths = [p for r in returned for p in (r.values() if isinstance(r, dict) else r)]
        assert sorted(paths) == sorted(out.iterdir())


class TestOneRolePass:
    """The battery pass reads the roles of the levels it writes, so a run
    classifies with roles_of once, for its first slot, and again only
    for a level list a caller put in place."""

    def test_plain_run_calls_roles_of_once(self, monkeypatch, reference_config):
        calls = {}
        TestStepContract.count_calls(monkeypatch, domain, "roles_of", calls)
        TestStepContract.count_calls(monkeypatch, domain, "bs_consumption", calls)
        cfg = dataclasses.replace(reference_config, horizon_slots=200, initial_fill_fraction=0.32)
        sim = Simulation(cfg)
        result = sim.run()
        assert sum(m.n_consumers for m in result.slots) > 0
        assert calls == {"roles_of": 1, "bs_consumption": len(sim.profiles.clusters) * 200}

    def test_replaced_levels_are_classified_again(self, monkeypatch):
        cfg = SimConfig(horizon_slots=3, idle_energy_J=0.0, on_grid_ids=(5,))
        sim = Simulation(cfg, *quiet_traces(cfg))
        roles_of = domain.roles_of
        calls = {}
        TestStepContract.count_calls(monkeypatch, domain, "roles_of", calls)
        quiet, _ = sim.step(0)
        assert quiet.n_consumers == quiet.n_sources == 0
        # a station above the upper threshold beside consumers below the lower one
        replaced = [100e3] * cfg.n_bs
        replaced[1] = 400e3
        sim.levels = replaced
        busy, _ = sim.step(1)
        demand, demands, surpluses = roles_of(replaced, sim.on_grid, 490e3, 147e3, 343e3)
        assert busy.level_J is replaced
        assert busy.demand_J == demand
        assert (busy.n_consumers, busy.n_sources) == (len(demands), len(surpluses)) == (cfg.n_bs - 2, 1)
        assert sum(busy.delivered_J) > 0.0
        # the next slot reads the battery pass's roles of the levels it wrote
        after, _ = sim.step(2)
        assert after.level_J is busy.level_end_J
        assert after.demand_J == roles_of(after.level_J, sim.on_grid, 490e3, 147e3, 343e3)[0]
        assert calls == {"roles_of": 2}


class TestQuietSlots:
    """A slot without consumers calls neither the allocator nor the transfer
    pass, and one without decisions skips the transfer pass and the link
    clear; the slot's results are those of the full machinery."""

    @staticmethod
    def counted(monkeypatch):
        calls = {}
        TestStepContract.count_calls(monkeypatch, allocation, "allocate_slot", calls)
        TestStepContract.count_calls(monkeypatch, transfer, "execute_transfers", calls)
        TestStepContract.count_calls(monkeypatch, PpgGrid, "clear_reservations", calls)
        return calls

    def test_quiet_reference_slot_calls_no_trade_machinery(self, monkeypatch, reference_config):
        sim = Simulation(reference_config)
        calls = self.counted(monkeypatch)
        for t in range(3):
            metrics, jobs = sim.step(t)
            assert not any(metrics.demand_J)
            assert jobs == []
            assert metrics.flow_J == metrics.delivered_J == [0.0] * reference_config.n_bs
            assert (metrics.outage_ids, metrics.shortfall_ids, metrics.n_overruns) == ([], [], 0)
        assert calls == {}

    def test_slot_of_outages_only_skips_the_transfer_pass(self, monkeypatch):
        cfg = SimConfig(horizon_slots=1, idle_energy_J=0.0, on_grid_ids=())
        sim = Simulation(cfg, *quiet_traces(cfg))
        sim.levels = [100e3] * cfg.n_bs   # every station a consumer, none a source
        calls = self.counted(monkeypatch)
        metrics, jobs = sim.step(0)
        assert sorted(metrics.outage_ids) == list(range(cfg.n_bs))
        assert jobs == []
        assert (metrics.shortfall_ids, metrics.n_overruns) == ([], 0)
        assert calls == {"allocate_slot": 1}

    def test_links_held_over_a_quiet_slot_are_cleared_before_the_next_busy_one(self, monkeypatch):
        cfg = SimConfig(horizon_slots=3, idle_energy_J=0.0, on_grid_ids=())
        neutral = [245e3] * cfg.n_bs
        # source 2 serves consumers 0 and 1; both routes hold link (0,1)-(0,2)
        busy = [100e3, 100e3, 490e3] + neutral[3:]

        def schedule(sim, clear_every_slot):
            jobs = []
            for t, levels in enumerate([busy, neutral, busy]):
                sim.levels = list(levels)
                if clear_every_slot:
                    sim.grid.clear_reservations()
                _, slot_jobs = sim.step(t)
                jobs.append([
                    (j.job_id, j.decision, j.mini_slots, j.start_mini_slot, j.completion_s, j.status)
                    for j in slot_jobs
                ])
            return jobs

        expected = schedule(Simulation(cfg, *quiet_traces(cfg)), clear_every_slot=True)
        calls = self.counted(monkeypatch)
        assert schedule(Simulation(cfg, *quiet_traces(cfg)), clear_every_slot=False) == expected
        assert calls == {"allocate_slot": 2, "execute_transfers": 2, "clear_reservations": 2}
        # the two jobs of a busy slot contend for the shared link, so any
        # reservation left over from slot 0 would delay slot 2's jobs
        assert [job[3] for job in expected[0]] == [0, 1]
        assert expected[2] == expected[0] and expected[1] == []


# struct formats of the per-station vectors, by SlotMetrics annotation
_PACKED = {"Sequence[float]": "d", "Sequence[int]": "q"}


def slot_bytes(metrics):
    """Every field of one slot's metrics, each numeric vector packed into bytes as it is now."""
    snapshot = []
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        if f.type in _PACKED:
            value = struct.pack(f"<{len(value)}{_PACKED[f.type]}", *value)
        elif f.type == "Sequence[str]":
            value = tuple(value)
        snapshot.append((f.name, value))
    return snapshot


class TestSlotVectorsStayPut:
    """The step hands the sink the lists it built, uncopied; none may change afterwards."""

    def test_stored_slots_keep_the_bytes_they_arrived_with(self, reference_config):
        cfg = dataclasses.replace(reference_config, horizon_slots=60, initial_fill_fraction=0.32)
        sim = Simulation(cfg)
        arrived = []

        class RecordingSink(engine.ResultSink):
            def slot(self, metrics, jobs):
                arrived.append(slot_bytes(metrics))
                super().slot(metrics, jobs)

        result = sim.run(sink=RecordingSink(cfg))
        assert [slot_bytes(m) for m in result.slots] == arrived
        for now, after in zip(result.slots, result.slots[1:]):
            assert now.level_end_J == after.level_J
        # the run moved what a shared list would let go stale: these vectors
        # differ in every slot, and deliveries, flows and demands in most
        for name in ("level_J", "purchase_J", "consumption_J"):
            assert len({tuple(getattr(m, name)) for m in result.slots}) == cfg.horizon_slots
        for name in ("demand_J", "delivered_J", "flow_J"):
            assert len({tuple(getattr(m, name)) for m in result.slots}) > cfg.horizon_slots // 2


def packed(vector):
    return struct.pack(f"<{len(vector)}d", *vector)


def vectors_from_jobs(n_stations, jobs):
    """A slot's flow and delivered vectors (as bytes), shortfall ids and overrun count, from its jobs.

    Each entry starts at 0.0 and adds in job order, as the transfer pass must.
    """
    flows, delivered = [0.0] * n_stations, [0.0] * n_stations
    for job in jobs:
        d = job.decision
        flows[d.consumer_id] += d.delivered_J
        flows[d.source_id] -= d.gross_J
        delivered[d.consumer_id] += d.delivered_J
    shortfall_ids = sorted({job.decision.consumer_id for job in jobs if job.decision.shortfall})
    return packed(flows), packed(delivered), shortfall_ids, sum(job.overrun for job in jobs)


def check_vectors_follow_jobs(result):
    """Every stored slot's vectors are those its jobs give; returns the run's jobs."""
    by_slot = collections.defaultdict(list)
    for slot, job in result.jobs:
        by_slot[slot].append(job)
    for m in result.slots:
        stored = packed(m.flow_J), packed(m.delivered_J), list(m.shortfall_ids), m.n_overruns
        assert stored == vectors_from_jobs(result.config.n_bs, by_slot[m.slot]), m.slot
    return [job for _, job in result.jobs]


class TestVectorsFollowJobs:
    """The step's flow, delivered, shortfall and overrun results are its jobs', bit for bit."""

    def test_small_configs(self):
        trades = {}

        @settings(derandomize=True, max_examples=100, deadline=None, database=None)
        @given(config=small_configs(trading=True))
        def check(config):
            trades[config] = bool(check_vectors_follow_jobs(run(config)))

        check()
        # a draw without jobs checks only zeros
        assert 2 * sum(trades.values()) >= len(trades), (sum(trades.values()), len(trades))

    def test_contended_variant(self, reference_config):
        jobs = check_vectors_follow_jobs(run(contended_config(reference_config)))
        assert any(job.overrun for job in jobs)
        assert any(job.start_mini_slot > 0 for job in jobs)
        assert any(job.mini_slots > 1 for job in jobs)
        assert any(job.decision.shortfall for job in jobs)


def queue_proof_violations(config, slots):
    """Where a run breaks the proof that no virtual queue can leave 0.

    Replays queue_update from the cap, beta_max_J, over each slot's
    delivered vector, as the drift-plus-penalty queues would advance. The
    proof's premises are checked per station: a consumer gets at most one
    delivery, so its delivered energy is within two roundings of its
    demand (gross = demand / fraction, then gross * fraction), and below
    the cap, which the validated thresholds keep the demand under.
    """
    cap = config.beta_max_J
    queues = [0.0] * config.n_bs
    found = []
    for m in slots:
        if any(q != 0.0 for q in queues):
            found.append(("queue", m.slot))
        for demand, delivered in zip(m.demand_J, m.delivered_J):
            if delivered > demand + 2 * math.ulp(demand):
                found.append(("demand", m.slot))
            if not delivered < cap:
                found.append(("cap", m.slot))
        queues = [allocation.queue_update(q, d, cap) for q, d in zip(queues, m.delivered_J)]
    if any(q != 0.0 for q in queues):
        found.append(("queue", len(slots)))
    return found


class TestQueueCannotMove:
    """Every slot-start virtual queue is 0.0 in every valid run, so the drift term is 0."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(config=small_configs())
    def test_small_configs(self, config):
        result = run(config)
        assert queue_proof_violations(config, result.slots) == []

    def test_reference_compare(self, reference_runs):
        results, _ = reference_runs
        for result in results.values():
            assert queue_proof_violations(result.config, result.slots) == []

    def test_penalty_bound_is_its_closed_form(self, reference_runs):
        # with every queue mean at 0 the bound is target + cap**2 / (2 lam):
        # about 1.2e11 J against a mean delivery near 1e3 J, so criterion 9
        # cannot fail until ROADMAP item 6 brings a queue that moves
        results, _ = reference_runs
        theorem, cfg = results["lyapunov"].theorem, results["lyapunov"].config
        assert cfg.lam > 0 and not theorem.skipped
        assert theorem.rhs == theorem.target_value + cfg.beta_max_J**2 / (2 * cfg.lam)

    @pytest.mark.parametrize("fill", [0.32, 0.2])
    def test_reference_day_at_low_fill(self, reference_config, fill):
        # about 1,900 deliveries per policy, a tenth to a fifth of them shortfalls
        cfg = dataclasses.replace(reference_config, initial_fill_fraction=fill)
        for result in compare(cfg, allocation.POLICIES).values():
            assert queue_proof_violations(cfg, result.slots) == []

    def test_a_consumer_served_twice_is_caught(self):
        cfg = TRADING
        slots = run(cfg).slots
        busy = next(k for k, m in enumerate(slots) if any(m.delivered_J))
        consumer = max(range(cfg.n_bs), key=slots[busy].delivered_J.__getitem__)
        # a planted fault: the consumer gets two deliveries of 0.6 cap each
        delivered = list(slots[busy].delivered_J)
        delivered[consumer] = 0.6 * cfg.beta_max_J + 0.6 * cfg.beta_max_J
        slots[busy] = dataclasses.replace(slots[busy], delivered_J=delivered)
        found = queue_proof_violations(cfg, slots)
        assert {kind for kind, _ in found} == {"queue", "demand", "cap"}
        assert ("queue", busy + 1) in found
