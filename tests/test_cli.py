"""Command-line interface: subcommands, exit codes, and emitted files."""

from pathlib import Path

import pytest

from ppgsim.allocation import POLICIES
from ppgsim.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    config_from_summary,
    emit_plot_data,
    main,
    parse_config_file,
)
from ppgsim.engine import SimConfig, compare
from ppgsim.errors import ConfigError


def write_config(tmp_path, **overrides):
    cfg = SimConfig(**overrides)
    from ppgsim.engine import config_items
    lines = [f"{k} = {v}" for k, v in config_items(cfg)]
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigFile:
    def test_parse_reference_config(self):
        cfg = parse_config_file("configs/table1.cfg")
        assert cfg.seed == 7
        assert cfg.policy == "lyapunov"
        assert cfg.beta_max_J == 490e3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rows = 4\nnot_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rows = 4\nrows = 5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_duplicate_summary_key_rejected(self, tmp_path):
        path = tmp_path / "summary.txt"
        path.write_text("config.seed = 3\nconfig.seed = 4\n")
        with pytest.raises(ConfigError, match="line 2: duplicate key 'config.seed'"):
            parse_config_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\nseed = 9\n")
        assert parse_config_file(path).seed == 9

    def test_summary_file_is_read_once(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, seed=3)
        path.write_text("".join(f"config.{line}\n" for line in path.read_text().splitlines()))
        reads = []
        original = type(path).read_text

        def counted(self, *args, **kwargs):
            reads.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(path), "read_text", counted)
        assert parse_config_file(path) == SimConfig(seed=3)
        assert reads == [path]

    def test_config_from_summary_rejects_a_file_without_config_lines(self):
        # a scenario file has no config.* line; its own keys (seed 7) are
        # not the defaults, so returning SimConfig() would be a silent error
        assert parse_config_file("configs/table1.cfg").seed == 7
        with pytest.raises(ConfigError, match="^configs/table1.cfg: no config.* line"):
            config_from_summary("configs/table1.cfg")

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "key, raw", [("rows", "four"), ("lam", "x"), ("on_grid_ids", "1,a"), ("seed", "1e3")]
    )
    def test_malformed_value_exits_1_naming_its_key(self, tmp_path, capsys, key, raw):
        lines = Path("configs/table1.cfg").read_text().splitlines()
        path = tmp_path / "bad.cfg"
        path.write_text("".join(
            f"{key} = {raw}\n" if line.partition("=")[0].strip() == key else f"{line}\n"
            for line in lines
        ))
        assert f"{key} = {raw}" in path.read_text().splitlines()
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config key '{key}' must be" in err and repr(raw) in err
        assert "runtime failure" not in err
        assert not out.exists()


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, horizon_slots=10)
        rc = main(["run", "--config", str(cfg_path), "--seed", "7", "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert (tmp_path / "out" / "transfers.csv").exists()
        assert (tmp_path / "out" / "summary.txt").exists()
        assert "demand_coverage_pct" in capsys.readouterr().out

    def test_summary_round_trips_to_identical_config(self, tmp_path):
        cfg_path = write_config(tmp_path, horizon_slots=10, seed=5, lam=0.6)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        rebuilt = config_from_summary(tmp_path / "out" / "summary.txt")
        assert rebuilt == parse_config_file(cfg_path)

    def test_summary_replays_the_run(self, tmp_path):
        # the first run's overrides reach the replay only through summary.txt
        cfg_path = write_config(tmp_path, horizon_slots=30, initial_fill_fraction=0.05)
        first, replay = tmp_path / "first", tmp_path / "replay"
        overrides = ["--policy", "radial", "--lambda", "0.6", "--seed", "3"]
        argv = ["run", "--dump-trajectories", "--config"]
        assert main([*argv, str(cfg_path), *overrides, "--out", str(first)]) == EXIT_OK
        assert main([*argv, str(first / "summary.txt"), "--out", str(replay)]) == EXIT_OK
        written = sorted(p.name for p in first.iterdir())
        assert written == ["metrics.csv", "summary.txt", "trajectories.csv", "transfers.csv"]
        assert len((first / "transfers.csv").read_text().splitlines()) > 1
        for name in written:
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_overrides_apply(self, tmp_path):
        cfg_path = write_config(tmp_path, horizon_slots=10)
        rc = main([
            "run", "--config", str(cfg_path), "--policy", "radial",
            "--lambda", "0.4", "--horizon", "5", "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_OK
        rebuilt = config_from_summary(tmp_path / "out" / "summary.txt")
        assert rebuilt.policy == "radial"
        assert rebuilt.lam == 0.4
        assert rebuilt.horizon_slots == 5

    def test_trajectory_dump_flag(self, tmp_path):
        cfg_path = write_config(tmp_path, horizon_slots=5)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--dump-trajectories", "--out", str(out)])
        assert rc == EXIT_OK
        rows = (out / "trajectories.csv").read_text().splitlines()
        assert rows[0] == "slot,group,x_m,y_m,serving_bs"
        assert len(rows) == 1 + 5 * 10

    def test_missing_config_file_is_validation_error(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION


class TestBadUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_unknown_flag(self):
        assert main(["run", "--wat"]) == EXIT_VALIDATION

    def test_bad_policy_choice(self):
        assert main(["run", "--policy", "greedy"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_registered_policy_is_a_choice(self, tmp_path, policy):
        assert main(["run", "--policy", policy, "--horizon", "0", "--out", str(tmp_path)]) == EXIT_OK


class TestCompareCommand:
    def test_compare_emits_series(self, tmp_path):
        cfg_path = write_config(tmp_path, horizon_slots=10)
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(cfg_path), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "demand.csv").exists()
        for policy in ("lyapunov", "radial", "random"):
            assert (out / f"delivered_{policy}.csv").exists()
            assert (out / f"{policy}_summary.txt").exists()

    def test_hourly_aggregation(self, tmp_path):
        cfg = SimConfig(horizon_slots=120, seed=3)
        results = compare(cfg, ["lyapunov"])
        paths = emit_plot_data(results, tmp_path, hourly=True)
        demand = (tmp_path / "demand.csv").read_text().splitlines()
        assert demand[0] == "hour,energy_J"
        assert len(demand) == 1 + 2  # 120 slots -> 2 hourly buckets

    def test_unknown_policy_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--horizon", "30", "--policies", "lyapunov,greedy", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "'greedy'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policies", ["lyapunov,lyapunov", "radial, random ,radial"])
    def test_repeated_policy_rejected_before_any_run(self, tmp_path, capsys, policies):
        out = tmp_path / "cmp"
        assert main(["compare", "--horizon", "30", "--policies", policies, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "listed twice" in err
        assert policies.split(",")[0].strip() in err
        assert not out.exists()

    @pytest.mark.parametrize("policies", ["", " , "])
    def test_empty_policies_rejected(self, tmp_path, capsys, policies):
        out = tmp_path / "cmp"
        assert main(["compare", "--horizon", "30", "--policies", policies, "--out", str(out)]) == EXIT_VALIDATION
        assert "--policies is empty" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_writes_table(self, tmp_path):
        cfg_path = write_config(tmp_path, horizon_slots=10)
        out = tmp_path / "sweep"
        rc = main([
            "sweep-lambda", "--config", str(cfg_path),
            "--values", "0.2,0.4,0.6,0.8,1.0", "--out", str(out),
        ])
        assert rc == EXIT_OK
        rows = (out / "mean_eb_vs_lambda.csv").read_text().splitlines()
        assert rows[0] == "lambda,mean_eb_J,delivered_J,demand_coverage_pct"
        assert len(rows) == 6

    @staticmethod
    def rejected(tmp_path, capsys, values):
        """(exit code, stdout, stderr) of a sweep with these values, which must write nothing."""
        out = tmp_path / "sweep"
        rc = main(["sweep-lambda", "--values", values, "--out", str(out)])
        assert not out.exists()
        return rc, *capsys.readouterr()

    # main prints each error once, as "error: <message>", and picks the exit code
    def test_bad_values_rejected(self, tmp_path, capsys):
        message = "error: --values must be a comma-separated list of numbers\n"
        for values in ("a,b", "0.5,x"):
            assert self.rejected(tmp_path, capsys, values) == (EXIT_VALIDATION, "", message)

    def test_empty_values_rejected(self, tmp_path, capsys):
        for values in (",", ""):
            assert self.rejected(tmp_path, capsys, values) == (EXIT_VALIDATION, "", "error: --values is empty\n")


class TestTraceCommands:
    def test_gen_then_validate(self, tmp_path):
        out = tmp_path / "traces"
        assert main(["gen-traces", "--out", str(out), "--seed", "3", "--days", "1"]) == EXIT_OK
        rc = main([
            "validate-traces",
            "--profiles", str(out / "profiles.csv"),
            "--harvest", str(out / "harvest.csv"),
        ])
        assert rc == EXIT_OK

    def test_long_harvest_file_validates(self, tmp_path):
        # 120 days of 60 s slots run past timestamp 1e7
        out = tmp_path / "traces"
        assert main(["gen-traces", "--out", str(out), "--seed", "3", "--days", "120"]) == EXIT_OK
        assert main(["validate-traces", "--harvest", str(out / "harvest.csv")]) == EXIT_OK

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--days", "0"), ("--days", "-1"),
            ("--tau", "0"), ("--tau", "-60"), ("--tau", "nan"), ("--tau", "inf"),
            # finite, but the timestamp of slot 180 overflows to inf
            ("--tau", "1e306"),
        ],
    )
    def test_gen_rejects_arguments_that_make_a_useless_file(self, tmp_path, capsys, flag, value):
        # each would write a harvest file that validate-traces rejects
        out = tmp_path / "traces"
        assert main(["gen-traces", "--out", str(out), flag, value]) == EXIT_VALIDATION
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_rejects_corrupt_profiles(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,cluster0,cluster1,cluster2,cluster3\n0,2.0,0.5,0.5,0.5\n")
        assert main(["validate-traces", "--profiles", str(path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("row", ["120,nan,0.5", "120,1.0,nan", "inf,1.0,0.5"])
    def test_validate_rejects_non_finite_harvest(self, tmp_path, capsys, row):
        path = tmp_path / "h.csv"
        path.write_text("timestamp_s,solar,wind\n0,1.0,0.5\n60,1.0,0.5\n" + row + "\n")
        assert main(["validate-traces", "--harvest", str(path)]) == EXIT_VALIDATION
        assert "line 4: non-finite value" in capsys.readouterr().err

    def test_run_rejects_nan_solar_harvest(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        rows = [f"{t * 60},{'nan' if t == 3 else '1.0'},0.5\n" for t in range(12)]
        path.write_text("timestamp_s,solar,wind\n" + "".join(rows))
        cfg_path = write_config(tmp_path, horizon_slots=10, harvest_path=str(path))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert "line 5: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf", "0", "-60"])
    def test_validate_rejects_bad_slot_length(self, tmp_path, capsys, tau):
        path = tmp_path / "h.csv"
        path.write_text("timestamp_s,solar,wind\n0,1.0,0.5\n60,1.0,0.5\n")
        assert main(["validate-traces", "--harvest", str(path), "--tau", tau]) == EXIT_VALIDATION
        assert "tau_s must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [pytest.param(key, value, f"error: {key} must be finite", id=f"{key}-{value}")
         for key, value in [
             ("tau_s", "nan"), ("mini_slot_s", "nan"), ("beta_max_J", "nan"),
             ("idle_energy_J", "-7000.0"), ("max_load_energy_J", "inf"),
             ("lane_gap_m", "nan"), ("speed_max_mps", "inf"), ("delta_s", "inf"), ("xi_s", "nan"),
             ("resistivity", "-1"), ("resistivity", "nan"), ("link_length_m", "0"),
             ("link_length_m", "inf"), ("cross_section_mm2", "-2"), ("dc_voltage_V", "nan"),
             ("phi_max_J", "nan"),
         ]]
        + [pytest.param(
            "mini_slot_s", "7", "error: tau_s must be a whole multiple of mini_slot_s", id="mini_slot_s-7"
        )],
    )
    def test_run_rejects_bad_numeric_key_by_name(self, tmp_path, capsys, key, value, message):
        lines = write_config(tmp_path, horizon_slots=5).read_text().splitlines()
        path = tmp_path / "bad.cfg"
        path.write_text(
            "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines)
        )
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_run_rejects_a_tiny_link_quantum_and_writes_nothing(self, tmp_path, capsys):
        lines = write_config(tmp_path, horizon_slots=5).read_text().splitlines()
        path = tmp_path / "tiny.cfg"
        path.write_text("\n".join("phi_max_J = 1e-6" if line.startswith("phi_max_J =") else line for line in lines))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert "error: phi_max_J must be at least beta_max_J" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_needs_an_argument(self, capsys):
        assert main(["validate-traces"]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: nothing to validate; pass --profiles and/or --harvest\n")

    def test_generated_traces_drive_a_run(self, tmp_path):
        out = tmp_path / "traces"
        main(["gen-traces", "--out", str(out), "--seed", "3", "--days", "1"])
        cfg_path = write_config(
            tmp_path,
            horizon_slots=10,
            profiles_path=str(out / "profiles.csv"),
            harvest_path=str(out / "harvest.csv"),
        )
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
