"""Command-line front end.

Subcommands: run, compare, sweep-lambda, validate-traces, gen-traces.
Scenario files are plain ``key = value`` text (# comments allowed);
unknown keys are rejected. Exit codes: 0 success, 1 validation error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import allocation, engine, ingest
from .engine import RunSummary, SimConfig
from .errors import ConfigError, TraceFormatError
from .numeric import left_sum

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _key_values(path: str | Path) -> dict[str, str]:
    """The key = value pairs of a file; blank and # lines are skipped, and a
    line without '=' or a repeated key is rejected with its line number."""
    items: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        items[key] = value.strip()
    return items


def parse_config_file(path: str | Path) -> SimConfig:
    """Parse a key = value scenario file into a validated SimConfig.

    A run's summary.txt is a scenario file too: when the file has config.*
    keys, only those are read (see config_from_summary).
    """
    items = _key_values(path)
    if any(key.startswith("config.") for key in items):
        return config_from_summary(items)
    return engine.config_from_items(items)


def config_from_summary(summary: str | Path | Mapping[str, str]) -> SimConfig:
    """Rebuild the effective config from the config.* lines of a summary's path or of its read pairs."""
    items = summary if isinstance(summary, Mapping) else _key_values(summary)
    config = {key.removeprefix("config."): value for key, value in items.items() if key.startswith("config.")}
    if not config:
        raise ConfigError(f"{summary}: no config.* line, so it is not a run summary")
    return engine.config_from_items(config)


def _apply_overrides(config: SimConfig, args: argparse.Namespace) -> SimConfig:
    updates: dict[str, object] = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "policy", None) is not None:
        updates["policy"] = args.policy
    if getattr(args, "lam", None) is not None:
        updates["lam"] = args.lam
    if getattr(args, "horizon", None) is not None:
        updates["horizon_slots"] = args.horizon
    return dataclasses.replace(config, **updates) if updates else config


def _load_config(args: argparse.Namespace) -> SimConfig:
    config = parse_config_file(args.config) if args.config else SimConfig()
    return _apply_overrides(config, args)


def emit_plot_data(
    results: dict[str, RunSummary],
    out_dir: str | Path,
    hourly: bool = False,
) -> list[Path]:
    """Write plot-ready series: one delivered file per policy, one shared demand file.

    The demand series comes from the first policy in the mapping. With
    hourly=True, slot values are summed into 60-slot buckets. A streamed
    result must have kept its series (FileSink or SummarySink with keep_series).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def bucket(series: list[float]) -> list[float]:
        if not hourly:
            return series
        return [left_sum(series[i : i + 60]) for i in range(0, len(series), 60)]

    written = []
    first = next(iter(results.values()), None)
    header = "hour,energy_J" if hourly else "slot,energy_J"
    if first is not None:
        demand = bucket(first.demand_series)
        path = out / "demand.csv"
        path.write_text("\n".join([header] + [f"{i},{v!r}" for i, v in enumerate(demand)]) + "\n")
        written.append(path)
    for policy, result in results.items():
        delivered = bucket(result.delivered_series)
        path = out / f"delivered_{policy}.csv"
        path.write_text("\n".join([header] + [f"{i},{v!r}" for i, v in enumerate(delivered)]) + "\n")
        written.append(path)
    return written


def emit_lambda_table(sweep: list[tuple[float, RunSummary]], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["lambda,mean_eb_J,delivered_J,demand_coverage_pct"]
    for lam, result in sweep:
        rows.append(
            f"{lam!r},{result.summary['mean_eb_J']!r},"
            f"{result.summary['total_delivered_J']!r},"
            f"{result.summary['demand_coverage_pct']!r}"
        )
    path = out / "mean_eb_vs_lambda.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = engine.run(
        config,
        sink_for=lambda cfg: engine.FileSink(cfg, args.out, trajectories=args.dump_trajectories),
    )
    paths = engine.write_outputs(result, args.out)
    print(f"policy={config.policy} seed={config.seed} slots={result.summary['horizon_slots']}")
    print(f"delivered_J={result.summary['total_delivered_J']!r}")
    print(f"demand_coverage_pct={result.summary['demand_coverage_pct']!r}")
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    # compare rejects an unknown or repeated policy before any run, so a bad
    # list writes no file
    if not policies:
        raise ConfigError("--policies is empty")
    # every run streams its data files; summaries and plot series are written
    # once all runs are done
    results = engine.compare(
        config,
        policies,
        sink_for=lambda cfg: engine.FileSink(cfg, args.out, prefix=cfg.policy, keep_series=True),
    )
    for policy, result in results.items():
        engine.write_outputs(result, args.out, prefix=policy)
        print(
            f"{policy}: delivered_J={result.summary['total_delivered_J']!r} "
            f"coverage={result.summary['demand_coverage_pct']!r}%"
        )
    emit_plot_data(results, args.out, hourly=args.hourly)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print("error: --values must be a comma-separated list of numbers", file=sys.stderr)
        return EXIT_VALIDATION
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return EXIT_VALIDATION
    sweep = engine.sweep_lambda(config, values, sink_for=engine.SummarySink)
    path = emit_lambda_table(sweep, args.out)
    for lam, result in sweep:
        print(f"lambda={lam}: mean_eb_J={result.summary['mean_eb_J']!r}")
    print(f"table: {path}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.profiles and not args.harvest:
        print("error: nothing to validate; pass --profiles and/or --harvest", file=sys.stderr)
        return EXIT_VALIDATION
    if args.profiles:
        ingest.parse_profiles(args.profiles, args.slots_per_day)
        print(f"profiles ok: {args.profiles}")
    if args.harvest:
        timestamps, solar, wind = ingest.parse_harvest(args.harvest)
        ingest.samples_per_slot(timestamps, args.tau)
        print(f"harvest ok: {args.harvest} ({len(timestamps)} samples)")
    return EXIT_OK


def _cmd_gen_traces(args: argparse.Namespace) -> int:
    # checked before any file is made: each would write a harvest file that
    # validate-traces rejects
    if args.days < 1:
        raise ConfigError(f"--days must be >= 1, got {args.days}")
    slots = args.days * 1440
    if not (args.tau > 0 and math.isfinite(args.tau * (slots - 1))):
        raise ConfigError(f"--tau must be finite and positive, with a finite last timestamp, got {args.tau}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clusters = ingest.synthetic_profiles(args.seed, 1440)
    solar, wind = ingest.synthetic_harvest_raw(args.seed, slots, 1440)
    profiles_path = out / "profiles.csv"
    harvest_path = out / "harvest.csv"
    ingest.write_profiles(profiles_path, clusters)
    ingest.write_harvest(harvest_path, solar, wind, args.tau)
    print(f"profiles: {profiles_path}")
    print(f"harvest: {harvest_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ppgsim",
        description="Energy-cooperation simulator for harvesting base stations on a power packet grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="scenario file (key = value); defaults built in")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--policy", default=None, choices=allocation.POLICIES, help="override the allocation policy")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="override the control weight")
        p.add_argument("--horizon", type=int, default=None, help="override the horizon in slots")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run one policy and write metrics/summary")
    add_common(p_run)
    p_run.add_argument("--dump-trajectories", action="store_true", help="also write per-slot vehicle positions")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several policies on identical traces")
    add_common(p_cmp)
    p_cmp.add_argument("--policies", default=",".join(allocation.POLICIES), help="comma-separated policy list")
    p_cmp.add_argument("--hourly", action="store_true", help="aggregate plot series to hours")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep-lambda", help="run a control-weight sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--values", default="0.2,0.4,0.6,0.8,1.0", help="comma-separated weights")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate-traces", help="check trace files against their schemas")
    p_val.add_argument("--profiles", default=None, help="profiles file to validate")
    p_val.add_argument("--harvest", default=None, help="harvest file to validate")
    p_val.add_argument("--slots-per-day", type=int, default=1440)
    p_val.add_argument("--tau", type=float, default=60.0, help="slot duration in seconds")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("gen-traces", help="write synthetic profile/harvest files")
    p_gen.add_argument("--out", default="traces")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--days", type=int, default=1)
    p_gen.add_argument("--tau", type=float, default=60.0)
    p_gen.set_defaults(func=_cmd_gen_traces)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
