"""Benchmark entry point: runs one workload for a fixed time and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ref-compare --seed 1 --seconds 30 --trace 0

Every execution of the workload is a fresh single-threaded process
(worker.py) that drives ppgsim through its command-line entry point.  Each
execution's output files are checked (checks.py) and compared byte for
byte with the first execution's; a non-zero exit or a failed check counts
as a failed operation.

``--trace 0`` repeats untraced executions and reports the end-to-end
metrics as medians over them.  ``--trace 1`` alternates an untraced and a
traced execution and reports the per-layer metrics of the traced ones plus
``trace.overhead_s``, the traced minus the untraced median wall time.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXECUTION_TIMEOUT_S = 150
MIN_ROUNDS = {0: 2, 1: 1}
# per-layer metrics the traced run must agree with the output files on
TRACE_FACTS = {
    "engine.step_calls": "slots",
    "allocation.decisions": "jobs",
    "transfer.jobs": "jobs",
    "allocation.shortfalls": "shortfalls",
    "allocation.outages": "outages",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "slots_per_s": "slots/s",
    "output_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Execution:
    traced: bool
    report: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, root: Path, work: Path, prepared: workloads.Prepared) -> None:
        self.root = root
        self.work = work
        self.prepared = prepared
        self.verdicts: dict[str, tuple[list[str], dict]] = {}
        self.first_digest: str | None = None
        self.count = 0
        self.env = {
            key: value for key, value in os.environ.items() if not key.startswith("PYTHON")
        }
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def execute(self, traced: bool) -> Execution:
        self.count += 1
        out = self.work / f"exec{self.count}"
        report_path = self.work / f"exec{self.count}.json"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--src", str(self.root / "src"),
            "--report", str(report_path),
            "--trace", str(int(traced)),
            "--", *self.prepared.argv, "--out", str(out),
        ]
        result = Execution(traced)
        try:
            proc = subprocess.run(
                command, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=EXECUTION_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            result.failures.append(f"execution timed out after {EXECUTION_TIMEOUT_S} s")
            return result
        if proc.returncode != 0 or not report_path.exists():
            result.failures.append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return result
        result.report = json.loads(report_path.read_text())
        if result.report["exit_code"] != 0:
            result.failures.append(f"ppgsim exited {result.report['exit_code']}: {proc.stderr.strip()[-400:]}")
            return result
        digest = output_digest(out)
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self.prepared.check(out)
            except (KeyError, ValueError, IndexError, OSError) as exc:
                self.verdicts[digest] = ([f"output files unreadable: {exc!r}"], {})
        failures, result.facts = self.verdicts[digest]
        result.failures.extend(failures)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            result.failures.append("output files differ from the first execution's")
        shutil.rmtree(out)
        return result


def median_of(executions: list[Execution], key) -> float:
    return statistics.median(key(e) for e in executions)


def end_to_end(executions: list[Execution]) -> dict[str, float]:
    return {
        "wall_s": median_of(executions, lambda e: e.report["wall_s"]),
        "setup_s": median_of(executions, lambda e: e.report["setup_s"]),
        "slots_per_s": median_of(executions, lambda e: e.report["slots"] / e.report["step_s"]),
        "output_s": median_of(executions, lambda e: e.report["output_s"]),
        "peak_rss_mb": median_of(executions, lambda e: e.report["peak_rss_mb"]),
    }


def per_layer(traced: list[Execution], untraced: list[Execution]) -> dict[str, float]:
    names = dict.fromkeys(name for e in traced for name in e.report["layers"])
    metrics = {
        name: median_of(traced, lambda e: e.report["layers"].get(name, 0)) for name in names
    }
    metrics["trace.overhead_s"] = (
        median_of(traced, lambda e: e.report["wall_s"]) - median_of(untraced, lambda e: e.report["wall_s"])
    )
    return metrics


def trace_agrees(execution: Execution) -> bool:
    """The tracer's counts match the same execution's output files."""
    layers = execution.report["layers"]
    return all(
        layers[metric] == execution.facts[fact]
        for metric, fact in TRACE_FACTS.items()
        if metric in layers
    )


def measure(runner: Runner, trace: int, seconds: float) -> list[Execution]:
    """Whole rounds, started until `seconds` have passed."""
    plan = [False, True] if trace else [False]
    executions: list[Execution] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS[trace] or time.perf_counter() - start < seconds:
        executions.extend(runner.execute(traced) for traced in plan)
        rounds += 1
    return executions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ppgsim" / "cli.py").is_file() or not (root / workloads.REFERENCE).is_file():
        print(f"error: {root} holds no ppgsim checkout (src/ppgsim, {workloads.REFERENCE})", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.WORKLOADS[args.workload](root, work, args.seed)
        executions = measure(Runner(root, work, prepared), args.trace, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in executions:
        if e.report:
            print(
                f"{'traced' if e.traced else 'untraced'}: wall {e.report['raw_wall_s']:.3f} s measured, "
                f"{e.report['wall_s']:.3f} s calibrated (kernel {e.report['calibration_s'] * 1e3:.3f} ms), "
                f"setup {e.report['setup_s']:.4f} s, output {e.report['output_s']:.4f} s",
                file=sys.stderr,
            )
        for failure in e.failures[:5]:
            print(f"FAILED ({'traced' if e.traced else 'untraced'}): {failure}", file=sys.stderr)
    done = [e for e in executions if not e.failures]
    untraced = [e for e in done if not e.traced]
    traced = [e for e in done if e.traced]
    if not untraced or (args.trace and not traced):
        print("error: no execution of the workload succeeded", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in per_layer(traced, untraced).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end(untraced).items()}
    correct = all(e.report["slots"] == e.facts["slots"] for e in done) and all(map(trace_agrees, traced))
    print(json.dumps({
        "correct": correct,
        "attempted": len(executions),
        "failed": len(executions) - len(done),
        "metrics": metrics,
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_consumer"):
        return "1/consumer"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
