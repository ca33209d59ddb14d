"""One workload execution in a fresh process, timed from outside the program.

Usage (normally started by run.py):

    python3 perfbench/worker.py --src SRC --report REPORT.json --trace 0|1 -- <ppgsim argv>

The worker imports ppgsim from SRC, wraps a few of its public functions,
calls ``ppgsim.cli.main`` with the given argv and writes a JSON report.

Every time in the report is in calibrated seconds: the measured time
scaled by CALIBRATION_REFERENCE_S over the mean time of a fixed
pure-Python kernel (SpeedProbe).  The kernel runs before and after the
workload, between steps every SAMPLE_EVERY_S, and in bursts around each
set-up and write span.  On a shared machine the speed of a core drifts by
up to 2x within seconds; the kernel slows down with it.  Time spent in
the kernel is left out of every span.

Without tracing only coarse spans are recorded: the start of each
simulation's first step, the step loop and the output writes.  With
tracing every public function listed in LAYERS is wrapped as well; a
target that no longer exists is skipped and its metrics are left out of
the report.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

perf_counter = time.perf_counter

# mean kernel time on the machine the README figures come from
CALIBRATION_REFERENCE_S = 0.0033
SAMPLE_EVERY_S = 0.05
SAMPLES_AROUND = 20
# samples taken next to a short span, and how far from it they may lie
BURST = 12
NEAR_S = 0.035


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


class _Lattice:
    def __init__(self, cols: int) -> None:
        self.cols = cols

    def distance(self, a: int, b: int) -> int:
        return abs(a // self.cols - b // self.cols) + abs(a % self.cols - b % self.cols)


def calibration_kernel() -> float:
    """Fixed interpreter work in the simulator's mix: small frozen objects and
    dict updates, then method calls in dict comprehensions and keyed sorts.
    Returns seconds taken."""
    start = perf_counter()
    totals: dict[int, float] = {}
    kept = []
    for i in range(700):
        key = i % 613
        point = _Point(i * 0.5, key * 1.5)
        totals[key] = totals.get(key, 0.0) + point.x - point.y
        if len(kept) < 100:
            kept.append(point)
    sorted(totals.values(), key=abs)
    min(kept, key=lambda p: p.y)
    lattice = _Lattice(30)
    surplus = {i: float(i % 7) for i in range(0, 600, 2)}
    for consumer in range(1, 25, 4):
        hops = {s: lattice.distance(s, consumer) for s in surplus}
        order = sorted((s for s in surplus if surplus[s] > 0.0), key=lambda s: (hops[s], s))
        [s for s in order if surplus[s] * 0.9 ** hops[s] >= 3.0]
    return perf_counter() - start


class SpeedProbe:
    """Samples how fast this core runs the kernel over the workload's lifetime."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (end time, kernel s, weight s)
        self.spent_s = 0.0
        self.last = perf_counter()

    def sample(self, times: int = 1) -> None:
        start = perf_counter()
        for _ in range(times):
            kernel_s = calibration_kernel()
            now = perf_counter()
            # weighted by the time since the previous sample: a time average
            # however long the steps between samples are
            self.samples.append((now, kernel_s, now - self.last))
            self.last = now
        self.spent_s += self.last - start

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Calibration factor over the whole workload."""
        weight = sum(w for _, _, w in self.samples)
        return CALIBRATION_REFERENCE_S * weight / sum(k * w for _, k, w in self.samples)

    def scale_near(self, begin: float, end: float) -> float:
        """Calibration factor from the samples taken right around [begin, end]."""
        near = [k for t, k, _ in self.samples if begin - NEAR_S <= t <= end + NEAR_S]
        return CALIBRATION_REFERENCE_S / statistics.median(near) if near else self.scale()


def _lookup(module, qualname: str):
    """Return (owner, attribute name, original) or None when the target is gone."""
    owner = module
    *parents, name = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


class Phases:
    """Coarse spans: set-up before each simulation's first step, steps, writes.

    Set-up and write spans are short, so each is calibrated by a burst of
    samples taken right before and after it; steps and the whole workload
    use the time average of every sample.
    """

    def __init__(self, ppgsim_modules: dict, probe: SpeedProbe) -> None:
        self.probe = probe
        self.setup_spans: list[tuple[float, float]] = []
        self.write_spans: list[tuple[float, float]] = []
        self.step_s = 0.0
        self.slots = 0
        self.mark = perf_counter()
        self._current = None
        engine, cli = ppgsim_modules["engine"], ppgsim_modules["cli"]
        self._wrap(engine.Simulation, "step", self._step)
        self._wrap(engine.Simulation, "run", self._run)
        self._wrap(engine, "write_outputs", self._write)
        self._wrap(cli, "emit_plot_data", self._write)

    @staticmethod
    def _wrap(owner, name: str, make) -> None:
        setattr(owner, name, make(getattr(owner, name)))

    def _step(self, fn):
        def step(sim, *args, **kwargs):
            if sim is not self._current:
                self._current = sim
                self.setup_spans.append((self.mark, perf_counter()))
                self.probe.sample(BURST)
            start = perf_counter()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self.step_s += perf_counter() - start
                self.slots += 1
                self.probe.maybe_sample()
        return step

    def _run(self, fn):
        def run(sim, *args, **kwargs):
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self.mark = perf_counter()
        return run

    def _write(self, fn):
        def write(*args, **kwargs):
            self.probe.sample(BURST)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.write_spans.append((start, perf_counter()))
                self.probe.sample(BURST)
        return write

    def calibrated(self, spans: list[tuple[float, float]]) -> float:
        return sum((end - begin) * self.probe.scale_near(begin, end) for begin, end in spans)


# Timed spans: metric prefix -> wrapped targets, each "module.qualname".
# Each reports <prefix>_s, its inclusive time.
LAYERS = {
    "ingest.load": ["ingest.load_profiles", "ingest.load_harvest"],
    "ingest.synth": ["ingest.synthetic_profiles", "ingest.synthetic_harvest"],
    "ingest.sample": ["ingest.LoadProfileSet.load_at", "ingest.HarvestTraceSet.sample", "ingest.harvest_select"],
    "mobility.move": ["mobility.rpgm_step"],
    "mobility.assoc": ["mobility.association_set"],
    "domain.role": ["domain.classify_role"],
    "domain.battery": ["domain.eb_step_offgrid", "domain.eb_step_ongrid", "domain.grid_purchase"],
    "domain.consumption": ["domain.bs_consumption"],
    "allocation.allocate": ["allocation.allocate_slot"],
    "allocation.queue": ["allocation.VirtualQueues.advance"],
    "allocation.theorem": ["allocation.theorem1_report"],
    "topology.route": ["topology.PpgGrid.static_route"],
    "topology.clear": ["topology.PpgGrid.clear_reservations"],
    "transfer.execute": ["transfer.execute_transfers"],
    "engine.step": ["engine.Simulation.step"],
    "engine.init": ["engine.Simulation.__init__"],
    "engine.summarize": ["engine.summarize"],
    "engine.write": ["engine.write_outputs", "cli.emit_plot_data"],
}

# Spans that also report <prefix>_calls.
CALL_COUNTED = {
    "ingest.sample", "mobility.move", "mobility.assoc", "domain.role", "domain.battery",
    "domain.consumption", "allocation.queue", "topology.route",
}

# Untimed call counters, same target notation.
COUNTERS = {
    "ingest.rows": ["ingest.parse_profiles", "ingest.parse_harvest"],
    "domain.buffers_built": ["domain.EnergyBuffer.__init__"],
    "allocation.hop_lookups": ["topology.PpgGrid.hop_count"],
    "topology.reserve_calls": ["topology.PowerLink.reserve"],
}


class LayerTracer:
    """Wraps each layer's public functions with spans and counters."""

    def __init__(self, ppgsim_modules: dict) -> None:
        self.modules = ppgsim_modules
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._stack = [[0.0]]
        self._in_allocate = 0
        for prefix, targets in LAYERS.items():
            self._install(prefix, targets, self._span)
        for metric, targets in COUNTERS.items():
            self._install(metric, targets, self._counter)

    def _install(self, metric: str, targets: list[str], make) -> None:
        self.time[metric] = self.self_time[metric] = 0.0
        self.calls[metric] = 0
        for target in targets:
            module_name, _, qualname = target.partition(".")
            found = _lookup(self.modules[module_name], qualname)
            if found is None:
                self.absent.add(metric)
                continue
            owner, name, original = found
            setattr(owner, name, make(metric, original))

    def _span(self, prefix: str, fn):
        hook = RESULT_HOOKS.get(prefix)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack
        is_allocate = prefix == "allocation.allocate"

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            self._in_allocate += is_allocate
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_allocate -= is_allocate
                stack.pop()
                stack[-1][0] += elapsed
                self.time[prefix] += elapsed
                self.self_time[prefix] += elapsed - frame[0]
                self.calls[prefix] += 1
            if hook is not None:
                try:
                    counts = hook(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.absent.add(prefix)
                else:
                    for metric, value in counts.items():
                        self.counts[metric] = self.counts.get(metric, 0) + value
            return result
        return span

    def _counter(self, metric: str, fn):
        calls = self.calls
        if metric == "allocation.hop_lookups":
            def count(*args, **kwargs):
                if self._in_allocate:
                    calls[metric] += 1
                return fn(*args, **kwargs)
        elif metric == "ingest.rows":
            def count(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[metric] += len(result[0])
                return result
        else:
            def count(*args, **kwargs):
                calls[metric] += 1
                return fn(*args, **kwargs)
        return count

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics; a metric whose target is gone is left out."""
        out: dict[str, float] = {}
        for prefix in LAYERS:
            if prefix not in self.absent:
                out[f"{prefix}_s"] = self.time[prefix]
                if prefix in CALL_COUNTED:
                    out[f"{prefix}_calls"] = self.calls[prefix]
        for metric in COUNTERS:
            if metric not in self.absent:
                out[metric] = self.calls[metric]
        for prefix, names in HOOK_METRICS.items():
            if prefix not in self.absent:
                out.update((name, self.counts.get(name, 0)) for name in names)
        if "engine.step" not in self.absent:
            out["engine.step_self_s"] = self.self_time["engine.step"]
        if "allocation.consumers" in out and "allocation.hop_lookups" in out:
            consumers = out["allocation.consumers"]
            out["allocation.hop_lookups_per_consumer"] = (
                out["allocation.hop_lookups"] / consumers if consumers else 0.0
            )
        return out


def _allocate_counts(arguments: dict, result) -> dict[str, int]:
    decisions, outages = result
    return {
        "allocation.consumers": len(arguments["demands"]),
        "allocation.decisions": len(decisions),
        "allocation.outages": len(outages),
        "allocation.shortfalls": sum(1 for d in decisions if d.shortfall),
    }


def _transfer_counts(arguments: dict, result) -> dict[str, int]:
    return {
        "transfer.jobs": len(result.jobs),
        "transfer.mini_slots": sum(job.mini_slots for job in result.jobs),
        "transfer.overruns": sum(1 for job in result.jobs if job.overrun),
    }


def _write_counts(arguments: dict, result) -> dict[str, int]:
    paths = result.values() if isinstance(result, dict) else result
    return {"engine.output_bytes": sum(Path(p).stat().st_size for p in paths)}


# Counts read from a span's arguments and result.
RESULT_HOOKS = {
    "allocation.allocate": _allocate_counts,
    "transfer.execute": _transfer_counts,
    "engine.write": _write_counts,
}
HOOK_METRICS = {
    "allocation.allocate": ["allocation.consumers", "allocation.decisions", "allocation.outages", "allocation.shortfalls"],
    "transfer.execute": ["transfer.jobs", "transfer.mini_slots", "transfer.overruns"],
    "engine.write": ["engine.output_bytes"],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the ppgsim package")
    parser.add_argument("--report", required=True, help="JSON report path")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("program_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    program_argv = args.program_argv[1:] if args.program_argv[:1] == ["--"] else args.program_argv

    sys.path.insert(0, str(Path(args.src).resolve()))
    modules = {
        name: importlib.import_module(f"ppgsim.{name}")
        for name in ("allocation", "cli", "domain", "engine", "ingest", "mobility", "topology", "transfer")
    }
    # the tracer goes on first so that the coarse wrappers, and the probe
    # samples they take between steps, sit outside every traced span
    tracer = LayerTracer(modules) if args.trace else None
    probe = SpeedProbe()
    phases = Phases(modules, probe)

    probe.sample(SAMPLES_AROUND)
    sampling_before = probe.spent_s
    start = perf_counter()
    phases.mark = start
    code = modules["cli"].main(program_argv)
    wall_s = perf_counter() - start - (probe.spent_s - sampling_before)
    probe.sample(SAMPLES_AROUND)
    scale = probe.scale()

    report = {
        "exit_code": code,
        "raw_wall_s": wall_s,
        "calibration_s": CALIBRATION_REFERENCE_S / scale,
        "wall_s": wall_s * scale,
        "setup_s": phases.calibrated(phases.setup_spans),
        "step_s": phases.step_s * scale,
        "slots": phases.slots,
        "output_s": phases.calibrated(phases.write_spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = {
            name: value * scale if name.endswith("_s") else value
            for name, value in tracer.metrics().items()
        }
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
