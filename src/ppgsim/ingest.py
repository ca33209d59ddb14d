"""Traffic-profile and harvest-trace ingestion.

Two plain-text inputs drive a run:

* profiles file: ``slot,cluster0,cluster1,cluster2,cluster3`` - four
  normalized daily load shapes, one value per slot in [0, 1].
* harvest file: ``timestamp_s,solar,wind`` - raw harvest readings at a
  uniform interval, in arbitrary units; loading resamples them to the slot
  grid and rescales so the solar peak maps to a chosen fraction of the
  battery capacity.

Seeded synthetic generators for both formats let every experiment run
without external datasets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice, pairwise
from operator import sub
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, TraceFormatError
from .numeric import left_sum

PROFILE_HEADER = "slot,cluster0,cluster1,cluster2,cluster3"
HARVEST_HEADER = "timestamp_s,solar,wind"
N_CLUSTERS = 4
# harvest lines read per chunk, as a character count: a few thousand lines,
# which keeps parsing memory near the size of its result
_CHUNK_CHARS = 1 << 16


@dataclass
class LoadProfileSet:
    """Normalized daily load shapes plus the station-to-cluster assignment."""

    clusters: tuple[tuple[float, ...], ...]
    assignment: dict[int, int]

    @property
    def slots_per_day(self) -> int:
        return len(self.clusters[0])

    def load_at(self, bs_id: int, slot: int) -> float:
        return self.clusters[self.assignment[bs_id]][slot % self.slots_per_day]


@dataclass
class HarvestTraceSet:
    """Per-slot solar and wind energy, already scaled to joules."""

    solar_J: tuple[float, ...]
    wind_J: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.solar_J) != len(self.wind_J):
            raise ValueError("solar and wind series must have equal length")

    @property
    def n_slots(self) -> int:
        return len(self.solar_J)

    def sample(self, slot: int) -> tuple[float, float]:
        return self.solar_J[slot], self.wind_J[slot]


def harvest_select(solar_J: float, wind_J: float, offpeak_threshold_J: float) -> float:
    """Pick the slot's harvest source: solar when strong enough, wind otherwise."""
    if solar_J < 0 or wind_J < 0:
        raise ValueError("harvest inputs must be >= 0")
    return solar_J if solar_J >= offpeak_threshold_J else wind_J


def assign_clusters(bs_ids: Iterable[int], rng: random.Random) -> dict[int, int]:
    """Uniform random cluster per station, stable under the run seed."""
    return {bs_id: rng.randrange(N_CLUSTERS) for bs_id in sorted(bs_ids)}


def parse_profiles(path: str | Path, slots_per_day: int = 1440) -> tuple[tuple[float, ...], ...]:
    """Read and validate a profiles file; returns the four cluster series."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise TraceFormatError(f"{path}: line 1: expected header {PROFILE_HEADER!r}")
    columns: list[list[float]] = [[] for _ in range(N_CLUSTERS)]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 1 + N_CLUSTERS:
            raise TraceFormatError(f"{path}: line {lineno}: expected {1 + N_CLUSTERS} fields")
        try:
            slot = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise TraceFormatError(f"{path}: line {lineno}: malformed number") from None
        if slot != len(columns[0]):
            raise TraceFormatError(
                f"{path}: line {lineno}: slot index {slot}, expected {len(columns[0])}"
            )
        for k, v in enumerate(values):
            if not (0.0 <= v <= 1.0):
                raise TraceFormatError(
                    f"{path}: line {lineno}: cluster{k} value {v} outside [0, 1]"
                )
            columns[k].append(v)
    if len(columns[0]) != slots_per_day:
        raise TraceFormatError(
            f"{path}: expected {slots_per_day} slots, found {len(columns[0])}"
        )
    return tuple(tuple(col) for col in columns)


def load_profiles(
    path: str | Path,
    bs_ids: Iterable[int],
    rng: random.Random,
    slots_per_day: int = 1440,
) -> LoadProfileSet:
    clusters = parse_profiles(path, slots_per_day)
    return LoadProfileSet(clusters=clusters, assignment=assign_clusters(bs_ids, rng))


def samples_per_slot(timestamps_s: Sequence[float], tau_s: float) -> int:
    """Check the sample timestamps and return how many fill one tau-length slot.

    The interval is the whole span over the sample count, and timestamps
    are compared to within a few ulps of their magnitude, so epoch-scale
    timestamps work. A slot length that is not finite and positive is a
    ConfigError naming tau_s.
    """
    if not (math.isfinite(tau_s) and tau_s > 0):
        raise ConfigError(f"tau_s must be finite and positive, got {tau_s}")
    n = len(timestamps_s)
    if n < 2:
        raise TraceFormatError("need at least two samples to infer the interval")
    first, second, last = timestamps_s[0], timestamps_s[1], timestamps_s[-1]
    # these three set the step, interval and tolerance; a non-finite
    # timestamp elsewhere shows up as a gap
    if not (math.isfinite(first) and math.isfinite(second) and math.isfinite(last)):
        raise TraceFormatError(f"timestamps must be finite, got {first}, {second} .. {last}")
    step = second - first
    interval = (last - first) / (n - 1)
    # every comparison below is written so that a NaN fails it
    if not (step > 0 and interval > 0):
        raise TraceFormatError("timestamps must be strictly increasing")
    # a timestamp read from text is exact to half an ulp of its magnitude,
    # so the difference of two is exact to one ulp
    tol = max(1e-6, 4.0 * math.ulp(max(abs(first), abs(last))))
    # every gap at C speed: rounding is monotone and odd, so each
    # |gap - step| <= tol exactly when the largest and the smallest gap
    # pass, and a NaN gap, which fails every test, makes the sum NaN. Only
    # a failed check walks the pairs, with the test itself, to name the
    # first bad window.
    gaps = list(map(sub, islice(timestamps_s, 1, None), timestamps_s))
    if not (max(gaps) - step <= tol and step - min(gaps) <= tol and not math.isnan(sum(gaps))):
        for i, (prev, t) in enumerate(pairwise(timestamps_s), start=1):
            if not abs(t - prev - step) <= tol:
                raise TraceFormatError(
                    f"gap in window {i // max(round(tau_s / step), 1)}: "
                    f"expected timestamp {prev + step}, got {t}"
                )
    per_window = round(tau_s / interval)
    if not (per_window >= 1 and abs(per_window * interval - tau_s) <= tol):
        raise TraceFormatError(
            f"slot duration {tau_s}s is not a multiple of the sample interval {interval}s"
        )
    return per_window


def window_sums(values: Sequence[float], per_window: int) -> list[float]:
    """Sum consecutive runs of per_window values; a trailing partial run is dropped."""
    return [
        left_sum(values[w * per_window : (w + 1) * per_window])
        for w in range(len(values) // per_window)
    ]


def scale_harvest(
    solar_raw: Sequence[float],
    wind_raw: Sequence[float],
    beta_max_J: float,
    solar_peak_fraction: float,
) -> HarvestTraceSet:
    """Map raw units to joules so the solar peak hits the target battery fraction.

    Wind shares the solar scale factor, keeping the two sources comparable.
    """
    peak = max(solar_raw, default=0.0)
    if peak <= 0:
        raise TraceFormatError("solar trace has no positive samples; cannot scale")
    factor = solar_peak_fraction * beta_max_J / peak
    return HarvestTraceSet(
        solar_J=tuple(v * factor for v in solar_raw),
        wind_J=tuple(v * factor for v in wind_raw),
    )


def parse_harvest(path: str | Path) -> tuple[list[float], list[float], list[float]]:
    """Read a raw harvest file; returns (timestamps, solar, wind).

    The file is streamed in chunks of a few thousand lines. Each chunk is
    converted column by column; only a chunk that fails a bulk check is
    walked line by line, which skips blank lines and names the first bad
    line. Non-finite values are rejected like malformed ones.
    """
    timestamps: list[float] = []
    solar: list[float] = []
    wind: list[float] = []
    with open(path) as f:
        if f.readline().strip() != HARVEST_HEADER:
            raise TraceFormatError(f"{path}: line 1: expected header {HARVEST_HEADER!r}")
        lineno = 2
        while lines := f.readlines(_CHUNK_CHARS):
            if not lines[-1].endswith("\n"):
                lines[-1] += "\n"
            ts, s, w = _bulk_columns(lines) or _line_columns(path, lines, lineno)
            timestamps += ts
            solar += s
            wind += w
            lineno += len(lines)
    return timestamps, solar, wind


def _bulk_columns(lines: list[str]) -> tuple[list[float], list[float], list[float]] | None:
    """Columns of newline-terminated lines that all pass, or None if any may not."""
    n = len(lines)
    fields = ",".join(lines).split(",")
    ends = fields[2::3]
    # A field holds at most one newline, at its end. With 3n fields, the n
    # newlines all falling in the n third fields means every line has three.
    if len(fields) != 3 * n or "".join(ends).count("\n") != n:
        return None
    try:
        ts = list(map(float, fields[0::3]))
        s = list(map(float, fields[1::3]))
        w = list(map(float, ends))
    except ValueError:
        return None
    # a sum is finite only if every term is; an overflowing one merely
    # sends the chunk to the line walk
    if not (math.isfinite(sum(ts) + sum(s) + sum(w)) and min(s) >= 0 and min(w) >= 0):
        return None
    return ts, s, w


def _line_columns(
    path: str | Path, lines: list[str], first_lineno: int
) -> tuple[list[float], list[float], list[float]]:
    """Columns of lines read one at a time; raises naming the first bad line."""
    timestamps: list[float] = []
    solar: list[float] = []
    wind: list[float] = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(f"{path}: line {lineno}: expected 3 fields")
        try:
            ts, s, w = (float(p) for p in parts)
        except ValueError:
            raise TraceFormatError(f"{path}: line {lineno}: malformed number") from None
        if not (math.isfinite(ts) and math.isfinite(s) and math.isfinite(w)):
            raise TraceFormatError(f"{path}: line {lineno}: non-finite value")
        if s < 0 or w < 0:
            raise TraceFormatError(f"{path}: line {lineno}: negative harvest value")
        timestamps.append(ts)
        solar.append(s)
        wind.append(w)
    return timestamps, solar, wind


def load_harvest(
    path: str | Path,
    beta_max_J: float,
    tau_s: float,
    solar_peak_fraction: float,
) -> HarvestTraceSet:
    timestamps, solar, wind = parse_harvest(path)
    per_window = samples_per_slot(timestamps, tau_s)
    return scale_harvest(
        window_sums(solar, per_window),
        window_sums(wind, per_window),
        beta_max_J,
        solar_peak_fraction,
    )


# ---------------------------------------------------------------------------
# Synthetic generators: a plausible day without any external dataset.
# ---------------------------------------------------------------------------


def _circular_bump(hour: float, center: float, width: float) -> float:
    dh = abs(hour - center)
    dh = min(dh, 24.0 - dh)
    return math.exp(-(dh * dh) / (2.0 * width * width))


def _sigmoid(x: float) -> float:
    if x < -60:
        return 0.0
    if x > 60:
        return 1.0
    return 1.0 / (1.0 + math.exp(-x))


def _smooth_noise(rng: random.Random, n: int, sigma: float, window: int = 45) -> list[float]:
    raw = [rng.gauss(0.0, sigma) for _ in range(n)]
    half = window // 2
    prefix = [0.0]
    for v in raw:
        prefix.append(prefix[-1] + v)
    out = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo) * math.sqrt(window))
    return out


def synthetic_profiles(seed: int, slots_per_day: int = 1440) -> tuple[tuple[float, ...], ...]:
    """Four distinct daily load shapes: residential, office, commercial, venue.

    The venue cluster keeps a substantial night load; the other three are
    day-centric. Values are clipped to [0, 1].
    """
    rng = random.Random(seed)
    shapes = []
    for k in range(N_CLUSTERS):
        noise = _smooth_noise(rng, slots_per_day, 0.008)
        series = []
        for t in range(slots_per_day):
            h = (t / slots_per_day) * 24.0
            if k == 0:  # residential: morning bump, mild evening peak
                v = 0.06 + 0.20 * _circular_bump(h, 8.0, 1.3) + 0.18 * _circular_bump(h, 20.5, 1.8)
            elif k == 1:  # business district: elevated base plus working-hours plateau
                v = 0.33 + 0.36 * _sigmoid((h - 9.5) / 0.7) * _sigmoid((16.5 - h) / 0.7)
            elif k == 2:  # commercial: bimodal daytime
                v = 0.10 + 0.28 * _circular_bump(h, 11.0, 1.8) + 0.12 * _circular_bump(h, 18.5, 1.5)
            else:  # venue: always-on with a late-evening swell
                v = 0.40 + 0.03 * _circular_bump(h, 21.5, 2.0) + 0.08 * _circular_bump(h, 12.0, 3.0)
            v += noise[t]
            series.append(min(max(v, 0.0), 1.0))
        shapes.append(tuple(series))
    return tuple(shapes)


def synthetic_harvest_raw(
    seed: int,
    n_slots: int,
    slots_per_day: int = 1440,
) -> tuple[list[float], list[float]]:
    """Raw (unscaled) per-slot solar and wind series.

    Solar is a clear-sky bell between 06:00 and 18:00 peaking at 1.0; wind
    is an irregular around-the-clock series built from slow oscillations
    plus smoothed noise.
    """
    rng = random.Random(seed)
    noise = _smooth_noise(rng, n_slots, 0.006)
    # phases pin the deepest nightly lull to the last hour of the day
    phase1 = -math.pi / 2.0 - 2.0 * math.pi * 1420.0 / 480.0
    phase2 = -math.pi / 2.0 - 2.0 * math.pi * 1430.0 / 977.0
    solar = []
    wind = []
    for t in range(n_slots):
        h = ((t % slots_per_day) / slots_per_day) * 24.0
        if 6.0 <= h <= 18.0:
            solar.append(math.sin(math.pi * (h - 6.0) / 12.0) ** 1.5)
        else:
            solar.append(0.0)
        w = (
            0.1225
            + 0.0080 * math.sin(2.0 * math.pi * t / 480.0 + phase1)
            + 0.0045 * math.sin(2.0 * math.pi * t / 977.0 + phase2)
            + noise[t]
        )
        wind.append(max(w, 0.114))
    return solar, wind


def synthetic_harvest(
    seed: int,
    n_slots: int,
    beta_max_J: float,
    solar_peak_fraction: float,
    slots_per_day: int = 1440,
) -> HarvestTraceSet:
    # always span at least one full day so the solar peak exists even for
    # short horizons that fall entirely in the dark
    solar, wind = synthetic_harvest_raw(seed, max(n_slots, slots_per_day), slots_per_day)
    return scale_harvest(solar, wind, beta_max_J, solar_peak_fraction)


def write_profiles(path: str | Path, clusters: Sequence[Sequence[float]]) -> None:
    lines = [PROFILE_HEADER]
    for t in range(len(clusters[0])):
        lines.append(f"{t}," + ",".join(repr(c[t]) for c in clusters))
    Path(path).write_text("\n".join(lines) + "\n")


def write_harvest(path: str | Path, solar_raw: Sequence[float], wind_raw: Sequence[float], tau_s: float) -> None:
    lines = [HARVEST_HEADER]
    for t, (s, w) in enumerate(zip(solar_raw, wind_raw)):
        lines.append(f"{t * tau_s!r},{s!r},{w!r}")
    Path(path).write_text("\n".join(lines) + "\n")
