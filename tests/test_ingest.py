"""Trace parsing, resampling, scaling, and the synthetic generators."""

import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgsim import ingest
from ppgsim.errors import TraceFormatError
from ppgsim.ingest import (
    HarvestTraceSet,
    LoadProfileSet,
    assign_clusters,
    harvest_select,
    load_harvest,
    load_profiles,
    parse_harvest,
    parse_profiles,
    samples_per_slot,
    scale_harvest,
    synthetic_harvest,
    synthetic_harvest_raw,
    synthetic_profiles,
    window_sums,
    write_harvest,
    write_profiles,
)


def write_profile_file(tmp_path, clusters, name="profiles.csv"):
    path = tmp_path / name
    write_profiles(path, clusters)
    return path


class TestProfileParsing:
    def test_roundtrip_exact(self, tmp_path):
        clusters = synthetic_profiles(3, slots_per_day=1440)
        path = write_profile_file(tmp_path, clusters)
        assert parse_profiles(path, 1440) == clusters

    def test_rejects_out_of_range_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["slot,cluster0,cluster1,cluster2,cluster3", "0,0.5,0.5,0.5,0.5", "1,1.2,0.5,0.5,0.5"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_profiles(path, 2)

    def test_rejects_wrong_length(self, tmp_path):
        clusters = tuple(tuple([0.5] * 10) for _ in range(4))
        path = write_profile_file(tmp_path, clusters)
        with pytest.raises(TraceFormatError, match="expected 1440 slots"):
            parse_profiles(path, 1440)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0.5,0.5,0.5,0.5\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_profiles(path, 1)

    def test_rejects_jumbled_slot_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,cluster0,cluster1,cluster2,cluster3\n1,0.5,0.5,0.5,0.5\n")
        with pytest.raises(TraceFormatError, match="slot index 1"):
            parse_profiles(path, 1)

    def test_rejects_malformed_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,cluster0,cluster1,cluster2,cluster3\n0,x,0.5,0.5,0.5\n")
        with pytest.raises(TraceFormatError, match="malformed"):
            parse_profiles(path, 1)


class TestAssignment:
    def test_seeded_determinism(self):
        a1 = assign_clusters(range(24), random.Random(7))
        a2 = assign_clusters(range(24), random.Random(7))
        assert a1 == a2

    def test_all_clusters_in_range(self):
        assignment = assign_clusters(range(24), random.Random(1))
        assert set(assignment) == set(range(24))
        assert all(0 <= c < 4 for c in assignment.values())

    def test_load_profiles_assignment(self, tmp_path):
        clusters = synthetic_profiles(3, slots_per_day=60)
        path = write_profile_file(tmp_path, clusters)
        profiles = load_profiles(path, range(6), random.Random(9), slots_per_day=60)
        assert isinstance(profiles, LoadProfileSet)
        assert set(profiles.assignment) == set(range(6))
        assert profiles.load_at(0, 0) == clusters[profiles.assignment[0]][0]
        # wraps modulo a day
        assert profiles.load_at(0, 60) == profiles.load_at(0, 0)


class TestResampling:
    def test_identity_at_slot_resolution(self):
        timestamps = [i * 60.0 for i in range(10)]
        values = [1e3] * 10
        assert window_sums(values, samples_per_slot(timestamps, 60.0)) == [1e3] * 10

    def test_window_sum(self):
        timestamps = [i * 30.0 for i in range(10)]
        values = [0.5e3] * 10
        assert window_sums(values, samples_per_slot(timestamps, 60.0)) == [1e3] * 5

    def test_gap_reported_with_window(self):
        timestamps = [0.0, 30.0, 90.0, 120.0]
        with pytest.raises(TraceFormatError, match="gap in window"):
            samples_per_slot(timestamps, 60.0)

    def test_gap_window_number(self):
        # 1 s samples, 60 per window; sample 130 (window 2) is missing
        timestamps = [float(i) for i in range(300) if i != 130]
        with pytest.raises(TraceFormatError, match="gap in window 2: expected timestamp 130.0, got 131.0"):
            samples_per_slot(timestamps, 60.0)

    def test_epoch_timestamps(self):
        # at 1.6e9 the first step reads 0.09999990463256836 s, not 0.1 s
        timestamps = [1.6e9 + 0.1 * i for i in range(1200)]
        assert timestamps[1] - timestamps[0] != 0.1
        out = window_sums([1.0] * 1200, samples_per_slot(timestamps, 60.0))
        assert out == [600.0, 600.0]

    def test_epoch_timestamps_with_gap_rejected(self):
        timestamps = [1.6e9 + 0.1 * i for i in range(1200) if i != 900]
        with pytest.raises(TraceFormatError, match="gap in window 1"):
            samples_per_slot(timestamps, 60.0)

    def test_interval_larger_than_slot_rejected(self):
        with pytest.raises(TraceFormatError, match="not a multiple"):
            samples_per_slot([0.0, 90.0], 60.0)

    def test_conserves_energy(self):
        rng = random.Random(8)
        values = [rng.uniform(0, 10) for _ in range(240)]
        timestamps = [i * 15.0 for i in range(240)]
        out = window_sums(values, samples_per_slot(timestamps, 60.0))
        assert sum(out) == pytest.approx(sum(values), rel=1e-12)

    def test_load_harvest_sums_both_columns_per_window(self, tmp_path):
        rng = random.Random(9)
        solar = [rng.uniform(0, 5) for _ in range(600)]
        wind = [rng.uniform(0, 1) for _ in range(600)]
        rows = [f"{i * 6},{s!r},{w!r}\n" for i, (s, w) in enumerate(zip(solar, wind))]
        path = tmp_path / "harvest.csv"
        path.write_text("timestamp_s,solar,wind\n" + "".join(rows))
        per_window = samples_per_slot([i * 6.0 for i in range(600)], 60.0)
        expected = scale_harvest(
            window_sums(solar, per_window),
            window_sums(wind, per_window),
            490e3,
            0.2,
        )
        assert load_harvest(path, 490e3, 60.0, 0.2) == expected
        del rows[25]
        path.write_text("timestamp_s,solar,wind\n" + "".join(rows))
        with pytest.raises(TraceFormatError, match="gap in window 2: expected timestamp 150"):
            load_harvest(path, 490e3, 60.0, 0.2)


class TestScaling:
    def test_peak_maps_to_fraction_of_capacity(self):
        traces = scale_harvest([10.0, 5.0], [2.0, 4.0], 490e3, 0.2)
        assert max(traces.solar_J) == pytest.approx(0.2 * 490e3)
        assert traces.wind_J[0] == pytest.approx(2.0 * 9800.0)

    def test_zero_solar_rejected(self):
        with pytest.raises(TraceFormatError, match="no positive samples"):
            scale_harvest([0.0, 0.0], [1.0, 1.0], 490e3, 0.2)


class TestHarvestSelect:
    def test_solar_peak(self):
        assert harvest_select(10e3, 3e3, 1e3) == 10e3

    def test_wind_during_offpeak(self):
        assert harvest_select(0.0, 3e3, 1e3) == 3e3

    def test_nothing_harvested(self):
        assert harvest_select(0.0, 0.0, 1e3) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harvest_select(-1.0, 0.0, 1e3)


class TestSynthetic:
    def test_profiles_shape_and_range(self):
        clusters = synthetic_profiles(7)
        assert len(clusters) == 4
        for series in clusters:
            assert len(series) == 1440
            assert all(0.0 <= v <= 1.0 for v in series)

    def test_profiles_deterministic(self):
        assert synthetic_profiles(7) == synthetic_profiles(7)

    def test_harvest_nonnegative_and_deterministic(self):
        s1, w1 = synthetic_harvest_raw(7, 1440)
        s2, w2 = synthetic_harvest_raw(7, 1440)
        assert (s1, w1) == (s2, w2)
        assert all(v >= 0 for v in s1)
        assert all(v > 0 for v in w1)

    def test_solar_dark_at_night(self):
        solar, _ = synthetic_harvest_raw(7, 1440)
        assert all(solar[t] == 0.0 for t in range(0, 6 * 60))
        assert max(solar) == pytest.approx(1.0, abs=1e-3)

    def test_short_horizon_still_scales(self):
        traces = synthetic_harvest(7, 100, 490e3, 0.2)
        assert traces.n_slots >= 100

    def test_harvest_file_roundtrip(self, tmp_path):
        solar, wind = synthetic_harvest_raw(5, 2880)
        path = tmp_path / "harvest.csv"
        write_harvest(path, solar, wind, 60.0)
        timestamps, s2, w2 = parse_harvest(path)
        assert s2 == list(solar)
        assert w2 == list(wind)
        traces = load_harvest(path, 490e3, 60.0, 0.2)
        direct = synthetic_harvest(5, 2880, 490e3, 0.2)
        assert traces.solar_J == direct.solar_J
        assert traces.wind_J == direct.wind_J

    def test_harvest_file_keeps_large_timestamps(self, tmp_path):
        path = tmp_path / "harvest.csv"
        write_harvest(path, [1.0] * 30, [0.5] * 30, 1234567.0)
        timestamps, _, _ = parse_harvest(path)
        assert timestamps == [t * 1234567.0 for t in range(30)]
        assert load_harvest(path, 490e3, 1234567.0, 0.2).n_slots == 30

    def test_harvest_file_rejects_negative(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("timestamp_s,solar,wind\n0,-1,0\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_harvest(path)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan", "Infinity"])
    def test_harvest_file_rejects_non_finite(self, tmp_path, column, value):
        row = ["120", "1.0", "0.5"]
        row[column] = value
        path = tmp_path / "h.csv"
        path.write_text("timestamp_s,solar,wind\n0,1.0,0.5\n60,1.0,0.5\n" + ",".join(row) + "\n")
        with pytest.raises(TraceFormatError, match=r"h\.csv: line 4: non-finite value"):
            parse_harvest(path)
        with pytest.raises(TraceFormatError, match="line 4: non-finite value"):
            load_harvest(path, 490e3, 60.0, 0.2)


class TestSamplesPerSlotNonFinite:
    def test_nan_inside_is_a_gap(self):
        timestamps = [0.0, 1.0, 2.0, math.nan, *map(float, range(4, 12))]
        with pytest.raises(TraceFormatError, match="gap in window 0: expected timestamp 3.0, got nan"):
            samples_per_slot(timestamps, 6.0)

    def test_inf_inside_is_a_gap(self):
        timestamps = [0.0, 1.0, 2.0, math.inf, *map(float, range(4, 12))]
        with pytest.raises(TraceFormatError, match="got inf"):
            samples_per_slot(timestamps, 6.0)

    @pytest.mark.parametrize("index", [0, 1, -1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_anchor_rejected(self, index, value):
        timestamps = [float(i) for i in range(12)]
        timestamps[index] = value
        with pytest.raises(TraceFormatError, match="timestamps must be finite"):
            samples_per_slot(timestamps, 6.0)

    def test_finite_timestamps_still_accepted(self):
        assert samples_per_slot([float(i) for i in range(12)], 6.0) == 6


def first_gap_error(timestamps, tau_s):
    """The pair-by-pair gap test alone, as samples_per_slot ran it on every file: its message, or None."""
    step = timestamps[1] - timestamps[0]
    tol = max(1e-6, 4.0 * math.ulp(max(abs(timestamps[0]), abs(timestamps[-1]))))
    for i, (prev, t) in enumerate(zip(timestamps, timestamps[1:]), start=1):
        if not abs(t - prev - step) <= tol:
            return f"gap in window {i // max(round(tau_s / step), 1)}: expected timestamp {prev + step}, got {t}"
    return None


class TestGapCheck:
    """samples_per_slot checks every gap in one pass and walks the pairs only to name a bad one."""

    @pytest.mark.parametrize(
        "index, value, message",
        [
            # the NaN gaps on either side of a NaN are not the largest or the
            # smallest gap, so only the NaN check catches them
            (300, math.nan, "gap in window 5: expected timestamp 300.0, got nan"),
            (400, math.inf, "gap in window 6: expected timestamp 400.0, got inf"),
            (500, -math.inf, "gap in window 8: expected timestamp 500.0, got -inf"),
            (450, 450.5, "gap in window 7: expected timestamp 450.0, got 450.5"),
        ],
    )
    def test_bad_gap_is_named_exactly(self, index, value, message):
        timestamps = [float(i) for i in range(600)]
        timestamps[index] = value
        assert first_gap_error(timestamps, 60.0) == message
        with pytest.raises(TraceFormatError) as caught:
            samples_per_slot(timestamps, 60.0)
        assert str(caught.value) == message

    def test_first_of_several_bad_gaps_is_named(self):
        timestamps = [float(i) for i in range(600)]
        timestamps[500] = math.nan
        timestamps[130] = 130.25
        with pytest.raises(TraceFormatError) as caught:
            samples_per_slot(timestamps, 60.0)
        assert str(caught.value) == "gap in window 2: expected timestamp 130.0, got 130.25"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        first=st.sampled_from((0.0, 1.6e9)),
        step=st.sampled_from((1.0, 0.1)),
        n=st.integers(8, 40),
        changes=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from((0.0, 5e-7, 1e-6, 2e-6, 0.5, math.nan, math.inf, -math.inf)),
                st.sampled_from((1.0, -1.0)),
            ),
            max_size=3,
        ),
    )
    def test_matches_the_pairwise_test(self, first, step, n, changes):
        timestamps = [first + step * i for i in range(n)]
        # the first two and the last timestamp stay: they set the step and the tolerance
        for where, offset, sign in changes:
            timestamps[2 + int(where * (n - 3))] += sign * offset
        expected = first_gap_error(timestamps, 6.0)
        if expected is None:
            # no gap: whatever follows the check (a per-window count or the
            # interval's own error) is the same as with no walk at all
            try:
                samples_per_slot(timestamps, 6.0)
            except TraceFormatError as exc:
                assert "gap in window" not in str(exc)
        else:
            with pytest.raises(TraceFormatError) as caught:
                samples_per_slot(timestamps, 6.0)
            assert str(caught.value) == expected


def oracle_parse_harvest(path):
    """The line-at-a-time parser that parse_harvest replaced, kept as a reference."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != ingest.HARVEST_HEADER:
        raise TraceFormatError(f"{path}: line 1: expected header {ingest.HARVEST_HEADER!r}")
    timestamps, solar, wind = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(f"{path}: line {lineno}: expected 3 fields")
        try:
            ts, s, w = (float(p) for p in parts)
        except ValueError:
            raise TraceFormatError(f"{path}: line {lineno}: malformed number") from None
        if s < 0 or w < 0:
            raise TraceFormatError(f"{path}: line {lineno}: negative harvest value")
        timestamps.append(ts)
        solar.append(s)
        wind.append(w)
    return timestamps, solar, wind


def outcome(parse, path):
    try:
        return parse(path)
    except TraceFormatError as exc:
        return str(exc)


# bounded so that no format rounds a value past the largest float
finite = st.floats(min_value=-1e300, max_value=1e300)
non_negative = st.floats(min_value=0.0, max_value=1e300)
spaces = st.sampled_from(["", " ", "  ", "\t"])
number_format = st.sampled_from([repr, "{:e}".format, "{:.3E}".format, "{:.17g}".format])


# each fault rewrites one row's fields; the oracle says what it should raise
faults = st.sampled_from([
    lambda ts, s, w: f"{ts},{s}",
    lambda ts, s, w: f"{ts},{s},{w},{w}",
    lambda ts, s, w: f"{ts},{s},",
    lambda ts, s, w: f"{ts},{s},{w}x",
    lambda ts, s, w: f"{ts},1.2.3,{w}",
    lambda ts, s, w: f"{ts},-1e-300,{w}",
    lambda ts, s, w: f"{ts},{s},-1{w.strip()}",
    lambda ts, s, w: f"{ts};{s},{w}",
])


@st.composite
def harvest_text(draw):
    """A harvest file with any mix of the line shapes a writer may produce."""
    n = draw(st.integers(0, 30))
    lines = []
    for _ in range(n):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "whitespace"]))
        if kind == "row":
            pad, fmt = draw(spaces), draw(number_format)
            values = [draw(finite), draw(non_negative), draw(non_negative)]
            lines.append(",".join(pad + fmt(v) + pad for v in values))
        elif kind == "blank":
            lines.append("")
        else:
            lines.append(draw(st.sampled_from([" ", "\t", " \t  "])))
    rows = [i for i, line in enumerate(lines) if line.strip()]
    # two faults in one chunk may cancel out in its field count
    for i in draw(st.lists(st.sampled_from(rows), max_size=2, unique=True)) if rows else []:
        lines[i] = draw(faults)(*lines[i].split(","))
    text = draw(st.sampled_from(["timestamp_s,solar,wind", " timestamp_s,solar,wind "]))
    for line in lines:
        text += draw(st.sampled_from(["\n", "\r\n"])) + line
    if draw(st.booleans()):
        text += draw(st.sampled_from(["\n", "\r\n"]))
    return text


class TestStreamingParser:
    """parse_harvest against the line-at-a-time oracle, across chunk boundaries."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("stream") / "h.csv"

    @settings(max_examples=200, deadline=None)
    @given(text=harvest_text(), chunk_chars=st.integers(1, 200))
    def test_matches_oracle(self, path, text, chunk_chars):
        path.write_bytes(text.encode())
        expected = outcome(oracle_parse_harvest, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
            assert outcome(parse_harvest, path) == expected

    @pytest.mark.parametrize(
        "fault",
        [",1.x,", ",-1.,", ";1.0,", ",   ,", ",1,0,"],
        ids=["malformed", "negative", "two-fields", "blank-field", "four-fields"],
    )
    def test_fault_at_each_chunk_edge(self, tmp_path, fault):
        # same-width lines, so a fault of the same width keeps the chunk edges
        lines = [f"{i:03d},1.0,2.0\n" for i in range(12)]
        clean = tmp_path / "clean.csv"
        clean.write_text("timestamp_s,solar,wind\n" + "".join(lines))
        chunk_chars = 3 * len(lines[0])
        edges = set()
        with open(clean) as f:
            f.readline()
            start = 0
            while chunk := f.readlines(chunk_chars):
                edges |= {start, start + len(chunk) - 1}
                start += len(chunk)
        assert len(edges) >= 4
        for i in sorted(edges):
            bad = list(lines)
            bad[i] = bad[i][:3] + fault + bad[i][8:]
            path = tmp_path / f"bad{i}.csv"
            path.write_text("timestamp_s,solar,wind\n" + "".join(bad))
            expected = outcome(oracle_parse_harvest, path)
            assert isinstance(expected, str) and f"line {i + 2}:" in expected
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
                assert outcome(parse_harvest, path) == expected

    @pytest.mark.parametrize(
        ("rows", "bad_line"),
        [(["0,1", "1,2,3,4"], 2), (["0,1,2,3", "1,2"], 2), (["", "0,1,2,3,4"], 3)],
    )
    def test_field_counts_that_cancel_out(self, tmp_path, rows, bad_line):
        path = tmp_path / "h.csv"
        path.write_text("timestamp_s,solar,wind\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError, match=f"line {bad_line}: expected 3 fields"):
            parse_harvest(path)

    @pytest.mark.parametrize("text", ["", "\n", "timestamp,solar,wind\n0,1,1\n"])
    def test_bad_header(self, tmp_path, text):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match="line 1: expected header"):
            parse_harvest(path)
        assert outcome(parse_harvest, path) == outcome(oracle_parse_harvest, path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("timestamp_s,solar,wind\n")
        assert parse_harvest(path) == ([], [], [])

    def test_memory_stays_near_result_size(self, tmp_path):
        rng = random.Random(4)
        n = 60_000
        path = tmp_path / "harvest.csv"
        write_harvest(path, [rng.random() for _ in range(n)], [rng.random() for _ in range(n)], 1.0)
        tracemalloc.start()
        try:
            result = parse_harvest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result[0]) == n
        size = sum(sys.getsizeof(col) + sum(map(sys.getsizeof, col)) for col in result)
        assert peak <= 1.5 * size, f"peak {peak} B is {peak / size:.2f}x the {size} B result"


def test_trace_set_validates_lengths():
    with pytest.raises(ValueError):
        HarvestTraceSet((1.0,), (1.0, 2.0))
