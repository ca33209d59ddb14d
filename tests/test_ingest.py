"""Trace parsing, resampling, scaling, and the synthetic generators."""

import random

import pytest

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
    resample_to_slots,
    scale_harvest,
    synthetic_harvest,
    synthetic_harvest_raw,
    synthetic_profiles,
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
        assert resample_to_slots(timestamps, values, 60.0) == [1e3] * 10

    def test_window_sum(self):
        timestamps = [i * 30.0 for i in range(10)]
        values = [0.5e3] * 10
        assert resample_to_slots(timestamps, values, 60.0) == [1e3] * 5

    def test_gap_reported_with_window(self):
        timestamps = [0.0, 30.0, 90.0, 120.0]
        with pytest.raises(TraceFormatError, match="gap in window"):
            resample_to_slots(timestamps, [1.0] * 4, 60.0)

    def test_gap_window_number(self):
        # 1 s samples, 60 per window; sample 130 (window 2) is missing
        timestamps = [float(i) for i in range(300) if i != 130]
        with pytest.raises(TraceFormatError, match="gap in window 2: expected timestamp 130.0, got 131.0"):
            resample_to_slots(timestamps, [1.0] * len(timestamps), 60.0)

    def test_epoch_timestamps(self):
        # at 1.6e9 the first step reads 0.09999990463256836 s, not 0.1 s
        timestamps = [1.6e9 + 0.1 * i for i in range(1200)]
        assert timestamps[1] - timestamps[0] != 0.1
        out = resample_to_slots(timestamps, [1.0] * 1200, 60.0)
        assert out == [600.0, 600.0]

    def test_epoch_timestamps_with_gap_rejected(self):
        timestamps = [1.6e9 + 0.1 * i for i in range(1200) if i != 900]
        with pytest.raises(TraceFormatError, match="gap in window 1"):
            resample_to_slots(timestamps, [1.0] * len(timestamps), 60.0)

    def test_interval_larger_than_slot_rejected(self):
        with pytest.raises(TraceFormatError, match="not a multiple"):
            resample_to_slots([0.0, 90.0], [1.0, 1.0], 60.0)

    def test_conserves_energy(self):
        rng = random.Random(8)
        values = [rng.uniform(0, 10) for _ in range(240)]
        timestamps = [i * 15.0 for i in range(240)]
        out = resample_to_slots(timestamps, values, 60.0)
        assert sum(out) == pytest.approx(sum(values), rel=1e-12)

    def test_load_harvest_sums_both_columns_per_window(self, tmp_path):
        rng = random.Random(9)
        solar = [rng.uniform(0, 5) for _ in range(600)]
        wind = [rng.uniform(0, 1) for _ in range(600)]
        rows = [f"{i * 6},{s!r},{w!r}\n" for i, (s, w) in enumerate(zip(solar, wind))]
        path = tmp_path / "harvest.csv"
        path.write_text("timestamp_s,solar,wind\n" + "".join(rows))
        timestamps = [i * 6.0 for i in range(600)]
        expected = scale_harvest(
            resample_to_slots(timestamps, solar, 60.0),
            resample_to_slots(timestamps, wind, 60.0),
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


def test_trace_set_validates_lengths():
    with pytest.raises(ValueError):
        HarvestTraceSet((1.0,), (1.0, 2.0))
