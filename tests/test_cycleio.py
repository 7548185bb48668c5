"""Trace parsing and 1 Hz resampling tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestar.core import mph_to_mps, mps_to_mph
from movestar.cycleio import (
    MAX_GAP_S,
    parse_trace,
    resample_speeds_to_1hz,
    resample_to_1hz,
)
from movestar.errors import (
    EmptyTrace,
    GapTooLarge,
    NegativeSpeed,
    NonMonotonicTime,
    ParseError,
)


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseTrace:
    def test_two_column(self, tmp_path):
        raw = parse_trace(write(tmp_path, "0,0.0\n1,2.0\n2,3.0\n"), "m/s")
        assert len(raw) == 3
        assert raw.speeds == (0.0, 2.0, 3.0)
        assert raw.unit == "m/s"

    def test_header_and_comments(self, tmp_path):
        raw = parse_trace(write(tmp_path, "# example\nt,v\n0,1.0\n1,1.5\n"), "m/s")
        assert raw.times == (0.0, 1.0)

    def test_single_column_implicit_time(self, tmp_path):
        raw = parse_trace(write(tmp_path, "5.0\n6.0\n7.0\n"), "m/s")
        assert raw.times == (0.0, 1.0, 2.0)

    def test_negative_speed_line_addressed(self, tmp_path):
        with pytest.raises(NegativeSpeed) as exc:
            parse_trace(write(tmp_path, "0,0.0\n1,-2.0\n"), "m/s")
        assert exc.value.line == 2

    def test_non_monotonic_time(self, tmp_path):
        with pytest.raises(NonMonotonicTime):
            parse_trace(write(tmp_path, "0,1.0\n2,1.0\n1,1.0\n"), "m/s")

    def test_bad_cell(self, tmp_path):
        with pytest.raises(ParseError):
            parse_trace(write(tmp_path, "0,abc\n"), "m/s")

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"0,1.0\n1,2.0\xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text at line 2"):
            parse_trace(path, "m/s")

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyTrace):
            parse_trace(write(tmp_path, "# nothing\n"), "m/s")

    def test_bad_unit_flag(self, tmp_path):
        with pytest.raises(ParseError):
            parse_trace(write(tmp_path, "0,1.0\n"), "furlongs")

    def test_mph_conversion_factor(self, tmp_path):
        raw = parse_trace(write(tmp_path, "0,10\n1,20\n"), "mph")
        assert raw.speeds == (10.0, 20.0)  # stored as declared
        assert raw.speeds_mps() == [10 * 0.44704, 20 * 0.44704]

    def test_kmh_conversion(self, tmp_path):
        raw = parse_trace(write(tmp_path, "0,36\n"), "km/h")
        assert raw.speeds_mps() == [10.0]

    def test_unit_round_trip_identity(self):
        for v in (0.0, 0.1, 3.7, 31.2929):
            assert mph_to_mps(mps_to_mph(v)) == pytest.approx(v, rel=1e-12, abs=1e-15)


class TestResample:
    def test_identity_on_1hz(self):
        speeds = [1.0, 2.5, 3.0, 3.0]
        out = resample_speeds_to_1hz([0, 1, 2, 3], speeds)
        assert out == speeds

    def test_idempotent_on_own_output(self):
        times = np.arange(0, 5, 0.25)
        speeds = np.sin(times) + 2.0
        once = resample_speeds_to_1hz(times, speeds)
        twice = resample_speeds_to_1hz(range(len(once)), once)
        assert twice == once

    def test_10hz_constant(self):
        times = [i / 10 for i in range(30)]
        out = resample_speeds_to_1hz(times, [5.0] * 30)
        assert out == [5.0, 5.0, 5.0]

    def test_10hz_ramp_window_mean(self):
        # v(t) = t sampled at 0.0, 0.1, ..., 0.9 averages to 0.45
        times = [i / 10 for i in range(10)]
        out = resample_speeds_to_1hz(times, list(times))
        assert out == [pytest.approx(0.45, abs=1e-12)]

    def test_gap_interpolation(self):
        # seconds 1..2 empty; window means 1.0 and 4.0 bracket them
        times = [0.0, 0.5, 3.0, 3.5]
        speeds = [1.0, 1.0, 4.0, 4.0]
        out = resample_speeds_to_1hz(times, speeds)
        assert out == [1.0, 2.0, 3.0, 4.0]

    def test_gap_longer_than_limit_rejected(self):
        # samples at 0 and 7.5 leave six empty windows, one past the limit
        times = [0.0, MAX_GAP_S + 2.5]
        with pytest.raises(GapTooLarge):
            resample_speeds_to_1hz(times, [1.0, 1.0])

    def test_long_gap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GapTooLarge) as exc:
                resample_speeds_to_1hz([0.0, 0.5, 2.4, 2e6 + 0.5], [1.0] * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.start_window, exc.value.length) == (3, 2e6 - 3)
        assert peak < 1_000_000

    def test_gap_at_limit_allowed(self):
        # samples at 0 and 6.5 leave exactly five empty windows
        times = [0.0, MAX_GAP_S + 1.5]
        out = resample_speeds_to_1hz(times, [1.0, 7.0])
        assert len(out) == MAX_GAP_S + 2

    def test_fractional_start_time(self):
        out = resample_speeds_to_1hz([2.5, 3.5, 4.5], [1.0, 2.0, 3.0])
        assert out == [1.0, 2.0, 3.0]

    def test_empty(self):
        with pytest.raises(EmptyTrace):
            resample_speeds_to_1hz([], [])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), seconds=st.integers(1, 30))
    def test_mean_speed_preserved_uniform_rate(self, seed, seconds):
        # uniform 10 Hz sampling, integer duration, no empty windows
        rng = np.random.default_rng(seed)
        times = np.arange(0, seconds, 0.1)
        speeds = rng.uniform(0.0, 30.0, len(times))
        out = resample_speeds_to_1hz(times, speeds)
        assert len(out) == seconds
        assert np.mean(out) == pytest.approx(float(np.mean(speeds)), rel=1e-9)

    def test_resample_to_1hz_builds_cycle(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,2.0\n0.5,4.0\n1.0,6.0\n1.5,8.0\n")
        cycle = resample_to_1hz(parse_trace(path, "m/s"))
        assert cycle.speeds == [3.0, 7.0]
        assert cycle.samples[1].a == 4.0
