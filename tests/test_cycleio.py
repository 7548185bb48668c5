"""Trace parsing and 1 Hz resampling tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movestar.core import MPS_PER_MPH, mph_to_mps
from movestar.cycleio import (
    MAX_GAP_S,
    SUPPORTED_UNITS,
    parse_trace,
    resample_speeds_to_1hz,
    resample_to_1hz,
)
from movestar.errors import (
    CycleError,
    EmptyTrace,
    GapTooLarge,
    NegativeSpeed,
    NonMonotonicTime,
    ParseError,
    TraceFileError,
)

from reference_trace import reference_parse_trace


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseTrace:
    def test_two_column(self, tmp_path):
        raw = parse_trace(write(tmp_path, "0,0.0\n1,2.0\n2,3.0\n"), "m/s")
        assert len(raw) == 3
        assert raw.v.tolist() == [0.0, 2.0, 3.0]
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

    def test_missing_file_is_a_cycle_error_and_an_os_error(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(TraceFileError) as info:
            parse_trace(missing, "m/s")
        assert isinstance(info.value, CycleError) and isinstance(info.value, OSError)
        assert str(info.value) == f"[Errno 2] No such file or directory: '{missing}'"

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyTrace):
            parse_trace(write(tmp_path, "# nothing\n"), "m/s")

    def test_bad_unit_flag(self, tmp_path):
        with pytest.raises(ParseError):
            parse_trace(write(tmp_path, "0,1.0\n"), "furlongs")

    def test_mph_conversion_factor(self, tmp_path):
        raw = parse_trace(write(tmp_path, "0,10\n1,20\n"), "mph")
        assert raw.v.tolist() == [10.0, 20.0]  # stored as declared
        assert raw.speeds_mps() == [10 * 0.44704, 20 * 0.44704]

    def test_kmh_conversion(self, tmp_path):
        raw = parse_trace(write(tmp_path, "0,36\n"), "km/h")
        assert raw.speeds_mps() == [10.0]

    # The bound applies to each raw speed once converted to m/s; the error
    # names its line, also when a later line holds a bad cell.
    @pytest.mark.parametrize("unit,text,line,speed", [
        ("m/s", "0,0\n0.5,1e308\n1,1\n", 2, "1e+308"),
        ("m/s", "0,100\n1,100.00000000000001\n", 2, "100.00000000000001"),
        ("mph", "# c\n223.69362920544023\n\n223.69362920544026\n", 4, "223.69362920544026"),
        ("km/h", "t,v\n0,360\n1,360.00000000000006\n2,abc\n", 3, "360.00000000000006"),
    ])
    def test_speed_over_the_limit_names_its_line(self, tmp_path, unit, text, line, speed):
        with pytest.raises(ParseError) as info:
            parse_trace(write(tmp_path, text), unit)
        assert info.value.line == line
        assert str(info.value) == \
            f"speed {speed} {unit} is over the 100.0 m/s limit at line {line}"

    # A NaN speed is named by its line too, not by its second after resampling.
    @pytest.mark.parametrize("unit,text,line,cell", [
        ("m/s", "0,1\n0.5,nan\n1,2\n", 2, "nan"),
        ("mph", "# c\n1\n\nNaN\n", 4, "NaN"),
        ("km/h", "t,v\n0,1\n1,-nan\n2,abc\n", 3, "-nan"),
    ])
    def test_nan_speed_names_its_line(self, tmp_path, unit, text, line, cell):
        with pytest.raises(ParseError) as info:
            parse_trace(write(tmp_path, text), unit)
        assert info.value.line == line
        assert str(info.value) == f"bad speed {cell!r} at line {line}"

    @pytest.mark.parametrize("unit,text", [("m/s", "0,100\n"), ("mph", "223.69362920544023\n"),
                                           ("km/h", "0,360\n")])
    def test_speed_at_the_limit_is_accepted(self, tmp_path, unit, text):
        assert resample_to_1hz(parse_trace(write(tmp_path, text), unit)).v.tolist() == [100.0]

    def test_unit_round_trip_identity(self):
        for v in (0.0, 0.1, 3.7, 31.2929):
            assert mph_to_mps(v / MPS_PER_MPH) == pytest.approx(v, rel=1e-12, abs=1e-15)


# Cells that Python's float() reads but the array reader does not.
NARROWED_CELLS = ["1_000", "\u0663", "\uff11", "2.\u0665"]
SPEEDS = ["0", "1", "2.5", "10", "0.25", " 3 ", "\t4", "5 ", "\xa06", "+2", "5e-324", "1e308"]
# The 100 m/s bound and the next float, in each unit.
LIMIT_CELLS = ["100", "100.00000000000001", "223.69362920544023", "223.69362920544026",
               "360", "360.00000000000006"]
CELLS = (SPEEDS * 2 + LIMIT_CELLS + ["-1", "-0.5", "-0", "nan", "inf", "-inf", "1e999", "abc", ""]
         + NARROWED_CELLS)


@st.composite
def trace_texts(draw):
    """Trace text from headers, comments, blank lines, 1-3 column rows with
    mostly rising timestamps, and the three line endings."""
    ncols = draw(st.sampled_from([1, 2, 2, 2]))
    lines, t = [], 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "header"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # unit: v=m/s", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "header":
            lines.append(draw(st.sampled_from(["t,v", "time,speed", "T", " Time , v "])))
        else:
            t += draw(st.sampled_from([0, 1, 1, 2, -1]))
            n = draw(st.sampled_from([ncols] * 20 + [1, 2, 3]))
            cells = [str(t) if draw(st.integers(0, 4)) else draw(st.sampled_from(CELLS))]
            cells += [draw(st.sampled_from(CELLS)) for _ in range(n - 1)]
            lines.append(",".join(cells[-n:]) + draw(st.sampled_from([""] * 24 + [","])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def outcome(parse, path, unit):
    try:
        times, speeds = parse(path, unit)
    except CycleError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return np.array(times, dtype=float).tobytes(), np.array(speeds, dtype=float).tobytes()


def columns(path, unit):
    raw = parse_trace(path, unit)
    return raw.t, raw.v


def narrowed_lines(text):
    """Line numbers of data rows holding a cell only float() reads."""
    return {n for n, line in enumerate(text.splitlines(), start=1)
            if not line.strip().startswith("#")
            and any(not c.strip().isascii() or "_" in c for c in line.split(","))}


class TestParseTraceMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(text=trace_texts(), unit=st.sampled_from(SUPPORTED_UNITS))
    @example(text="0,1\nt,v\n1,2\n", unit="m/s")
    @example(text="0,1\n1,2 # note\n", unit="m/s")
    @example(text="0,1\n", unit="m/s")
    @example(text="# c\n\n0,1\n# c\n1,2\n\n0,3\n", unit="m/s")
    @example(text="0,1e308\n0.5,1e308\n", unit="m/s")
    @example(text="0,100\n1,100.00000000000001\n", unit="m/s")
    @example(text="223.69362920544023\n223.69362920544026\n", unit="mph")
    @example(text="0,360\nx\n", unit="km/h")
    @example(text="0,361\nx\n", unit="km/h")
    @example(text="0,1\n0.5,nan\n1,2\n", unit="m/s")
    @example(text="nan\n-1\n", unit="mph")
    def test_same_columns_or_same_error(self, tmp_path_factory, text, unit):
        path = tmp_path_factory.getbasetemp() / "prop.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = outcome(columns, path, unit)
        want = outcome(reference_parse_trace, path, unit)
        if got != want:  # allowed only on the first row with a narrowed cell
            assert got[0] is ParseError and got[1].startswith(("bad speed", "bad timestamp"))
            assert got[2] == min(narrowed_lines(text), default=None)


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
        assert cycle.v.tolist() == [3.0, 7.0]
        assert cycle.a[1] == 4.0
