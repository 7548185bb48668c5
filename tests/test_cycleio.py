"""Trace parsing and 1 Hz resampling tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movestar import cycleio
from movestar.core import MPS_PER_MPH, mph_to_mps
from movestar.cycleio import (
    MAX_GAP_S,
    SUPPORTED_UNITS,
    RawTrace,
    parse_trace,
    resample_speeds_to_1hz,
    resample_to_1hz,
)
from movestar.errors import (
    CycleError,
    EmptyTrace,
    GapTooLarge,
    InvalidSample,
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

    def test_timestamps_past_float_range_apart_are_an_error_at_their_line(self, tmp_path):
        # Their windows would overflow; the resampler used to raise OverflowError.
        with pytest.raises(ParseError) as info:
            parse_trace(write(tmp_path, "t,v\n-1e308,1\n1e308,2\n"), "m/s")
        assert str(info.value) == "timestamp '1e308' is too far from the first at line 3"

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


# Line breaks that `str.splitlines` splits on but numpy's reader does not,
# CR and LF to mix with the other endings, and NUL, which splits nothing.
OTHER_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\x00"]


@st.composite
def trace_texts(draw):
    """Trace text from headers, comments, blank lines, 1-3 column rows with
    mostly rising timestamps, and the three line endings, now and then mixed
    with each other and with the other breaks of `str.splitlines`."""
    ncols = draw(st.sampled_from([1, 2, 2, 2]))
    lines, t = [], 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "header"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # unit: v=m/s", "#", "# \xb5"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "header":
            lines.append(draw(st.sampled_from(["t,v", "time,speed", "T", " Time , v ",
                                               "t,v_\xe9"])))
        else:
            t += draw(st.sampled_from([0, 1, 1, 2, -1]))
            n = draw(st.sampled_from([ncols] * 20 + [1, 2, 3]))
            cells = [str(t) if draw(st.integers(0, 4)) else draw(st.sampled_from(CELLS))]
            cells += [draw(st.sampled_from(CELLS)) for _ in range(n - 1)]
            lines.append(",".join(cells[-n:]) + draw(st.sampled_from([""] * 24 + [","])))
    ending = draw(st.sampled_from(["\n", "\r\n"] * 2 + ["\r"]))
    others = OTHER_BREAKS if draw(st.integers(0, 3)) == 0 else []
    breaks = [draw(st.sampled_from([ending] * 4 + others)) for _ in lines]
    text = "".join(map(str.__add__, lines, breaks))
    if lines and draw(st.booleans()):   # no break after the last line
        text = text.removesuffix(breaks[-1])
    return text


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
            and line.split(",", 1)[0].strip().lower() not in ("t", "time")
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
    @example(text="t,v\r\n0,1\r\n1,2\r\n", unit="m/s")
    @example(text="t,v\r\n0,1\r\n1,-2\r\n", unit="m/s")
    @example(text="t,v\n0,1\r1,2\n0,3\n", unit="m/s")
    @example(text="0,1\v1,2\n", unit="m/s")
    @example(text="0,1\n1,2\f0,3\n", unit="m/s")
    @example(text="0,1\x1c1,2\x1d2,3\x1e1,4\n", unit="m/s")
    @example(text="0,1\x851,2\n", unit="m/s")
    @example(text="0,1\u20281,2\n", unit="m/s")
    @example(text="0,1\x00\n1,2\n", unit="m/s")
    @example(text="0,1\n1,\xa02\n", unit="m/s")
    @example(text="\n0,1\n1,2\n", unit="m/s")
    @example(text="  \nt,v\n0,1\n1,2\n", unit="m/s")
    @example(text="# c\n0,1\n1,2\n", unit="m/s")
    @example(text="0,1\n1,2", unit="m/s")
    @example(text="0,1\n1,2\n\n", unit="m/s")
    @example(text="t,v\n0,1\n1,-2\n\n\r\n", unit="m/s")
    @example(text="t,v_\xe9\n1_000\n", unit="m/s")
    @example(text="t,v\n0,1\n1,2#x\n", unit="m/s")
    @example(text="t,v\r0,1\r# c\r1,2\r", unit="m/s")
    @example(text="  # lead\nt,v\n0,1\n# c\n1,2\n", unit="m/s")
    @example(text="t,v\n0,1\n  # c\n1,2\n", unit="m/s")
    @example(text="t,v\n0,1\n\t\n1,2\n", unit="m/s")
    def test_same_columns_or_same_error(self, tmp_path_factory, text, unit):
        path = tmp_path_factory.getbasetemp() / "prop.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = outcome(columns, path, unit)
        want = outcome(reference_parse_trace, path, unit)
        if got != want:  # allowed only on the first row with a narrowed cell
            assert got[0] is ParseError and got[1].startswith(("bad speed", "bad timestamp"))
            assert got[2] == min(narrowed_lines(text), default=None)


class TestReadRoute:
    """An ASCII file reaches `np.loadtxt` as a path, read in C; any other file,
    one numpy rejects, or one with a `#` after other text, as the list of its
    data lines."""

    @pytest.mark.parametrize("text,route", [
        ("t,v\n0,1\n1,2.5\n", [("path", 1)]),
        ("0,1\r\n1,2.5\r\n", [("path", 0)]),
        ("\n  \r\ntime,v\r\n0,1\r\n1,2.5", [("path", 3)]),
        ("1\n2.5\n", [("path", 0)]),
        ("# unit: v=m/s\nt,v\n0,1\n1,2.5\n", [("path", 2)]),
        ("t,v\n0,1\n# c\n1,2.5\n", [("path", 1)]),
        ("t,v\n0,1\n1,2.5\n\n\r\n", [("path", 1)]),
        ("t,v\n0,1\n\n1,2.5\n", [("path", 1)]),
        ("t,v\r\n0,1\r\n\r\n1,2.5\r\n", [("path", 1)]),
        ("t,v\n0,1\n \n1,2.5\n", [("path", 1), ("list", 0)]),
        ("t,v\n0,1\n1,\xa02.5\n", [("list", 0)]),
        ("t,v\r0,1\r1,2.5\r", [("path", 1)]),
        ("t,v\n0,1\r1,2.5\n", [("path", 1)]),
        ("t,v\n0,1\n  # c\n1,2.5\n", [("list", 0)]),
        ("t,v\n0,1\n\t\n1,2.5\n", [("path", 1), ("list", 0)]),
    ])
    def test_route(self, tmp_path, monkeypatch, text, route):
        assert self.route(tmp_path / "trace.csv", text, monkeypatch) == route

    # numpy would strip `# x` as a comment and keep the row.
    def test_hash_after_a_value_is_an_error_at_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        calls = self.spy(path, "t,v\n0,1\n1,2 # x\n", monkeypatch)
        with pytest.raises(ParseError, match="bad speed '2 # x'") as exc:
            parse_trace(path, "m/s")
        assert (exc.value.line, calls) == (3, [])

    # numpy would read these names through a decompressor.
    @pytest.mark.parametrize("name", ["trace.gz", "trace.bz2", "trace.xz", "trace.lzma"])
    def test_compressed_suffix_takes_the_line_path(self, tmp_path, monkeypatch, name):
        assert self.route(tmp_path / name, "t,v\n0,1\n1,2.5\n", monkeypatch) == [("list", 0)]

    # numpy opens the file again after `read_bytes`; if it is gone by then,
    # the values come from the bytes already read.
    def test_file_gone_before_numpy_reads_it(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_text("t,v\n0,1\n1,2.5\n", encoding="utf-8")
        loadtxt = np.loadtxt

        def vanish(fname, *args, **kwargs):
            if fname == str(path):
                path.unlink()
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(cycleio.np, "loadtxt", vanish)
        raw = parse_trace(path, "m/s")
        assert (raw.t.tolist(), raw.v.tolist()) == ([0.0, 1.0], [1.0, 2.5])
        assert not path.exists()

    @classmethod
    def route(cls, path, text, monkeypatch):
        """What `parse_trace` hands `np.loadtxt` for a file that parses."""
        calls = cls.spy(path, text, monkeypatch)
        raw = parse_trace(path, "m/s")
        assert (raw.t.tolist(), raw.v.tolist()) == ([0.0, 1.0], [1.0, 2.5])
        return calls

    @staticmethod
    def spy(path, text, monkeypatch):
        """Write `text` to `path`; the list that collects what `parse_trace`
        hands `np.loadtxt`: ("path" or its type, skiprows) per call."""
        path.write_text(text, encoding="utf-8", newline="")
        calls, loadtxt = [], np.loadtxt

        def spy(fname, *args, **kwargs):
            calls.append(("path" if fname == str(path) else type(fname).__name__,
                          kwargs.get("skiprows", 0)))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(cycleio.np, "loadtxt", spy)
        return calls


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


# Hand-built traces that `RawTrace` rejects: (times, speeds in m/s, error, message).
HOSTILE_TRACES = [
    pytest.param([5.0, 0.0], [1.0, 1.0], InvalidSample, "timestamp decreases at sample 1",
                 id="decreasing"),
    pytest.param([0.0, math.nan], [1.0, 1.0], InvalidSample, "timestamp nan at sample 1",
                 id="nan_time"),
    pytest.param([0.0, math.inf], [1.0, 1.0], InvalidSample, "timestamp inf at sample 1",
                 id="inf_time"),
    pytest.param([-1e308, 1e308], [1.0, 1.0], InvalidSample,
                 "timestamp 1e[+]308 at sample 1 is not finite or far from the first", id="span"),
    pytest.param([0.0, 1.0, 2.0], [1.0, 2.0], InvalidSample,
                 r"timestamps \(3,\), speeds \(2,\): not 1-D", id="lengths"),
    pytest.param([[0.0, 1.0]], [[1.0, 2.0]], InvalidSample,
                 r"timestamps \(1, 2\), speeds \(1, 2\): not 1-D", id="2d"),
    pytest.param([0.0, 0.5], [1e308, 1e308], InvalidSample,
                 r"speed 1e\+308 m/s at sample 0 is not finite or is over the 100.0 m/s limit",
                 id="over_limit"),
    pytest.param([0.0, 1.0], [1.0, math.nan], InvalidSample, "speed nan m/s at sample 1",
                 id="nan_speed"),
    pytest.param([0.0, 1.0], [1.0, -1.0], NegativeSpeed, "negative speed -1.0", id="negative"),
    pytest.param([], [], EmptyTrace, "trace has no samples", id="empty"),
]


class TestRawTraceChecks:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("resample", [
        lambda t, v: resample_to_1hz(RawTrace(t, v, "m/s")), resample_speeds_to_1hz,
    ], ids=["RawTrace", "resample_speeds_to_1hz"])
    @pytest.mark.parametrize("times,speeds,error,message", HOSTILE_TRACES)
    def test_hostile_trace_is_a_cycle_error(self, resample, times, speeds, error, message):
        with pytest.raises(CycleError, match=message) as info:
            resample(times, speeds)
        assert type(info.value) is error

    def test_speed_limit_applies_in_the_declared_unit(self):
        assert RawTrace([0.0], [223.69362920544023], "mph").v.tolist() == [223.69362920544023]
        with pytest.raises(InvalidSample, match="speed 360.00000000000006 km/h at sample 1"):
            RawTrace([0.0, 1.0], [360.0, 360.00000000000006], "km/h")

    def test_unknown_unit(self):
        with pytest.raises(ParseError, match="unsupported unit 'furlong/s'"):
            RawTrace([0.0], [1.0], "furlong/s")

    def test_checked_arrays_are_read_only_copies(self):
        t, v = np.array([0.0, 0.5]), np.array([1.0, 2.0])
        raw = RawTrace(t, v, "m/s")
        assert raw.t is not t and raw.v is not v
        assert not (raw.t.flags.writeable or raw.v.flags.writeable)
        t[0] = 9.0
        assert (raw.t.tolist(), raw.v.tolist()) == ([0.0, 0.5], [1.0, 2.0])
