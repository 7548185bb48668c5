"""Speed-trace ingestion: file parsing, unit conversion, 1 Hz resampling.

Input files are either two-column CSV (`t,v`, optional header, `#` comments)
or a bare one-speed-per-line list read as an implicit 1 Hz trace. Speeds may
be declared in m/s, mph or km/h and are converted to m/s before modeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import MAX_SPEED_MPS, DriveCycle, _readonly, kmh_to_mps, mph_to_mps
from .errors import (
    CycleError, EmptyTrace, GapTooLarge, NegativeSpeed, NonMonotonicTime, ParseError,
    TraceFileError,
)

SUPPORTED_UNITS = ("m/s", "mph", "km/h")

# Longest tolerated run of empty 1 s windows; longer gaps would fabricate
# kinematics if interpolated.
MAX_GAP_S = 5


@dataclass(frozen=True, eq=False)
class RawTrace:
    """A parsed speed trace in its declared unit: read-only float64 arrays `t`
    (timestamps, s) and `v` (speeds)."""

    t: np.ndarray
    v: np.ndarray
    unit: str

    def __post_init__(self):
        for name in ("t", "v"):
            object.__setattr__(self, name, _readonly(np.array(getattr(self, name), dtype=float)))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self.t.tolist())

    def __len__(self) -> int:
        return self.t.size

    def speeds_mps(self) -> list[float]:
        return _to_mps(self.v, self.unit).tolist()


def _to_mps(v: np.ndarray, unit: str) -> np.ndarray:
    if unit == "m/s":
        return v
    if unit == "mph":
        return mph_to_mps(v)
    if unit == "km/h":
        return kmh_to_mps(v)
    raise ParseError(f"unsupported unit {unit!r}")


def _is_skipped(line: str) -> bool:
    """Blank and comment lines carry no data; `#` starts a comment only at
    the start of a line."""
    line = line.strip()
    return not line or line.startswith("#")


def _is_header(line: str) -> bool:
    return line.split(",", 1)[0].strip().lower() in ("t", "time")


def _number(cell: str) -> float:
    """One cell in the grammar of `np.loadtxt`: `float()` without its
    digit-group underscores and non-ASCII digits."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def parse_trace(path: str | Path, unit: str = "m/s") -> RawTrace:
    """Read a trace file, rejecting malformed rows with their line numbers.

    Negative speeds, speeds over MAX_SPEED_MPS once converted to m/s, and non-finite or
    backwards timestamps are hard errors. Single-column files get implicit timestamps
    0, 1, 2, ... An unreadable file raises TraceFileError.
    """
    if unit not in SUPPORTED_UNITS:
        raise ParseError(f"unsupported unit flag {unit!r}; expected one of {SUPPORTED_UNITS}")
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceFileError(exc.errno, exc.strerror, exc.filename) from None
    lines = linenos = None
    start, table = _plain_table(path, data)
    if table is None:
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1) from None
        start = next((i for i, line in enumerate(lines)
                      if not (_is_skipped(line) or _is_header(line))), len(lines))
        if start == len(lines):
            raise EmptyTrace(f"{path}: no data rows")
        rows = lines[start:]
        # Blank and comment lines between data rows are rare; they are looked
        # for row by row only when the whole-list scans say they are there.
        if "" in rows or any(map(str.isspace, rows)) or "#" in "".join(rows):
            linenos = [i for i, line in enumerate(lines[start:], start + 1) if not _is_skipped(line)]
            rows = [lines[i - 1] for i in linenos]
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            raise _first_bad_line(lines, start, unit) from None
        if table.shape[1] > 2:
            raise _first_bad_line(lines, start, unit)
    if table.shape[1] == 1:
        t, v = np.arange(len(table), dtype=float), table[:, 0]
    else:
        t, v = table[:, 0], table[:, 1]
    # NaN fails `<=`, so a NaN speed is named by its line like an over-limit one.
    bad = ~np.isfinite(t) | (v < 0.0) | ~(_to_mps(v, unit) <= MAX_SPEED_MPS)
    bad[1:] |= np.diff(t) < 0.0
    if bad.any():
        i = int(bad.argmax())
        if lines is None:
            lines = data.decode("ascii").splitlines()
        raise _first_bad_line(lines, start, unit,
                              stop=i + start + 1 if linenos is None else linenos[i])
    return RawTrace(t=t, v=v, unit=unit)


# Bytes after which `str.splitlines` and numpy's reader split lines
# differently.
_NOT_PLAIN = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# Suffixes after which numpy reads a path through a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _plain_table(path: Path, data: bytes) -> tuple[int, np.ndarray | None]:
    """(leading lines, table) of a plain file: ASCII, LF or CRLF line breaks,
    and after the leading header, comment and blank lines, every line up to
    any trailing empty ones a row with no `#`. `table` is None for any other
    file, for any file numpy rejects, and for a name numpy would decompress;
    those take the line path, which names the error."""
    if (path.suffix in _COMPRESSED or not data.isascii() or any(b in data for b in _NOT_PLAIN)
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return 0, None
    start = pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        line = data[pos:end].decode("ascii")
        if not (_is_skipped(line) or _is_header(line)):
            break
        start, pos = start + 1, end
    if pos == len(data) or data.find(b"#", pos) != -1:
        return 0, None
    # numpy skips empty lines. Trailing ones leave each row's line number as
    # it is, so they are not counted; `rstrip` would copy the buffer.
    end = len(data)
    while data[end - 1] in b"\r\n":
        end -= 1
    nrows = data.count(b"\n", pos, end) + 1
    # numpy opens the file a second time: given a `str` path it reads the
    # file in C chunks, where a list of lines is iterated in Python. If the
    # file is replaced between the two reads, what is kept is still an array
    # that passes every value check of `parse_trace`; if it is gone, the line
    # path reads the bytes already read.
    try:
        table = np.loadtxt(str(path), delimiter=",", comments=None, dtype=float,
                           skiprows=start, ndmin=2, encoding="utf-8")
    except (ValueError, OSError):
        return 0, None
    # A row count short of the line count means numpy skipped an empty line
    # between rows, and the line path must number the rows.
    if table.shape[0] != nrows or table.shape[1] > 2:
        return 0, None
    return start, table


def _first_bad_line(lines: list[str], start: int, unit: str,
                    stop: int | None = None) -> CycleError:
    """The error of the first bad line among `lines[start:stop]` of a trace in
    `unit`, found with per-line checks; runs only on a file the array checks
    have rejected."""
    ncols: int | None = None
    t_prev: float | None = None
    for lineno, raw in enumerate(lines[start:stop], start=start + 1):
        if _is_skipped(raw):
            continue
        cells = [c.strip() for c in raw.strip().split(",")]
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            return ParseError(f"expected {ncols} column(s), got {len(cells)}", line=lineno)
        if len(cells) > 2:
            return ParseError(f"expected 1 or 2 columns, got {len(cells)}", line=lineno)
        if len(cells) == 2:
            try:
                t = _number(cells[0])
            except ValueError:
                t = math.nan
            if not math.isfinite(t):
                return ParseError(f"bad timestamp {cells[0]!r}", line=lineno)
        try:
            v = _number(cells[-1])
        except ValueError:
            return ParseError(f"bad speed {cells[-1]!r}", line=lineno)
        if v < 0.0:
            return NegativeSpeed(v, line=lineno)
        if _to_mps(v, unit) > MAX_SPEED_MPS:
            return ParseError(f"speed {v!r} {unit} is over the {MAX_SPEED_MPS!r} m/s limit",
                              line=lineno)
        if not math.isfinite(v):        # NaN: the tests above pass it
            return ParseError(f"bad speed {cells[-1]!r}", line=lineno)
        if len(cells) == 2:
            if t_prev is not None and t < t_prev:
                return NonMonotonicTime(lineno)
            t_prev = t
    return ParseError("the array reader rejected rows that every line check accepts")


def resample_speeds_to_1hz(times: Sequence[float], speeds_mps: Sequence[float]) -> list[float]:
    """Window-mean resampling onto the whole-second grid.

    Each output second t is the arithmetic mean of the raw samples whose
    timestamps fall in [t, t+1), anchored at floor(first timestamp). Empty
    interior windows are filled by linear interpolation between neighboring
    window means; runs longer than MAX_GAP_S raise instead.
    """
    return _window_means(times, speeds_mps).tolist()


def _window_means(times: Sequence[float], speeds_mps: Sequence[float]) -> np.ndarray:
    """`resample_speeds_to_1hz` as an array."""
    if len(times) == 0:
        raise EmptyTrace("cannot resample an empty trace")
    t = np.asarray(times, dtype=float)
    v = np.asarray(speeds_mps, dtype=float)
    w = np.floor(t - np.floor(t[0]))
    # Gaps are checked on the window indices, before allocating a slot per window.
    empty = np.diff(w) - 1.0
    too_long = np.flatnonzero(empty > MAX_GAP_S)
    if too_long.size:
        i = too_long[0]
        raise GapTooLarge(start_window=int(w[i]) + 1, length=int(empty[i]), limit=MAX_GAP_S)
    idx = w.astype(int)
    n_windows = int(idx[-1]) + 1

    sums = np.bincount(idx, weights=v, minlength=n_windows)
    counts = np.bincount(idx, minlength=n_windows)
    filled = counts > 0

    means = np.zeros(n_windows, dtype=float)
    means[filled] = sums[filled] / counts[filled]
    if not filled.all():
        windows = np.arange(n_windows, dtype=float)
        means[~filled] = np.interp(windows[~filled], windows[filled], means[filled])
    return means


def resample_to_1hz(raw: RawTrace) -> DriveCycle:
    """Convert a raw trace to a validated 1 Hz drive cycle in m/s."""
    return DriveCycle.from_speeds(_window_means(raw.t, _to_mps(raw.v, raw.unit)))


def load_cycle(path: str | Path, unit: str = "m/s") -> DriveCycle:
    """Parse, convert and resample a trace file into a DriveCycle."""
    return resample_to_1hz(parse_trace(path, unit))


def write_cycle_csv(cycle: DriveCycle, path: str | Path) -> None:
    """Write a 1 Hz cycle as `t,v` CSV in m/s."""
    lines = ["# unit: v=m/s", "t,v"]
    lines += [f"{t},{v!r}" for t, v in enumerate(cycle.v.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


__all__ = [
    "RawTrace", "SUPPORTED_UNITS", "MAX_GAP_S",
    "parse_trace", "resample_to_1hz", "resample_speeds_to_1hz",
    "load_cycle", "write_cycle_csv",
]
