"""Speed-trace ingestion: file parsing, unit conversion, 1 Hz resampling.

Input files are either two-column CSV (`t,v`, optional header, `#` comments)
or a bare one-speed-per-line list read as an implicit 1 Hz trace. Speeds may
be declared in m/s, mph or km/h and are converted to m/s before modeling.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DriveCycle, _readonly
from .errors import (
    CycleError, EmptyTrace, GapTooLarge, InvalidSample, NegativeSpeed, NonMonotonicTime,
    ParseError, TraceFileError,
)
from .model import _TO_MPS, MAX_SPEED_MPS, SUPPORTED_UNITS

# Longest tolerated run of empty 1 s windows; longer gaps would fabricate
# kinematics if interpolated.
MAX_GAP_S = 5


@dataclass(frozen=True, eq=False)
class RawTrace:
    """A speed trace in its declared unit, checked once: read-only float64
    arrays `t` (timestamps, s) and `v` (speeds) of one length."""

    t: np.ndarray
    v: np.ndarray
    unit: str

    def __post_init__(self):
        """Check the given arrays, then copy each once: a known unit, one or more
        samples, finite non-decreasing timestamps of a finite span, and speeds
        from 0 to MAX_SPEED_MPS in m/s. Reductions accept a good trace (a NaN fails
        them; the conversion is monotone, so it converts only the largest speed)."""
        if self.unit not in SUPPORTED_UNITS:
            raise ParseError(f"unsupported unit {self.unit!r}; expected one of {SUPPORTED_UNITS}")
        t, v = np.asarray(self.t, dtype=float), np.asarray(self.v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise InvalidSample(f"timestamps {t.shape}, speeds {v.shape}: not 1-D of one length")
        if t.size == 0:
            raise EmptyTrace("trace has no samples")
        if not (np.minimum.reduce(v) >= 0.0
                and _TO_MPS[self.unit](np.maximum.reduce(v)) <= MAX_SPEED_MPS
                and math.isfinite(float(t[-1]) - float(t[0]))
                and np.less_equal(t[:-1], t[1:]).all()):
            raise _first_bad_sample(t, v, self.unit)
        object.__setattr__(self, "t", _readonly(np.array(t)))
        object.__setattr__(self, "v", _readonly(np.array(v)))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self.t.tolist())

    def __len__(self) -> int:
        return self.t.size

    def speeds_mps(self) -> list[float]:
        return _TO_MPS[self.unit](self.v).tolist()


def _first_bad_sample(t: np.ndarray, v: np.ndarray, unit: str) -> CycleError:
    """The error of the first bad sample of a trace `RawTrace` rejected."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(t - t[0]) | ~(v >= 0.0) | ~(_TO_MPS[unit](v) <= MAX_SPEED_MPS)
    bad[1:] |= t[1:] < t[:-1]
    i = int(bad.argmax())
    ti, vi = float(t[i]), float(v[i])
    if not math.isfinite(ti - float(t[0])):
        return InvalidSample(f"timestamp {ti!r} at sample {i} is not finite or far from the first")
    if i and ti < t[i - 1]:
        return InvalidSample(f"timestamp decreases at sample {i}")
    if vi < 0.0:
        return NegativeSpeed(vi)
    return InvalidSample(f"speed {vi!r} {unit} at sample {i} is not finite or is over the "
                         f"{MAX_SPEED_MPS!r} m/s limit")


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
    0, 1, 2, ... An unreadable file raises TraceFileError. numpy reads the file by
    path if `_skiprows` allows it and it accepts it, and otherwise as a list of lines.
    """
    if unit not in SUPPORTED_UNITS:
        raise ParseError(f"unsupported unit flag {unit!r}; expected one of {SUPPORTED_UNITS}")
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceFileError(exc.errno, exc.strerror, exc.filename) from None
    lines = table = None
    start = _skiprows(path, data)
    if start is not None:
        # numpy opens the file a second time. If it is gone by then, the lines
        # of the bytes already read are the source; if it was replaced, the new
        # values still pass every check below. A file numpy rejects, such as
        # one with a whitespace-only line, is read as lines too.
        try:
            table = _read(str(path), start)
        except (ValueError, OSError):
            pass
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
        # numpy rejects whitespace-only lines and indented comments, and would
        # strip a `#` after other text, which is an error.
        if any(map(str.isspace, rows)) or "#" in "".join(rows):
            rows = [line for line in rows if not _is_skipped(line)]
            if "#" in "".join(rows):
                raise _first_bad_line(lines, start, unit)
        try:
            table = _read(rows, 0)
        except ValueError:
            raise _first_bad_line(lines, start, unit) from None
    if table.shape[1] <= 2:
        t = table[:, 0] if table.shape[1] == 2 else np.arange(len(table), dtype=float)
        try:
            return RawTrace(t=t, v=table[:, -1], unit=unit)
        except CycleError:
            pass
    # The rows numpy read are the lines `_first_bad_line` checks, so the first
    # bad line is the first row `RawTrace` rejects.
    raise _first_bad_line(lines or data.decode("ascii").splitlines(), start, unit)


# Bytes at which `str.splitlines` breaks a line and numpy's reader does not.
_OTHER_BREAKS = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# Suffixes after which numpy reads a path through a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# One line of ASCII text and its break, as universal newlines end it.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)?")


def _skiprows(path: Path, data: bytes) -> int | None:
    """The number of leading header, comment and blank lines of a file that numpy
    reads from its path as `str.splitlines` splits it, or None for any other
    file: one that is not ASCII, has the other breaks of `str.splitlines` or a
    name numpy would decompress, has no data line, or has a `#` after other text
    on a line past the leading ones, which numpy would strip as a comment."""
    if path.suffix in _COMPRESSED or not data.isascii() or any(b in data for b in _OTHER_BREAKS):
        return None
    start = pos = 0
    while pos < len(data):
        line = _LINE.match(data, pos).group().decode("ascii")
        if not (_is_skipped(line) or _is_header(line)):
            break
        start, pos = start + 1, pos + len(line)
    else:
        return None
    i = data.find(b"#", pos)
    while i != -1:
        if data[i - 1] not in b"\r\n":
            return None
        i = data.find(b"#", i + 1)
    return start


def _read(source: str | list[str], skiprows: int) -> np.ndarray:
    """The comma-separated floats of a path, which numpy reads in C chunks with
    universal newlines, or of a list of lines; numpy skips the first `skiprows`
    lines, then every empty line and every line that starts with `#`."""
    return np.loadtxt(source, delimiter=",", comments="#", dtype=float,
                      skiprows=skiprows, ndmin=2, encoding="utf-8")


def _first_bad_line(lines: list[str], start: int, unit: str) -> CycleError:
    """The error of the first bad line from `lines[start]` on of a trace in
    `unit`, found with per-line checks; runs only on a file numpy or the
    array checks have rejected."""
    ncols: int | None = None
    t_first = t_prev = None
    for lineno, raw in enumerate(lines[start:], start=start + 1):
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
        if _TO_MPS[unit](v) > MAX_SPEED_MPS:
            return ParseError(f"speed {v!r} {unit} is over the {MAX_SPEED_MPS!r} m/s limit",
                              line=lineno)
        if not math.isfinite(v):        # NaN: the tests above pass it
            return ParseError(f"bad speed {cells[-1]!r}", line=lineno)
        if len(cells) == 2:
            if t_prev is not None and t < t_prev:
                return NonMonotonicTime(lineno)
            t_first = t if t_first is None else t_first
            if not math.isfinite(t - t_first):
                return ParseError(f"timestamp {cells[0]!r} is too far from the first", line=lineno)
            t_prev = t
    return ParseError("the array reader rejected rows that every line check accepts")


def resample_speeds_to_1hz(times: Sequence[float], speeds_mps: Sequence[float]) -> list[float]:
    """Window-mean resampling onto the whole-second grid.

    Each output second t is the arithmetic mean of the raw samples whose
    timestamps fall in [t, t+1), anchored at floor(first timestamp). Empty
    interior windows are filled by linear interpolation between neighboring
    window means; runs longer than MAX_GAP_S raise instead.
    """
    return _window_means(RawTrace(times, speeds_mps, "m/s")).tolist()


def _window_means(raw: RawTrace) -> np.ndarray:
    """`resample_speeds_to_1hz` of a checked trace, in m/s, as an array."""
    t, v = raw.t, _TO_MPS[raw.unit](raw.v)
    w = np.floor(t - np.floor(t[0]))
    # Gaps are checked on the window indices, before allocating a slot per window.
    empty = np.diff(w) - 1.0
    too_long = np.flatnonzero(empty > MAX_GAP_S)
    if too_long.size:
        i = too_long[0]
        raise GapTooLarge(start_window=int(w[i]) + 1, length=int(empty[i]), limit=MAX_GAP_S)
    idx = w.astype(int)
    sums, counts = np.bincount(idx, weights=v), np.bincount(idx)
    filled = counts > 0
    means = np.zeros(sums.size)
    means[filled] = sums[filled] / counts[filled]
    if not filled.all():
        windows = np.arange(sums.size, dtype=float)
        means[~filled] = np.interp(windows[~filled], windows[filled], means[filled])
    return means


def resample_to_1hz(raw: RawTrace) -> DriveCycle:
    """Convert a raw trace to a validated 1 Hz drive cycle in m/s."""
    return DriveCycle.from_speeds(_window_means(raw))


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
