"""Speed-trace ingestion: file parsing, unit conversion, 1 Hz resampling.

Input files are either two-column CSV (`t,v`, optional header, `#` comments)
or a bare one-speed-per-line list read as an implicit 1 Hz trace. Speeds may
be declared in m/s, mph or km/h and are converted to m/s before modeling.
"""

from __future__ import annotations

import codecs
import math
import re
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DriveCycle, _float_array
from .errors import CycleError, EmptyTrace, GapTooLarge, InvalidSample, ParseError, TraceFileError
from .model import _TO_MPS, MAX_SPEED_MPS, SUPPORTED_UNITS, _number, _speed_error

# Longest tolerated run of empty 1 s windows; longer gaps would fabricate
# kinematics if interpolated.
MAX_GAP_S = 5


@dataclass(frozen=True, eq=False)
class RawTrace:
    """A speed trace in its declared unit, checked once: read-only float64 arrays
    `t` (timestamps, s) and `v` (speeds) of one length. Given each sample's line
    number in `lines`, as a file's reader gives them, an error names `line N`."""

    t: np.ndarray
    v: np.ndarray
    unit: str
    lines: InitVar[Sequence[int] | None] = None

    def __post_init__(self, lines):
        """Check the given arrays, then copy each once: a known unit, one or more
        samples, finite non-decreasing timestamps of a finite span, and speeds
        from 0 to MAX_SPEED_MPS in m/s. Reductions accept a good trace (a NaN fails
        them; the conversion is monotone, so it converts only the largest speed)."""
        if self.unit not in SUPPORTED_UNITS:
            raise ParseError(f"unsupported unit {self.unit!r}; expected one of {SUPPORTED_UNITS}")
        t, v = _float_array(self.t, "timestamp", "sample"), _float_array(self.v, "speed", "sample")
        if t.ndim != 1 or t.shape != v.shape:
            raise InvalidSample(f"timestamps {t.shape}, speeds {v.shape}: not 1-D of one length")
        if lines is not None and len(lines) != t.size:
            raise InvalidSample(f"{len(lines)} line numbers for {t.size} samples")
        if t.size == 0:
            raise EmptyTrace("trace has no samples")
        if not (np.minimum.reduce(v) >= 0.0
                and _TO_MPS[self.unit](np.maximum.reduce(v)) <= MAX_SPEED_MPS
                and math.isfinite(float(t[-1]) - float(t[0]))
                and np.less_equal(t[:-1], t[1:]).all()):
            raise _first_bad_sample(t, v, self.unit, lines)
        t, v = np.array(t), np.array(v)
        t.setflags(write=False)
        v.setflags(write=False)
        self.__dict__.update(t=t, v=v)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self.t.tolist())

    def __len__(self) -> int:
        return self.t.size

    def speeds_mps(self) -> list[float]:
        return _TO_MPS[self.unit](self.v).tolist()


def _first_bad_sample(t: np.ndarray, v: np.ndarray, unit: str,
                      lines: Sequence[int] | None) -> CycleError:
    """The error of the first bad sample of a trace `RawTrace` rejected, named by
    its line in `lines` if given: its timestamp, then the order, then its speed."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(t - t[0]) | ~(v >= 0.0) | ~(_TO_MPS[unit](v) <= MAX_SPEED_MPS)
    bad[1:] |= t[1:] < t[:-1]
    i = int(bad.argmax())
    ti, at = float(t[i]), f"sample {i}" if lines is None else f"line {lines[i]}"
    if not math.isfinite(ti - float(t[0])):
        return InvalidSample(f"timestamp {ti!r} at {at} is not finite or far from the first")
    if i and ti < t[i - 1]:
        return InvalidSample(f"timestamp decreases at {at}")
    return _speed_error(v[i], at, unit)


def _is_skipped(line: str) -> bool:
    """Blank and comment lines carry no data; `#` starts a comment only at
    the start of a line."""
    line = line.strip()
    return not line or line.startswith("#")


def _is_header(line: str) -> bool:
    return line.split(",", 1)[0].strip().lower() in ("t", "time")


def parse_trace(path: str | Path, unit: str = "m/s") -> RawTrace:
    """Read a trace file, rejecting its first bad row with its line number.

    `RawTrace` judges the values. Single-column files get implicit timestamps 0, 1,
    2, ... A leading UTF-8 byte-order mark is skipped, once, before the route is
    chosen: numpy's `utf-8-sig` read skips it too. An unreadable file raises
    TraceFileError. numpy reads the file by path if `_skiprows` allows it; if
    `RawTrace` rejects that table, the bytes already read number its rows. Any
    other file, and any file numpy rejects, is read one line at a time in
    Python by `_read_lines`, with the same values and errors.
    """
    if unit not in SUPPORTED_UNITS:
        raise ParseError(f"unsupported unit flag {unit!r}; expected one of {SUPPORTED_UNITS}")
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceFileError(exc.errno, exc.strerror, exc.filename) from None
    data = data.removeprefix(codecs.BOM_UTF8)
    start = _skiprows(path, data)
    if start is not None:
        # numpy reads the path in C chunks with universal newlines. It skips
        # the first `start` lines, then every empty line and every line that
        # starts with `#`. It opens the file a second time: if it is gone by
        # then, the bytes already read are the source. If it was replaced, a
        # table `RawTrace` rejects is named from the bytes held only when it
        # has as many rows as they do; else they are read as lines.
        try:
            table = np.loadtxt(str(path), delimiter=",", comments="#", dtype=float,
                               skiprows=start, ndmin=2, encoding="utf-8-sig")
        except (ValueError, OSError):
            table = None
        if table is not None and table.shape[1] <= 2:
            t = table[:, 0] if table.shape[1] == 2 else np.arange(len(table), dtype=float)
            v = table[:, -1]
            try:
                return RawTrace(t=t, v=v, unit=unit)
            except CycleError:
                # `bytes.splitlines` splits as numpy and `_skiprows` do; each
                # line numpy read is neither empty nor starts with `#`.
                lines = [n for n, line in enumerate(data.splitlines()[start:], start + 1)
                         if line and line[0] != b"#"[0]]
                if len(lines) == len(t):
                    raise _first_bad_sample(t, v, unit, lines) from None
    return _read_lines(path, data, unit)


# Bytes at which `str.splitlines` breaks a line and numpy's reader does not.
_OTHER_BREAKS = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# Suffixes after which numpy reads a path through a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# One line of ASCII text and its break, as universal newlines end it.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)?")
# A line of spaces and tabs only, which numpy rejects, after a line feed: the
# literal first byte keeps the search fast. A file with lone carriage returns
# and such a line is read as lines after numpy rejects it.
_BLANK = re.compile(rb"\n[ \t]+(?:[\r\n]|\Z)")


def _skiprows(path: Path, data: bytes) -> int | None:
    """The number of leading header, comment and blank lines of a file that numpy
    reads from its path as `str.splitlines` splits it, or None for any other
    file: one that is not ASCII, has the other breaks of `str.splitlines` or a
    name numpy would decompress, has no data line, or has past the leading
    lines a `#` after other text, which numpy would strip as a comment, or a
    whitespace-only line, which numpy rejects."""
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
    # Most files have no space or tab past the leading lines, and so no
    # whitespace-only line; the search for one runs only on the others.
    if (data.find(b" ", pos) != -1 or data.find(b"\t", pos) != -1) and _BLANK.search(data, pos):
        return None
    return start


def _read_lines(path: Path, data: bytes, unit: str) -> RawTrace:
    """The trace in `unit` of a file's bytes `data`, without the byte-order
    mark `parse_trace` skipped, read one line at a time, or the error of its
    first bad line. Lines are only split into numbers here: `RawTrace` judges
    the values, so a line that does not split is an error once the rows above
    it have passed. A second mark is text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1) from None
    times: list[float] = []
    speeds: list[float] = []
    lines: list[int] = []
    ncols = error = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Header lines count only before the first data line.
        if _is_skipped(raw) or (ncols is None and _is_header(raw)):
            continue
        cells = [c.strip() for c in raw.strip().split(",")]
        ncols = ncols or len(cells)
        if len(cells) != ncols:
            error = ParseError(f"expected {ncols} column(s), got {len(cells)}", line=lineno)
            break
        if ncols > 2:
            error = ParseError(f"expected 1 or 2 columns, got {ncols}", line=lineno)
            break
        try:
            t = _number(cells[0]) if ncols == 2 else float(len(times))
        except ValueError:
            error = ParseError(f"bad timestamp {cells[0]!r}", line=lineno)
            break
        try:
            v = _number(cells[-1])
        except ValueError:
            error = ParseError(f"bad speed {cells[-1]!r}", line=lineno)
            break
        times.append(t)
        speeds.append(v)
        lines.append(lineno)
    if times:   # the rows above a line that does not split are judged first
        trace = RawTrace(times, speeds, unit, lines)
    if error is not None or not times:
        raise error or EmptyTrace(f"{path}: no data rows")
    return trace


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
    # Window k is [floor(t0) + k, floor(t0) + k + 1). Both floors are exact, so
    # no rounding moves a sample to a later window, as `t - floor(t0)` can
    # (-1e-17 - -1.0 rounds to 1.0).
    w = np.floor(t) - np.floor(t[0])
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
    return DriveCycle(_window_means(raw))


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
