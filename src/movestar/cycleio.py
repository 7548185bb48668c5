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

from .core import DriveCycle, kmh_to_mps, mph_to_mps
from .errors import EmptyTrace, GapTooLarge, NegativeSpeed, NonMonotonicTime, ParseError

SUPPORTED_UNITS = ("m/s", "mph", "km/h")

# Longest tolerated run of empty 1 s windows; longer gaps would fabricate
# kinematics if interpolated.
MAX_GAP_S = 5


@dataclass(frozen=True)
class RawTrace:
    """A parsed speed trace in its declared unit, timestamps in seconds."""

    times: tuple[float, ...]
    speeds: tuple[float, ...]
    unit: str

    def __len__(self) -> int:
        return len(self.times)

    def speeds_mps(self) -> list[float]:
        if self.unit == "m/s":
            return list(self.speeds)
        if self.unit == "mph":
            return [mph_to_mps(v) for v in self.speeds]
        if self.unit == "km/h":
            return [kmh_to_mps(v) for v in self.speeds]
        raise ParseError(f"unsupported unit {self.unit!r}")


def parse_trace(path: str | Path, unit: str = "m/s") -> RawTrace:
    """Read a trace file, rejecting malformed rows with their line numbers.

    Negative speeds and non-finite or backwards timestamps are hard errors. Single-column
    files get implicit timestamps 0, 1, 2, ...
    """
    if unit not in SUPPORTED_UNITS:
        raise ParseError(f"unsupported unit flag {unit!r}; expected one of {SUPPORTED_UNITS}")
    path = Path(path)
    times: list[float] = []
    speeds: list[float] = []
    implicit_t = 0
    ncols: int | None = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if not times and cells[0].lower() in ("t", "time"):
            continue  # optional header row
        if ncols is None:
            ncols = len(cells)
        elif len(cells) != ncols:
            raise ParseError(f"expected {ncols} column(s), got {len(cells)}", line=lineno)
        if len(cells) == 1:
            t, v_cell = float(implicit_t), cells[0]
            implicit_t += 1
        elif len(cells) == 2:
            try:
                t = float(cells[0])
            except ValueError:
                t = math.nan
            if not math.isfinite(t):
                raise ParseError(f"bad timestamp {cells[0]!r}", line=lineno)
            v_cell = cells[1]
        else:
            raise ParseError(f"expected 1 or 2 columns, got {len(cells)}", line=lineno)
        try:
            v = float(v_cell)
        except ValueError:
            raise ParseError(f"bad speed {v_cell!r}", line=lineno) from None
        if v < 0.0:
            raise NegativeSpeed(v, line=lineno)
        if times and t < times[-1]:
            raise NonMonotonicTime(lineno)
        times.append(t)
        speeds.append(v)
    if not times:
        raise EmptyTrace(f"{path}: no data rows")
    return RawTrace(times=tuple(times), speeds=tuple(speeds), unit=unit)


def resample_speeds_to_1hz(times: Sequence[float], speeds_mps: Sequence[float]) -> list[float]:
    """Window-mean resampling onto the whole-second grid.

    Each output second t is the arithmetic mean of the raw samples whose
    timestamps fall in [t, t+1), anchored at floor(first timestamp). Empty
    interior windows are filled by linear interpolation between neighboring
    window means; runs longer than MAX_GAP_S raise instead.
    """
    if len(times) == 0:
        raise EmptyTrace("cannot resample an empty trace")
    t = np.asarray(times, dtype=float)
    v = np.asarray(speeds_mps, dtype=float)
    t0 = float(np.floor(t[0]))
    idx = np.floor(t - t0).astype(int)
    n_windows = int(idx[-1]) + 1

    sums = np.bincount(idx, weights=v, minlength=n_windows)
    counts = np.bincount(idx, minlength=n_windows)
    filled = counts > 0

    for start, length in _empty_runs(filled):
        if length > MAX_GAP_S:
            raise GapTooLarge(start_window=start, length=length, limit=MAX_GAP_S)

    means = np.zeros(n_windows, dtype=float)
    means[filled] = sums[filled] / counts[filled]
    if not filled.all():
        windows = np.arange(n_windows, dtype=float)
        means[~filled] = np.interp(windows[~filled], windows[filled], means[filled])
    return [float(x) for x in means]


def _empty_runs(filled: np.ndarray) -> list[tuple[int, int]]:
    """(first window, length) of every run of empty windows, in order."""
    edges = np.diff(np.concatenate(([True], filled, [True])).astype(np.int8))
    starts, ends = np.flatnonzero(edges == -1), np.flatnonzero(edges == 1)
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def resample_to_1hz(raw: RawTrace) -> DriveCycle:
    """Convert a raw trace to a validated 1 Hz drive cycle in m/s."""
    speeds = resample_speeds_to_1hz(raw.times, raw.speeds_mps())
    return DriveCycle.from_speeds(speeds)


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
