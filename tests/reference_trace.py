"""Reference trace parser: the per-line loop `cycleio.parse_trace` ran
before it read every row with one `np.loadtxt` call.

Kept as the oracle for `tests/test_cycleio.py`. Each cell goes through
Python's `float()`, which also accepts digit-group underscores and
non-ASCII digits; the package's reader rejects those cells. A speed over
100 m/s, once converted from its unit, is an error of its line, and so is a
NaN speed.
"""

from __future__ import annotations

import math
from pathlib import Path

from movestar.errors import EmptyTrace, NegativeSpeed, NonMonotonicTime, ParseError

MAX_SPEED_MPS = 100.0


def to_mps(v: float, unit: str) -> float:
    """`v` in m/s: mph times the statute 0.44704, km/h over 3.6."""
    if unit == "mph":
        return v * 0.44704
    if unit == "km/h":
        return v / 3.6
    return v


def reference_parse_trace(path: str | Path,
                          unit: str = "m/s") -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(times, speeds in `unit`) of a trace file, or the error of its first bad line."""
    path = Path(path)
    times: list[float] = []
    speeds: list[float] = []
    implicit_t = 0
    ncols: int | None = None
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        if to_mps(v, unit) > MAX_SPEED_MPS:
            raise ParseError(f"speed {v!r} {unit} is over the {MAX_SPEED_MPS!r} m/s limit",
                             line=lineno)
        if math.isnan(v):
            raise ParseError(f"bad speed {v_cell!r}", line=lineno)
        if times and t < times[-1]:
            raise NonMonotonicTime(lineno)
        times.append(t)
        speeds.append(v)
    if not times:
        raise EmptyTrace(f"{path}: no data rows")
    return tuple(times), tuple(speeds)
