"""Reference trace parser: a per-line loop that checks each row as it reads
it, independent of `cycleio.parse_trace`'s split between reading cells and
judging values.

Kept as the oracle for `tests/test_cycleio.py`. Each cell goes through
Python's `float()`, which also accepts digit-group underscores and
non-ASCII digits; the package's reader rejects those cells. A leading UTF-8
byte-order mark is skipped. A row is judged in one order: its cells parse,
then its timestamp is finite and a finite span from the first row's, then it
does not decrease, then its speed is not negative, not NaN or infinite, and
at most 100 m/s once converted from its unit.
"""

from __future__ import annotations

import math
from pathlib import Path

from movestar.errors import EmptyTrace, InvalidSample, NegativeSpeed, ParseError

MAX_SPEED_MPS = 100.0
BOM = b"\xef\xbb\xbf"


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
    if data.startswith(BOM):
        data = data[len(BOM):]
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
                raise ParseError(f"bad timestamp {cells[0]!r}", line=lineno) from None
            v_cell = cells[1]
        else:
            raise ParseError(f"expected 1 or 2 columns, got {len(cells)}", line=lineno)
        try:
            v = float(v_cell)
        except ValueError:
            raise ParseError(f"bad speed {v_cell!r}", line=lineno) from None
        at = f"line {lineno}"
        first = times[0] if times else t
        if not math.isfinite(t - first):
            raise InvalidSample(f"timestamp {t!r} at {at} is not finite or far from the first")
        if times and t < times[-1]:
            raise InvalidSample(f"timestamp decreases at {at}")
        if v < 0.0:
            raise NegativeSpeed(v, at=at)
        if math.isnan(v) or math.isinf(v):
            raise InvalidSample(f"non-finite speed {v!r} at {at}")
        if to_mps(v, unit) > MAX_SPEED_MPS:
            raise InvalidSample(f"speed {v!r} {unit} at {at} is over the {MAX_SPEED_MPS!r} m/s"
                                " limit")
        times.append(t)
        speeds.append(v)
    if not times:
        raise EmptyTrace(f"{path}: no data rows")
    return tuple(times), tuple(speeds)
