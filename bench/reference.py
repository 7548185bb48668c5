"""Independent reference used by the benchmark's correctness checks.

A vectorized transcription of the documented pipeline (README "Notes on
conventions") that shares no code with the package: tables are read here
with the csv module, modes are classified with shifted masks, and totals are
sequential sums (`np.cumsum`), which match the package's left-to-right sums
bit for bit. It also rebuilds the exact bytes of the CLI's ER/EF body rows
and of `convert` output, so outputs are checked for any seed.

The ER/EF header lines depend only on the table assets, not on the input;
their digest is recorded once, from the package's own output at the commit
that introduced the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

MPH = 0.44704
SPECIES = ("energy", "CO", "HC", "NOx", "CO2")
VEH_TOKEN = {1: "LDV", 2: "LDT"}

# sha256 of the ER/EF header block (provenance + unit lines) for the
# packaged tables.
HEADER_SHA256 = "88d799807de83d465a07f00d4a7836444901c1fd134c1986fa92c12eeb064170"

_LOW = (np.array([0.0, 3.0, 6.0, 9.0, 12.0]), np.array([11, 12, 13, 14, 15, 16]))
_MID = (np.array([0.0, 3.0, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0]),
        np.array([21, 22, 23, 24, 25, 27, 28, 29, 30]))
_HIGH = (np.array([6.0, 12.0, 18.0, 24.0, 30.0]), np.array([33, 35, 37, 38, 39, 40]))


class Tables:
    """Road-load coefficients and per-hour rates read straight from the CSVs."""

    def __init__(self, directory: Path):
        self.params: dict[str, tuple[float, ...]] = {}
        for row in _data_rows(directory / "params.csv"):
            self.params[row[0]] = tuple(float(x) for x in row[1:6])
        self.rates: dict[str, np.ndarray] = {}
        for row in _data_rows(directory / "rates.csv"):
            table = self.rates.setdefault(row[0], np.zeros((41, 5)))
            table[int(row[1])] = [float(x) for x in row[2:7]]


def _data_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row and not row[0].startswith("#") and row[0] != "source_type":
                yield [c.strip() for c in row]


def modes(speeds: np.ndarray, params: tuple[float, ...]) -> np.ndarray:
    """Operating mode of every second of a 1 Hz m/s speed array."""
    A, B, C, M, f = params
    v = speeds
    a = np.concatenate(([0.0], np.diff(v)))
    vsp = (A * v + B * v * v + C * v * v * v + M * (a + 9.8 * math.sin(0.0)) * v) / f
    a_mph = a / MPH
    v_mph = v / MPH
    soft = a_mph < -1.0
    braking = a_mph <= -2.0
    braking[2:] |= soft[2:] & soft[1:-1] & soft[:-2]
    out = np.empty(len(v), dtype=np.int64)
    for lo, hi, (edges, ids) in ((1.0, 25.0, _LOW), (25.0, 50.0, _MID), (50.0, math.inf, _HIGH)):
        sel = (v_mph >= lo) & (v_mph < hi)
        out[sel] = ids[np.searchsorted(edges, vsp[sel], side="right")]
    out[v_mph < 1.0] = 1
    out[braking] = 0
    return out


def run(speeds, veh: int, tables: Tables):
    """(modes, per-second grams (n, 5), totals (5,), distance_m) for one cycle."""
    v = np.asarray(speeds, dtype=float)
    token = VEH_TOKEN[veh]
    m = modes(v, tables.params[token])
    grams = tables.rates[token][m] / 3600.0
    return m, grams, np.cumsum(grams, axis=0)[-1], float(np.cumsum(v)[-1])


def totals_tuple(speeds, veh: int, tables: Tables) -> tuple[float, ...]:
    """(distance_m, energy, CO, HC, NOx, CO2), the shape `flatapi.totals` returns."""
    _, _, totals, distance = run(speeds, veh, tables)
    return (distance,) + tuple(float(x) for x in totals)


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def er_body(speeds, veh: int, tables: Tables) -> bytes:
    """Bytes of an ER file from its column-header line to the TOTAL row."""
    m, grams, totals, _ = run(speeds, veh, tables)
    lines = ["t,opmode," + ",".join(SPECIES)]
    lines += [f"{t},{mode}," + ",".join(map(_fmt, row))
              for t, (mode, row) in enumerate(zip(m.tolist(), grams.tolist()))]
    lines.append("TOTAL,," + ",".join(_fmt(x) for x in totals.tolist()))
    return ("\n".join(lines) + "\n").encode()


def ef_body(speeds, veh: int, tables: Tables) -> bytes:
    """Bytes of an EF file from its column-header line to the end."""
    _, _, totals, distance = run(speeds, veh, tables)
    lines = ["species,value,unit_per_km"]
    km = distance / 1000.0
    for name, total in zip(SPECIES, totals.tolist()):
        lines.append(f"{name},{_fmt(total / km) if distance > 0.0 else 'undefined'},g/km")
    lines.append(f"distance_km,{_fmt(km)},km")
    return ("\n".join(lines) + "\n").encode()


def split_header(data: bytes, first_body_line: bytes) -> tuple[bytes, bytes]:
    """Split an output file at its column-header line."""
    at = data.find(b"\n" + first_body_line) + 1
    if at == 0:
        return b"", data
    return data[:at], data[at:]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_trip_files(er: Path, ef: Path, er_body: bytes, ef_body: bytes) -> bool:
    """ER and EF files of `movestar run`: recorded header digest, reference body bytes."""
    if not (er.exists() and ef.exists()):
        return False
    er_head, er_rest = split_header(er.read_bytes(), b"t,opmode,")
    ef_head, ef_rest = split_header(ef.read_bytes(), b"species,value,")
    return (sha256(er_head) == HEADER_SHA256 == sha256(ef_head)
            and er_rest == er_body and ef_rest == ef_body)


def resample_1hz(times, speeds_kmh) -> list[float]:
    """Window means over [k, k+1) s from floor(first t); empty windows interpolated."""
    t0 = math.floor(times[0])
    n = int(math.floor(times[-1] - t0)) + 1
    sums = [0.0] * n
    counts = [0] * n
    for t, v in zip(times, speeds_kmh):
        k = int(math.floor(t - t0))
        sums[k] += v / 3.6
        counts[k] += 1
    filled = np.array([c > 0 for c in counts])
    means = np.zeros(n)
    means[filled] = [s / c for s, c in zip(sums, counts) if c > 0]
    x = np.arange(n, dtype=float)
    means[~filled] = np.interp(x[~filled], x[filled], means[filled])
    return means.tolist()


def window_stats(times) -> tuple[int, int, int]:
    """(windows, empty windows, longest run of empty windows) of a raw trace."""
    t = np.asarray(times)
    idx = np.floor(t - math.floor(t[0])).astype(int)
    filled = np.zeros(idx[-1] + 1, dtype=bool)
    filled[idx] = True
    empty = np.flatnonzero(~filled)
    longest = 0
    if len(empty):
        breaks = np.flatnonzero(np.diff(empty) != 1)
        bounds = np.concatenate(([-1], breaks, [len(empty) - 1]))
        longest = int(np.diff(bounds).max())
    return len(filled), len(empty), longest


def check_convert_file(out: Path, want: bytes, windows: int) -> bool:
    """Output of `movestar convert`: one row per 1 s window, reference bytes."""
    if not out.exists():
        return False
    data = out.read_bytes()
    return data.count(b"\n") - 2 == windows and data == want


def cycle_csv(speeds_mps: list[float]) -> bytes:
    """Bytes `movestar convert` writes for a 1 Hz m/s speed list."""
    return ("# unit: v=m/s\nt,v\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(speeds_mps))).encode()
