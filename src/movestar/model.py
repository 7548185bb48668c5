"""The scalar emission model: units, operating modes, vehicles and rate rows.

Everything the streaming path (`session`, `flatapi`) and table loading read
lives here, in plain Python: the mph thresholds and the exact m/s thresholds
derived from them, the speed-class x VSP-bin mode grid, the VSP formula, and
the per-second rows of a rate table. This module never imports numpy at
import time, and its records are named tuples and plain classes, not
dataclasses, so loading it stays cheap; the array kernel (`core`) builds on
it. Speeds and accelerations are SI (m/s, m/s^2). Operating-mode thresholds
are defined in mph per the MOVES convention and applied as m/s thresholds
derived from them once, at import.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import CycleError, IncompleteTable, InvalidSample, NegativeSpeed, UnknownSourceType

# Exact statute conversion; all mph thresholds below are converted with it.
MPS_PER_MPH = 0.44704

# The highest accepted speed, checked once where speeds enter a cycle or a
# session; it keeps every VSP term, distance and total finite.
MAX_SPEED_MPS = 100.0

# Operating-mode decision constants (mph domain, MOVES convention).
# Braking wins over idle; bins are lower-inclusive, upper-exclusive.
IDLE_MAX_MPH = 1.0
LOW_SPEED_MAX_MPH = 25.0
MID_SPEED_MAX_MPH = 50.0
BRAKE_DECEL_MPHPS = -2.0          # instantaneous trigger: a <= -2 mph/s
BRAKE_SOFT_DECEL_MPHPS = -1.0     # 3-consecutive-second trigger: a < -1 mph/s
BRAKE_SOFT_RUN_S = 3

SECONDS_PER_HOUR = 3600.0


class SourceType(enum.Enum):
    """Supported MOVES source use types (gasoline, running exhaust)."""

    LDV = "LDV"   # light-duty vehicle (passenger car)
    LDT = "LDT"   # light-duty truck (passenger truck / SUV)

    # Members are singletons compared by identity, so the C-level identity
    # hash keys every dict alike, without `Enum.__hash__`'s Python call.
    __hash__ = object.__hash__

    @property
    def code(self) -> int:
        """Numeric selector used by the CLI: 1 = LDV, 2 = LDT."""
        return 1 if self is SourceType.LDV else 2

    @classmethod
    def from_code(cls, code: int) -> "SourceType":
        # True and False compare equal to 1 and 0 but name no vehicle.
        if isinstance(code, bool):
            raise UnknownSourceType(code)
        if code == 1:
            return cls.LDV
        if code == 2:
            return cls.LDT
        raise UnknownSourceType(code)

    @classmethod
    def from_token(cls, token: str) -> "SourceType":
        try:
            return cls(token.strip().upper())
        except ValueError:
            raise UnknownSourceType(token) from None


class OpMode(enum.IntEnum):
    """Discrete operating modes for running exhaust.

    Mode 0 is deceleration/braking and mode 1 is idle; neither needs VSP.
    Modes 11 and 21 are coasting (VSP < 0) in the low and mid speed classes.
    The remaining ids are cruise/acceleration cells keyed on speed class and
    VSP class. The high-speed class has no dedicated coasting id; negative
    VSP above 50 mph falls into mode 33.
    """

    BRAKING = 0
    IDLE = 1
    LOW_COAST = 11
    LOW_VSP_0_3 = 12
    LOW_VSP_3_6 = 13
    LOW_VSP_6_9 = 14
    LOW_VSP_9_12 = 15
    LOW_VSP_12_UP = 16
    MID_COAST = 21
    MID_VSP_0_3 = 22
    MID_VSP_3_6 = 23
    MID_VSP_6_9 = 24
    MID_VSP_9_12 = 25
    MID_VSP_12_18 = 27
    MID_VSP_18_24 = 28
    MID_VSP_24_30 = 29
    MID_VSP_30_UP = 30
    HIGH_VSP_LT_6 = 33
    HIGH_VSP_6_12 = 35
    HIGH_VSP_12_18 = 37
    HIGH_VSP_18_24 = 38
    HIGH_VSP_24_30 = 39
    HIGH_VSP_30_UP = 40


VALID_OPMODE_IDS: tuple[int, ...] = tuple(int(m) for m in OpMode)
# The braking id as a plain int, for the kernel's mask fill and a session's rows.
_BRAKING = int(OpMode.BRAKING)

# The operating mode of each cell of the speed-class x VSP-bin grid. Rows are
# the speed classes idle, low, mid and high (mph); columns are the VSP bins
# (kW/t). Both axes are lower-inclusive and upper-exclusive: each edge belongs
# to the class or bin above it.
_SPEED_CLASS_EDGES_MPH = (IDLE_MAX_MPH, LOW_SPEED_MAX_MPH, MID_SPEED_MAX_MPH)
_VSP_BIN_EDGES = (0.0, 3.0, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0)
# Plain int ids, each checked through OpMode: tuple indexing and array
# appends take CPython's fast path for exact ints.
_MODE_GRID = tuple(tuple(int(OpMode(m)) for m in row) for row in (
    (1, 1, 1, 1, 1, 1, 1, 1, 1),
    (11, 12, 13, 14, 15, 16, 16, 16, 16),
    (21, 22, 23, 24, 25, 27, 28, 29, 30),
    (33, 33, 33, 35, 35, 37, 38, 39, 40),
))


def _least_mps(mph: float) -> float:
    """The smallest double x with x / MPS_PER_MPH >= mph.

    Division by a positive constant is correctly rounded, hence monotone, so
    for every double x (NaN and infinities included) `x / MPS_PER_MPH >= mph`
    is `x >= _least_mps(mph)`: comparing with it decides as the division does.
    """
    x = mph * MPS_PER_MPH
    while x / MPS_PER_MPH < mph:
        x = math.nextafter(x, math.inf)
    while math.nextafter(x, -math.inf) / MPS_PER_MPH >= mph:
        x = math.nextafter(x, -math.inf)
    return x


# The mph thresholds as exact m/s ones. A speed is in the class above an edge
# iff v >= its m/s edge; a second is a soft deceleration iff a < _SOFT_DECEL_MPS2
# and hard braking iff a <= _HARD_DECEL_MPS2, the largest x with
# x / MPS_PER_MPH <= BRAKE_DECEL_MPHPS (the double before the least x whose
# quotient is over it).
_SPEED_CLASS_EDGES_MPS = tuple(map(_least_mps, _SPEED_CLASS_EDGES_MPH))
_SOFT_DECEL_MPS2 = _least_mps(BRAKE_SOFT_DECEL_MPHPS)
_HARD_DECEL_MPS2 = math.nextafter(
    _least_mps(math.nextafter(BRAKE_DECEL_MPHPS, math.inf)), -math.inf)


class _DataclassFields:
    """`__dataclass_fields__` of a named-tuple record, built on first read.

    The public records were frozen dataclasses until version 0.4.0. With this
    attribute `dataclasses.replace`, `fields`, `asdict` and `is_dataclass`
    still accept them, and `dataclasses` is imported only when one of those
    asks, never at import."""

    def __init__(self):
        self._fields = None

    def __get__(self, obj, owner):
        if self._fields is None:
            from dataclasses import make_dataclass
            mirror = make_dataclass(owner.__name__,
                                    [(n, owner.__annotations__[n]) for n in owner._fields])
            self._fields = mirror.__dataclass_fields__
        return self._fields


class VehicleParams(NamedTuple):
    """Road-load coefficients and masses for one source type.

    A is the rolling term (kW*s/m), B the rotating term (kW*s^2/m^2),
    C the drag term (kW*s^3/m^3); M is source mass and f the fixed mass
    factor, both in metric tons.
    """

    source_type: SourceType
    A: float
    B: float
    C: float
    M: float
    f: float

    __dataclass_fields__ = _DataclassFields()


class EmissionVector(NamedTuple):
    """One value per output species. Also used for per-hour base rates.

    `energy` is the fuel/energy channel; its unit comes from the rate table
    metadata (grams of fuel per hour in the shipped tables). The pollutant
    channels are grams (per hour for rates, absolute for totals).
    """

    energy: float
    co: float
    hc: float
    nox: float
    co2: float

    __dataclass_fields__ = _DataclassFields()

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        """The values as a plain tuple (the record itself is one)."""
        return tuple(self)


SPECIES_NAMES = ("energy", "CO", "HC", "NOx", "CO2")


class ModeRows(NamedTuple):
    """Per-second emission mass of each mode id `m` of one source type: the
    session step result `pairs[m]`, `(OpMode(m), vector)`, and the flat step
    result `results[m]`, `(0, m, *vector)` with status 0 (OK). An
    id that is not an operating mode has None in both. `grid[i][j]` is
    `results[_MODE_GRID[i][j]]`, the very tuple, so a session step finds its
    result with two indexes."""

    pairs: tuple[tuple[OpMode, EmissionVector] | None, ...]
    results: tuple[tuple[int, int, float, float, float, float, float] | None, ...]
    grid: tuple[tuple[tuple[int, int, float, float, float, float, float], ...], ...]


class RateTable:
    """Base emission/energy rates per (source type, operating mode), per hour.

    Complete by construction: building one without an entry for every
    (source type, operating mode) pair raises IncompleteTable, listing the
    missing pairs in source type then mode order, so every mode a cycle or
    session can reach has a row. Read-only once built, and equal to another
    table with equal `entries` and `units`. It keeps copies of the mappings
    it is given, so a caller's later change to them cannot reach it. The
    rows derived from it are built once, on first use."""

    entries: Mapping[tuple[SourceType, int], EmissionVector]
    units: Mapping[str, str]

    def __init__(self, entries: Mapping[tuple[SourceType, int], EmissionVector],
                 units: Mapping[str, str]):
        missing = [(st.value, mode) for st in SourceType for mode in VALID_OPMODE_IDS
                   if (st, mode) not in entries]
        if missing:
            raise IncompleteTable(missing)
        # `cached_property` stores into `__dict__` directly, as this does.
        self.__dict__.update(entries=dict(entries), units=dict(units))

    def __setattr__(self, name, value):
        raise AttributeError(f"RateTable is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RateTable is read-only: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.units) == (other.entries, other.units)

    def __repr__(self) -> str:
        return f"RateTable(entries={self.entries!r}, units={self.units!r})"

    @cached_property
    def per_second(self) -> dict[SourceType, ModeRows]:
        """Per-second rows of each source type, built once per table."""
        out = {}
        for st in SourceType:
            vectors = [per_second_emissions(self.entries[(st, m)]) if m in VALID_OPMODE_IDS
                       else None for m in range(max(VALID_OPMODE_IDS) + 1)]
            pairs = tuple(None if v is None else (OpMode(m), v) for m, v in enumerate(vectors))
            results = tuple(None if v is None else (0, m) + v
                            for m, v in enumerate(vectors))
            grid = tuple(tuple(results[m] for m in row) for row in _MODE_GRID)
            out[st] = ModeRows(pairs, results, grid)
        return out

    @cached_property
    def grams(self) -> dict:
        """Each source type's per-second rows as a read-only (ids x 5) float64
        array for the batch kernel's gather: row `m` is `results[m][2:]`, NaN
        for an id that is not an operating mode. Built once per table, on the
        kernel's first use; the one place a table loads numpy."""
        import numpy as np

        out = {}
        for st, rows in self.per_second.items():
            grams = np.array([(math.nan,) * 5 if r is None else r[2:] for r in rows.results])
            grams.setflags(write=False)
            out[st] = grams
        return out


def _speed_error(speed: float, at: str, unit: str = "") -> CycleError:
    """The error for the first `speed` outside [0, MAX_SPEED_MPS] of a cycle, a
    session or a raw trace, named where `at` says ("second 3"): negative, else
    non-finite, else over the limit, with a trace's `unit` after the value."""
    speed = float(speed)
    if speed < 0.0:
        return NegativeSpeed(speed, at=at)
    if not math.isfinite(speed):
        return InvalidSample(f"non-finite speed {speed!r} at {at}")
    value = f"{speed!r} {unit}" if unit else repr(speed)
    return InvalidSample(f"speed {value} at {at} is over the {MAX_SPEED_MPS!r} m/s limit")


def specific_power(params: VehicleParams, v, a):
    """Vehicle specific power in kW per metric ton on a flat road, on floats
    or arrays alike; callers check the inputs.

    VSP = (A*v + B*v^2 + C*v^3 + M*a*v) / f

    The operations are `(A*v + B*v*v + C*v*v*v + M*a*v) / f`'s, in its order,
    so a float and an array element round alike. The augmented steps work in
    place only on the arrays this function makes (`A * v`, `B * v`, ...); on
    floats they rebind names. `v`, `a` and the coefficients, which may be 0-d
    arrays (the kernel's), are never written.
    """
    vsp = params.A * v
    term = params.B * v
    term *= v
    vsp += term
    term = params.C * v
    term *= v
    term *= v
    vsp += term
    term = params.M * a
    term *= v
    vsp += term
    vsp /= params.f
    return vsp


def is_soft_decel(a_mps2):
    """Whether a(t), float or array, is a soft deceleration, a / MPS_PER_MPH <
    BRAKE_SOFT_DECEL_MPHPS; BRAKE_SOFT_RUN_S of them in a row brake (the array
    kernel finds the runs in a cycle's accelerations, a session counts them)."""
    return a_mps2 < _SOFT_DECEL_MPS2


def per_second_emissions(rate_per_hour: EmissionVector) -> EmissionVector:
    """Convert a per-hour base rate into a per-second emission mass."""
    return EmissionVector(*(x / SECONDS_PER_HOUR for x in rate_per_hour))


def per_km(totals: EmissionVector, distance_m: float) -> EmissionVector | None:
    """Emission factors, `totals` per km, or None when the distance in km is zero."""
    km = distance_m / 1000.0
    if km == 0.0:
        return None
    return EmissionVector(totals.energy / km, totals.co / km, totals.hc / km,
                          totals.nox / km, totals.co2 / km)


def mph_to_mps(v: float) -> float:
    return v * MPS_PER_MPH


def kmh_to_mps(v: float) -> float:
    return v / 3.6


def _number(cell: str, kind=float):
    """`kind(cell)` in the grammar of `np.loadtxt`, which trace and table
    cells share: without the digit-group underscores and non-ASCII digits
    that `float()` and `int()` accept."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return kind(cell)


# Each speed unit a trace may declare, and its conversion to m/s (floats or arrays).
_TO_MPS = {"m/s": lambda v: v, "mph": mph_to_mps, "km/h": kmh_to_mps}
SUPPORTED_UNITS = tuple(_TO_MPS)


__all__ = [
    "MPS_PER_MPH", "MAX_SPEED_MPS", "SECONDS_PER_HOUR",
    "IDLE_MAX_MPH", "LOW_SPEED_MAX_MPH", "MID_SPEED_MAX_MPH",
    "BRAKE_DECEL_MPHPS", "BRAKE_SOFT_DECEL_MPHPS", "BRAKE_SOFT_RUN_S",
    "SourceType", "OpMode", "VALID_OPMODE_IDS", "SPECIES_NAMES",
    "VehicleParams", "EmissionVector", "RateTable", "ModeRows",
    "specific_power", "is_soft_decel", "per_second_emissions",
    "per_km", "mph_to_mps", "kmh_to_mps", "SUPPORTED_UNITS",
]
