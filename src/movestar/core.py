"""Pure per-second emission computation: VSP, operating modes, rate rows.

The pipeline turns a 1 Hz speed trace into per-second operating modes and
emission mass flows:

    speed -> acceleration -> VSP -> operating mode -> base rate -> g/s

`aggregate_cycle` runs it as array operations over a whole `DriveCycle`;
`session.EmissionSession` runs the same decision one second at a time. VSP is
MOVESTAR's flat-road formula. Everything here is a pure function over
immutable inputs; no I/O. Speeds and accelerations are SI (m/s, m/s^2).
Operating-mode thresholds are defined in mph per the MOVES convention and
applied as m/s thresholds derived from them once, at import.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyCycle, IncompleteTable, InvalidSample, NegativeSpeed, UnknownSourceType

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

    @property
    def code(self) -> int:
        """Numeric selector used by the CLI: 1 = LDV, 2 = LDT."""
        return 1 if self is SourceType.LDV else 2

    @classmethod
    def from_code(cls, code: int) -> "SourceType":
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
_MODE_GRID_IDS = np.array(_MODE_GRID, dtype=np.int64)


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
# The edges as arrays for ndarray.searchsorted, called as a method: np.searchsorted
# adds a Python wrapper per call, and a tuple would be converted per call.
_SPEED_CLASS_EDGES_ARRAY = np.array(_SPEED_CLASS_EDGES_MPS)
_VSP_BIN_EDGES_ARRAY = np.array(_VSP_BIN_EDGES)


@dataclass(frozen=True)
class VehicleParams:
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

    def violations(self) -> list[str]:
        out = []
        for name in ("A", "B", "C", "M", "f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                out.append(f"params[{self.source_type.value}]: {name} = {value} is not finite")
            elif name in ("M", "f") and not value > 0.0:
                out.append(f"params[{self.source_type.value}]: {name} must be > 0")
            elif not value >= 0.0:
                out.append(f"params[{self.source_type.value}]: {name} must be >= 0")
        return out


@dataclass(frozen=True)
class KinematicSample:
    """One second of vehicle state: time index, speed, acceleration."""

    t: int
    v: float            # m/s
    a: float            # m/s^2


@dataclass(frozen=True)
class EmissionVector:
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

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.energy, self.co, self.hc, self.nox, self.co2)


SPECIES_NAMES = ("energy", "CO", "HC", "NOx", "CO2")


class ModeRows(NamedTuple):
    """Per-second emission mass of each mode id `m` of one source type: row `m`
    of `grams`; the session step result `pairs[m]`, `(OpMode(m), vector)`;
    and the flat step result `results[m]`, `(0, m, *vector.as_tuple())` with
    status 0 (OK). An id that is not an operating mode has a NaN row and None
    in the others."""

    grams: np.ndarray
    pairs: tuple[tuple[OpMode, EmissionVector] | None, ...]
    results: tuple[tuple[int, int, float, float, float, float, float] | None, ...]


@dataclass(frozen=True)
class RateTable:
    """Base emission/energy rates per (source type, operating mode), per hour."""

    entries: Mapping[tuple[SourceType, int], EmissionVector]
    units: Mapping[str, str]

    def missing(self) -> list[tuple[str, int]]:
        """The (source type, operating mode) pairs without an entry, in
        source type then mode order."""
        return [(st.value, mode) for st in SourceType for mode in VALID_OPMODE_IDS
                if (st, mode) not in self.entries]

    @cached_property
    def per_second(self) -> dict[SourceType, ModeRows]:
        """Per-second rows of each source type, built once per table.

        Raises IncompleteTable if any operating mode lacks an entry, so every
        mode a cycle or session can reach has a row."""
        missing = self.missing()
        if missing:
            raise IncompleteTable(missing)
        out = {}
        for st in SourceType:
            rates = [self.entries.get((st, m)) if m in VALID_OPMODE_IDS else None
                     for m in range(max(VALID_OPMODE_IDS) + 1)]
            vectors = [None if r is None else per_second_emissions(r) for r in rates]
            pairs = tuple(None if v is None else (OpMode(m), v) for m, v in enumerate(vectors))
            sums = [None if v is None else v.as_tuple() for v in vectors]
            results = tuple(None if g is None else (0, m) + g for m, g in enumerate(sums))
            grams = np.array([(math.nan,) * 5 if g is None else g for g in sums])
            out[st] = ModeRows(_readonly(grams), pairs, results)
        return out


@dataclass(frozen=True, eq=False)
class DriveCycle:
    """A validated 1 Hz drive cycle built from its speeds: read-only speeds
    `v` (m/s, from 0 to MAX_SPEED_MPS) and their forward-difference
    accelerations `a` (m/s^2, the first zero)."""

    v: np.ndarray
    a: np.ndarray = field(init=False)

    def __post_init__(self):
        """Copy the speeds once; two reductions accept them (a NaN fails
        both), and only a rejected cycle is searched for the second to name:
        the first negative speed wins, then the first non-finite one, then
        the first over MAX_SPEED_MPS. A forward difference of speeds in range
        is finite, so `a` needs no test."""
        v = np.array(self.v, dtype=float)
        if v.ndim != 1:
            raise InvalidSample(f"speeds of shape {v.shape} are not one-dimensional")
        if v.size == 0:
            raise EmptyCycle("drive cycle has no samples")
        if not (np.minimum.reduce(v) >= 0.0 and np.maximum.reduce(v) <= MAX_SPEED_MPS):
            negative = v < 0.0
            if negative.any():
                raise NegativeSpeed(float(v[negative.argmax()]))
            finite = np.isfinite(v)
            if not finite.all():
                raise InvalidSample(f"non-finite speed or acceleration at second {finite.argmin()}")
            second = int((v > MAX_SPEED_MPS).argmax())
            raise _over_speed_limit(float(v[second]), second)
        a = np.zeros(v.size)
        np.subtract(v[1:], v[:-1], out=a[1:])
        object.__setattr__(self, "v", _readonly(v))
        object.__setattr__(self, "a", _readonly(a))

    @classmethod
    def from_speeds(cls, speeds: Sequence[float]) -> "DriveCycle":
        """Build a cycle from 1 Hz speeds in m/s; the same as `DriveCycle(speeds)`."""
        return cls(speeds)

    @cached_property
    def samples(self) -> tuple[KinematicSample, ...]:
        """The cycle as one KinematicSample per second, built on first use."""
        return tuple(KinematicSample(t=t, v=v, a=a)
                     for t, (v, a) in enumerate(zip(self.v.tolist(), self.a.tolist())))

    @property
    def speeds(self) -> list[float]:
        return self.v.tolist()

    def __len__(self) -> int:
        return self.v.size


@dataclass(frozen=True)
class SecondRecord:
    """Per-second output: time index, operating mode, emission mass (per s)."""

    t: int
    opmode: OpMode
    emissions: EmissionVector


@dataclass(frozen=True, eq=False)
class CycleResult:
    """Aggregate output of a cycle run: read-only `modes` (one id per second)
    and `grams` ((n, 5) per-second masses, SPECIES_NAMES order), totals, and
    `ef`, which is None when the distance in km is zero: undefined there, never
    NaN. A subnormal distance in metres can be zero in km."""

    modes: np.ndarray
    grams: np.ndarray
    totals: EmissionVector
    distance_m: float
    ef: EmissionVector | None

    @cached_property
    def per_second(self) -> tuple[SecondRecord, ...]:
        """The arrays as one SecondRecord per second, built on first use."""
        return tuple(SecondRecord(t=t, opmode=OpMode(m), emissions=EmissionVector(*g))
                     for t, (m, g) in enumerate(zip(self.modes.tolist(), self.grams.tolist())))

    @property
    def ef_defined(self) -> bool:
        return self.ef is not None

    @property
    def distance_km(self) -> float:
        return self.distance_m / 1000.0


def _readonly(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _over_speed_limit(speed: float, second: int) -> InvalidSample:
    """The error for a finite `speed` over MAX_SPEED_MPS at `second`."""
    return InvalidSample(
        f"speed {speed!r} at second {second} is over the {MAX_SPEED_MPS!r} m/s limit")


def specific_power(params: VehicleParams, v, a):
    """Vehicle specific power in kW per metric ton on a flat road, on floats
    or arrays alike; callers check the inputs.

    VSP = (A*v + B*v^2 + C*v^3 + M*a*v) / f
    """
    return (params.A * v
            + params.B * v * v
            + params.C * v * v * v
            + params.M * a * v) / params.f


def is_soft_decel(a_mps2):
    """Whether a(t), float or array, counts towards the consecutive-decel rule:
    a / MPS_PER_MPH < BRAKE_SOFT_DECEL_MPHPS."""
    return a_mps2 < _SOFT_DECEL_MPS2


def classify_opmode_array(v_mps: np.ndarray, vsp: np.ndarray, a_mps2: np.ndarray | float = 0.0,
                          soft_history: np.ndarray | bool = False) -> np.ndarray:
    """Operating mode of each second: braking if `a_mps2` is at or under
    BRAKE_DECEL_MPHPS, or under BRAKE_SOFT_DECEL_MPHPS where `soft_history`
    (the previous BRAKE_SOFT_RUN_S - 1 seconds were all soft decelerations,
    `is_soft_decel`); otherwise the speed-class / VSP-bin cell of the mode
    grid. Accelerations default to zero and the history to none. Each mph
    threshold is applied as its exact m/s threshold."""
    braking = np.less(a_mps2, _SOFT_DECEL_MPS2)
    braking &= soft_history
    braking |= np.less_equal(a_mps2, _HARD_DECEL_MPS2)
    speed_class = _SPEED_CLASS_EDGES_ARRAY.searchsorted(v_mps, "right")
    cells = _MODE_GRID_IDS[speed_class, _VSP_BIN_EDGES_ARRAY.searchsorted(vsp, "right")]
    return np.where(braking, int(OpMode.BRAKING), cells)


def per_second_emissions(rate_per_hour: EmissionVector) -> EmissionVector:
    """Convert a per-hour base rate into a per-second emission mass."""
    return EmissionVector(*(x / SECONDS_PER_HOUR for x in rate_per_hour.as_tuple()))


def per_km(totals: EmissionVector, distance_m: float) -> EmissionVector | None:
    """Emission factors, `totals` per km, or None when the distance in km is zero."""
    km = distance_m / 1000.0
    if km == 0.0:
        return None
    return EmissionVector(totals.energy / km, totals.co / km, totals.hc / km,
                          totals.nox / km, totals.co2 / km)


def assemble_result(modes: np.ndarray, rows: ModeRows, distance_m: float) -> CycleResult:
    """Gather each second's row by mode, then totals and per-km factors.

    Totals, like `distance_m`, are in-order sums (`np.add.accumulate`, which
    `np.cumsum` calls); `np.sum` may add pairwise and round differently."""
    grams = _readonly(rows.grams.take(modes, axis=0))
    totals = EmissionVector(*np.add.accumulate(grams, axis=0)[-1].tolist())
    return CycleResult(modes=_readonly(modes), grams=grams, totals=totals,
                       distance_m=distance_m, ef=per_km(totals, distance_m))


def aggregate_cycle(cycle: DriveCycle, params: VehicleParams,
                    rates: RateTable) -> CycleResult:
    """Run the full pipeline over a cycle and aggregate.

    A second's soft-deceleration history is the AND of the previous
    BRAKE_SOFT_RUN_S - 1 seconds' flags. Distance uses the rectangle rule,
    sum(v * 1 s), consistent with per-second attribution.
    """
    v, a = cycle.v, cycle.a
    n, run = v.size, BRAKE_SOFT_RUN_S - 1
    soft = is_soft_decel(a)
    history = np.zeros(n, dtype=bool)
    if n > run:
        tail = history[run:]      # second t >= run: soft[t - k] for k = 1 .. run
        tail[...] = soft[run - 1:n - 1]
        for k in range(2, run + 1):
            tail &= soft[run - k:n - k]
    modes = classify_opmode_array(v, specific_power(params, v, a), a, history)
    return assemble_result(modes, rates.per_second[params.source_type],
                           float(np.add.accumulate(v)[-1]))


def mph_to_mps(v: float) -> float:
    return v * MPS_PER_MPH


def kmh_to_mps(v: float) -> float:
    return v / 3.6


__all__ = [
    "MPS_PER_MPH", "MAX_SPEED_MPS", "SECONDS_PER_HOUR",
    "IDLE_MAX_MPH", "LOW_SPEED_MAX_MPH", "MID_SPEED_MAX_MPH",
    "BRAKE_DECEL_MPHPS", "BRAKE_SOFT_DECEL_MPHPS", "BRAKE_SOFT_RUN_S",
    "SourceType", "OpMode", "VALID_OPMODE_IDS", "SPECIES_NAMES",
    "VehicleParams", "KinematicSample", "EmissionVector", "RateTable",
    "DriveCycle", "SecondRecord", "CycleResult", "ModeRows",
    "specific_power", "is_soft_decel", "classify_opmode_array", "per_second_emissions",
    "per_km", "assemble_result", "aggregate_cycle", "mph_to_mps", "kmh_to_mps",
]
