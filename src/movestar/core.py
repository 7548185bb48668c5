"""The array kernel: a whole `DriveCycle` classified and summed with numpy.

The pipeline turns a 1 Hz speed trace into per-second operating modes and
emission mass flows:

    speed -> acceleration -> VSP -> operating mode -> base rate -> g/s

`aggregate_cycle` runs it as array operations over a whole `DriveCycle`;
`session.EmissionSession` runs the same decision one second at a time on the
scalar model (`model`), whose names this module re-exports. VSP is
MOVESTAR's flat-road formula. Everything here is a pure function over
immutable inputs; no I/O. Speeds and accelerations are SI (m/s, m/s^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyCycle, InvalidSample, NegativeSpeed
# The scalar model, re-exported: every name below is also `core.<name>`.
from .model import (
    _HARD_DECEL_MPS2,
    _MODE_GRID,
    _SOFT_DECEL_MPS2,
    _SPEED_CLASS_EDGES_MPH,
    _SPEED_CLASS_EDGES_MPS,
    _VSP_BIN_EDGES,
    BRAKE_DECEL_MPHPS,
    BRAKE_SOFT_DECEL_MPHPS,
    BRAKE_SOFT_RUN_S,
    IDLE_MAX_MPH,
    LOW_SPEED_MAX_MPH,
    MAX_SPEED_MPS,
    MID_SPEED_MAX_MPH,
    MPS_PER_MPH,
    SECONDS_PER_HOUR,
    SPECIES_NAMES,
    VALID_OPMODE_IDS,
    EmissionVector,
    ModeRows,
    OpMode,
    RateTable,
    SourceType,
    VehicleParams,
    _over_speed_limit,
    is_soft_decel,
    kmh_to_mps,
    mph_to_mps,
    per_km,
    per_second_emissions,
    specific_power,
)

_MODE_GRID_IDS = np.array(_MODE_GRID, dtype=np.int64)
# The edges as arrays for ndarray.searchsorted, called as a method: np.searchsorted
# adds a Python wrapper per call, and a tuple would be converted per call.
_SPEED_CLASS_EDGES_ARRAY = np.array(_SPEED_CLASS_EDGES_MPS)
_VSP_BIN_EDGES_ARRAY = np.array(_VSP_BIN_EDGES)


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

    @property
    def speeds(self) -> list[float]:
        return self.v.tolist()

    def __len__(self) -> int:
        return self.v.size


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


def assemble_result(modes: np.ndarray, grams: np.ndarray, distance_m: float) -> CycleResult:
    """Gather each second's row of `grams` (a `RateTable.grams` matrix) by
    mode, then totals and per-km factors.

    Totals, like `distance_m`, are in-order sums (`np.add.accumulate`, which
    `np.cumsum` calls); `np.sum` may add pairwise and round differently."""
    grams = _readonly(grams.take(modes, axis=0))
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
    return assemble_result(modes, rates.grams[params.source_type],
                           float(np.add.accumulate(v)[-1]))


__all__ = [
    "MPS_PER_MPH", "MAX_SPEED_MPS", "SECONDS_PER_HOUR",
    "IDLE_MAX_MPH", "LOW_SPEED_MAX_MPH", "MID_SPEED_MAX_MPH",
    "BRAKE_DECEL_MPHPS", "BRAKE_SOFT_DECEL_MPHPS", "BRAKE_SOFT_RUN_S",
    "SourceType", "OpMode", "VALID_OPMODE_IDS", "SPECIES_NAMES",
    "VehicleParams", "EmissionVector", "RateTable",
    "DriveCycle", "CycleResult", "ModeRows",
    "specific_power", "is_soft_decel", "classify_opmode_array", "per_second_emissions",
    "per_km", "assemble_result", "aggregate_cycle", "mph_to_mps", "kmh_to_mps",
]
