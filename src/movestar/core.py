"""The array kernel: a whole `DriveCycle` classified and summed with numpy.

The pipeline turns a 1 Hz speed trace into per-second operating modes and
emission mass flows:

    speed -> acceleration -> VSP -> operating mode -> base rate -> g/s

`aggregate_cycle` runs it as array operations over a whole `DriveCycle`;
`session.EmissionSession` runs the same decision one second at a time on the
scalar model (`model`), whose names this module re-exports. VSP is
MOVESTAR's flat-road formula. No I/O; speeds and accelerations are SI (m/s,
m/s^2). `aggregate_cycle` may return one result to two calls (see its
docstring): `DriveCycle`, `CycleResult`, `VehicleParams` and `RateTable` are
read-only once built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import model
from .errors import EmptyCycle, InvalidSample
# The scalar model, republished: every name in `model.__all__` is also
# `core.<name>`. The private thresholds and grid are the ones the kernel reads.
from .model import *  # noqa: F403
from .model import (_BRAKING, _HARD_DECEL_MPS2, _MODE_GRID, _SOFT_DECEL_MPS2,
                    _SPEED_CLASS_EDGES_MPS, _VSP_BIN_EDGES, _speed_error)

_MODE_GRID_IDS = np.array(_MODE_GRID, dtype=np.int64)
# The edges as arrays for ndarray.searchsorted, called as a method: np.searchsorted
# adds a Python wrapper per call, and a tuple would be converted per call.
_SPEED_CLASS_EDGES_ARRAY = np.array(_SPEED_CLASS_EDGES_MPS)
_VSP_BIN_EDGES_ARRAY = np.array(_VSP_BIN_EDGES)
# `_float_array` compares a dtype with it by `is`: a float64 array that numpy
# builds has this very dtype.
_FLOAT64 = np.dtype(np.float64)
_TIME_TYPES = (np.datetime64, np.timedelta64)
_NOT_NUMBERS = (str, bytes, complex, *_TIME_TYPES)


def _constant(x: float) -> np.ndarray:
    """`x` as a read-only 0-d float64 array. numpy converts a Python float
    operand on every array operation and a 0-d array not, with the same
    values: the kernel's coefficients and thresholds are these."""
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x


_ZERO = _constant(0.0)
_MAX_SPEED_ARRAY = _constant(MAX_SPEED_MPS)
_SOFT_DECEL_ARRAY = _constant(_SOFT_DECEL_MPS2)
_HARD_DECEL_ARRAY = _constant(_HARD_DECEL_MPS2)


@dataclass(frozen=True, eq=False, init=False)
class DriveCycle:
    """A validated 1 Hz drive cycle built from its speeds: read-only speeds
    `v` (m/s, from 0 to MAX_SPEED_MPS) and their forward-difference
    accelerations `a` (m/s^2, the first zero)."""

    v: np.ndarray
    a: np.ndarray = field(init=False)

    def __init__(self, v: Sequence[float]):
        """Copy the speeds once; one mask of the speeds in [0, MAX_SPEED_MPS]
        accepts them (a NaN is in no range), and a rejected cycle names its
        first speed outside it, as a session stepping them does. A forward
        difference of speeds in range is finite, so `a` needs no test.
        Frozen: the fields are stored into `__dict__` at once, as
        `RateTable.__init__` stores its own."""
        v = _float_array(v, "speed", "second", copy=True)
        if v.ndim != 1:
            raise InvalidSample(f"speeds of shape {v.shape} are not one-dimensional")
        if v.size == 0:
            raise EmptyCycle("drive cycle has no samples")
        ok = np.greater_equal(v, _ZERO)
        ok &= np.less_equal(v, _MAX_SPEED_ARRAY)
        if np.count_nonzero(ok) != v.size:
            second = int(ok.argmin())
            raise _speed_error(v[second], f"second {second}")
        a = np.zeros(v.size)
        np.subtract(v[1:], v[:-1], out=a[1:])
        v.setflags(write=False)
        a.setflags(write=False)
        self.__dict__.update(v=v, a=a)

    @classmethod
    def from_speeds(cls, speeds: Sequence[float]) -> "DriveCycle":
        """Build a cycle from 1 Hz speeds in m/s; the same as `DriveCycle(speeds)`."""
        return cls(speeds)

    @property
    def speeds(self) -> list[float]:
        return self.v.tolist()

    def __len__(self) -> int:
        return self.v.size


@dataclass(frozen=True, eq=False, init=False)
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

    def __init__(self, modes: np.ndarray, grams: np.ndarray, totals: EmissionVector,
                 distance_m: float, ef: EmissionVector | None):
        self.__dict__.update(modes=modes, grams=grams, totals=totals, distance_m=distance_m,
                             ef=ef)

    @property
    def distance_km(self) -> float:
        return self.distance_m / 1000.0


def _float_array(values, name: str, at: str, copy: bool = False) -> np.ndarray:
    """`values` as a float64 array, a new one if `copy`. numpy would convert a
    str, bytes or None value, and a complex, datetime64 or timedelta64 one:
    like a session's step, this raises TypeError, naming the value as Python
    shows it."""
    a = np.array(values) if copy else np.asarray(values)
    if a.dtype is _FLOAT64:
        return a
    if a.dtype.kind in "OSUcmM" and a.ndim == 1:
        for i, x in enumerate(values):
            # A numpy str, bytes or complex value is shown as its Python value,
            # alike on numpy 1.x and 2.x; a time one is kept, as `item()` may
            # give an int for it.
            if isinstance(x, np.generic) and not isinstance(x, _TIME_TYPES):
                x = x.item()
            if x is None or isinstance(x, _NOT_NUMBERS):
                raise TypeError(f"{name} {x!r} at {at} {i} is not a number")
    # An equal dtype that is another object (one with metadata) is float64 too.
    return a if a.dtype == _FLOAT64 else np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def classify_opmode_array(v_mps: np.ndarray, vsp: np.ndarray, a_mps2: np.ndarray) -> np.ndarray:
    """Operating mode of each second of one cycle, given in second order:
    braking if `a_mps2` is at or under BRAKE_DECEL_MPHPS, or if it and the
    BRAKE_SOFT_RUN_S - 1 seconds before it are all soft decelerations
    (`is_soft_decel`); otherwise the speed-class / VSP-bin cell of the mode
    grid. Each mph threshold is applied as its exact m/s threshold, held as
    a 0-d array; the run is built in one array of its own."""
    soft = np.less(a_mps2, _SOFT_DECEL_ARRAY)
    braking = np.less_equal(a_mps2, _HARD_DECEL_ARRAY)
    n, run = soft.size, BRAKE_SOFT_RUN_S - 1
    if n > run:
        # second t >= run: soft[t - k] for k = 0 .. run
        tail = soft[run:] & soft[run - 1:n - 1]
        for k in range(2, run + 1):
            tail &= soft[run - k:n - k]
        braking[run:] |= tail
    speed_class = _SPEED_CLASS_EDGES_ARRAY.searchsorted(v_mps, "right")
    modes = _MODE_GRID_IDS[speed_class, _VSP_BIN_EDGES_ARRAY.searchsorted(vsp, "right")]
    modes[braking] = _BRAKING
    return modes


def assemble_result(modes: np.ndarray, grams: np.ndarray, distance_m: float) -> CycleResult:
    """Gather each second's row of `grams` (a `RateTable.grams` matrix) by
    mode, then totals and per-km factors.

    Totals, like `distance_m`, are in-order sums (`np.add.accumulate`, which
    `np.cumsum` calls); `np.sum` may add pairwise and round differently."""
    grams = grams.take(modes, axis=0)
    grams.setflags(write=False)
    modes.setflags(write=False)
    totals = EmissionVector._make(np.add.accumulate(grams, axis=0)[-1].tolist())
    return CycleResult(modes, grams, totals, distance_m, per_km(totals, distance_m))


@lru_cache(maxsize=16)
def _kernel_params(params: VehicleParams) -> VehicleParams:
    """`params` with its five coefficients as `_constant`s, which
    `specific_power` takes on a cycle's arrays with the same values as the
    floats. Keyed by value: equal records, as two loads of a table give,
    share one entry. A coefficient of -0.0 may so share 0.0's, which can flip
    only the sign of a zero VSP, and no mode."""
    return params._replace(**{name: _constant(getattr(params, name)) for name in "ABCMf"})


_last_aggregate = ()  # the last call's (weak cycle, params, rates, weak result)


def aggregate_cycle(cycle: DriveCycle, params: VehicleParams,
                    rates: RateTable) -> CycleResult:
    """Run the full pipeline over a cycle and aggregate. Distance uses the
    rectangle rule, sum(v * 1 s), consistent with per-second attribution.

    One entry is kept, holding the cycle and result weakly: a call with the
    last call's very objects (`is`) returns its result while that lives. A
    thread race costs at most a miss, as the entry is read once."""
    global _last_aggregate
    last = _last_aggregate
    if last and last[0]() is cycle and last[1] is params and last[2] is rates:
        result = last[3]()
        if result is not None:
            return result
    v, a = cycle.v, cycle.a
    modes = classify_opmode_array(v, specific_power(_kernel_params(params), v, a), a)
    result = assemble_result(modes, rates.grams[params.source_type],
                             float(np.add.accumulate(v)[-1]))
    _last_aggregate = (weakref.ref(cycle), params, rates, weakref.ref(result))
    return result


__all__ = [*model.__all__, "DriveCycle", "CycleResult", "classify_opmode_array",
           "assemble_result", "aggregate_cycle"]
