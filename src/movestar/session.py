"""Per-timestep emission sessions for embedding in host simulators.

A session consumes one speed sample per call at a fixed 1 s cadence and
returns that second's operating mode and emission mass. It runs on the scalar
model (`model`): the batch kernel's thresholds, mode grid and per-mode rows,
with the VSP formula in `specific_power`'s operation order, so a session
replaying a cycle reproduces `aggregate_cycle` bit for bit. Only `finalize`,
which returns arrays, loads numpy and the kernel's result assembler.

Each session is single-caller; independent sessions can run concurrently
against one shared TableSet, which is immutable after load.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from numbers import Complex, Real
from typing import TYPE_CHECKING

from .errors import EmptySession, UnknownSourceType
from .model import (
    _BRAKING,
    _HARD_DECEL_MPS2,
    _SOFT_DECEL_MPS2,
    _SPEED_CLASS_EDGES_MPS,
    _VSP_BIN_EDGES,
    BRAKE_SOFT_RUN_S,
    MAX_SPEED_MPS,
    EmissionVector,
    OpMode,
    RateTable,
    SourceType,
    VehicleParams,
    _speed_error,
)
from .tables import TableSet

if TYPE_CHECKING:
    from .core import CycleResult

# The speed-class edges, compared one by one in `_advance`: a speed's class
# is the number of edges at or below it, as `bisect_right` counts them.
_IDLE_MAX, _LOW_MAX, _MID_MAX = _SPEED_CLASS_EDGES_MPS


class EmissionSession:
    """Incremental pipeline state for one simulated vehicle.

    Built from `params` and `rates` alone; the running state starts empty.
    Stepped through its API, a session always records: `step` keeps each
    second's mode, one byte, for `finalize`. `flatapi` steps keep none.

    The state a step reads and writes is flat, one slot per number: the VSP
    coefficients `_A`, `_B`, `_C`, `_M`, `_f`; the running sums `_e`, `_co`,
    `_hc`, `_nox`, `_co2` (in-order `+=` from -0.0, as the batch path sums);
    and the table's results on the mode grid (`_grid`, `ModeRows.grid`) and
    for braking (`_braking`), shared by every session of that table and
    source type."""

    __slots__ = ("params", "rates", "prev_speed", "distance_m", "_e", "_co", "_hc", "_nox",
                 "_co2", "_soft_run", "_steps", "_modes", "_pairs", "_grid", "_braking",
                 "_A", "_B", "_C", "_M", "_f")

    def __init__(self, params: VehicleParams, rates: RateTable):
        self.params = params
        self.rates = rates
        st = params.source_type
        rows = rates.per_second[st]
        self._pairs, self._grid, self._braking = rows.pairs, rows.grid, rows.results[_BRAKING]
        self._A, self._B, self._C, self._M, self._f = params[1:]
        self.prev_speed = None
        # Sums start at -0.0 (-0.0 + x == x for every x), as the batch path's do.
        self.distance_m = self._e = self._co = self._hc = self._nox = self._co2 = -0.0
        self._soft_run = 0          # trailing seconds of soft deceleration
        self._steps = 0
        self._modes = array("b")    # each second's mode, recorded by `step`

    @property
    def step_count(self) -> int:
        """Seconds stepped so far."""
        return self._steps

    @property
    def running_totals(self) -> EmissionVector:
        return EmissionVector(self._e, self._co, self._hc, self._nox, self._co2)

    def step(self, speed_mps: float) -> tuple[OpMode, EmissionVector]:
        """Advance one second; returns (mode, per-second emissions).

        The caller contract is a fixed 1 s cadence; the session does not
        resample. On an error the session is left unchanged.
        """
        mode = self._advance(speed_mps)[1]
        self._modes.append(mode)
        return self._pairs[mode]

    def _advance(self, speed_mps: float) -> tuple[int, int, float, float, float, float, float]:
        """One second of `step` in straight-line code; returns the table's flat
        result for the mode, `ModeRows.results[mode]`.

        The decision is `classify_opmode_array`'s for the newest second, with
        the soft-braking run counted in `_soft_run`: braking is one test, a
        soft deceleration that is hard or ends a run of BRAKE_SOFT_RUN_S (a
        hard deceleration is a soft one too); else the cell of the shared mode
        grid, each mph threshold compared as its exact m/s threshold. VSP keeps
        `specific_power`'s operation order, so the mode is bit for bit the batch
        kernel's. No mode is recorded, and state changes only after the last
        check has passed."""
        # numpy's complex values pass the range test and `float()` with only a
        # warning; every other non-number fails one of them.
        if (type(speed_mps) is not float and isinstance(speed_mps, Complex)
                and not isinstance(speed_mps, Real)):
            raise TypeError(f"speed {speed_mps!r} at second {self._steps} is not a number")
        if not 0.0 <= speed_mps <= MAX_SPEED_MPS:
            raise _speed_error(speed_mps, f"second {self._steps}")
        v = float(speed_mps)
        prev = self.prev_speed
        a = 0.0 if prev is None else v - prev
        run = self._soft_run + 1 if a < _SOFT_DECEL_MPS2 else 0
        if run and (a <= _HARD_DECEL_MPS2 or run >= BRAKE_SOFT_RUN_S):
            result = self._braking
        else:
            vsp = (self._A * v + self._B * v * v + self._C * v * v * v
                   + self._M * a * v) / self._f
            speed_class = 0 if v < _IDLE_MAX else 1 if v < _LOW_MAX else 2 if v < _MID_MAX else 3
            result = self._grid[speed_class][bisect_right(_VSP_BIN_EDGES, vsp)]
        _, _, e, co, hc, nox, co2 = result
        self._e += e
        self._co += co
        self._hc += hc
        self._nox += nox
        self._co2 += co2
        self._steps += 1
        self._soft_run = run
        self.distance_m += v
        self.prev_speed = v
        return result

    def finalize(self) -> CycleResult:
        """Close the session and return the same result shape as the batch path.

        The one session method that returns arrays: it imports the kernel."""
        if self.step_count == 0:
            raise EmptySession("finalize called before any step")
        import numpy as np

        from .core import assemble_result
        return assemble_result(np.array(self._modes, dtype=np.int64),
                               self.rates.grams[self.params.source_type], self.distance_m)


def session_create(source_type: SourceType | int | str, tables: TableSet) -> EmissionSession:
    """Create a fresh session bound to one source type of a loaded table set."""
    if isinstance(source_type, SourceType):
        st = source_type
    elif isinstance(source_type, int):
        st = SourceType.from_code(source_type)
    elif isinstance(source_type, str):
        st = SourceType.from_token(source_type)
    else:
        raise UnknownSourceType(source_type)
    return EmissionSession(params=tables.params_for(st), rates=tables.rates)


def session_step(session: EmissionSession, speed_mps: float) -> tuple[OpMode, EmissionVector]:
    return session.step(speed_mps)


def session_finalize(session: EmissionSession) -> CycleResult:
    return session.finalize()


__all__ = ["EmissionSession", "session_create", "session_step", "session_finalize"]
