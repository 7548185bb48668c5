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

import math
from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING

from .errors import EmptySession, InvalidSample, NegativeSpeed, UnknownSourceType
from .model import (
    _HARD_DECEL_MPS2,
    _MODE_GRID,
    _SOFT_DECEL_MPS2,
    _SPEED_CLASS_EDGES_MPS,
    _VSP_BIN_EDGES,
    BRAKE_SOFT_RUN_S,
    MAX_SPEED_MPS,
    EmissionVector,
    ModeRows,
    OpMode,
    RateTable,
    SourceType,
    VehicleParams,
    _over_speed_limit,
)
from .tables import TableSet

if TYPE_CHECKING:
    from .core import CycleResult

# A second is braking by the soft rule when it and the run of soft
# decelerations before it make BRAKE_SOFT_RUN_S seconds.
_SOFT_HISTORY_RUN = BRAKE_SOFT_RUN_S - 1
_BRAKING = int(OpMode.BRAKING)


class EmissionSession:
    """Incremental pipeline state for one simulated vehicle.

    Built from `params` and `rates` alone; the running state starts empty.
    Building it raises IncompleteTable if `rates` lacks an operating mode.
    Stepped through its API, a session always records: `step` keeps each
    second's mode, one byte, for `finalize`. `flatapi` steps keep none."""

    __slots__ = ("params", "rates", "prev_speed", "distance_m", "_totals", "_soft_run",
                 "_steps", "_modes", "_rows", "_coefficients")

    def __init__(self, params: VehicleParams, rates: RateTable):
        self.params = params
        self.rates = rates
        self._rows = rates.per_second[params.source_type]
        self._coefficients = (params.A, params.B, params.C, params.M, params.f)
        self.prev_speed = None
        # Sums start at -0.0 (-0.0 + x == x for every x), as the batch path's do.
        self.distance_m = -0.0
        self._totals = (-0.0,) * 5
        self._soft_run = 0          # trailing seconds of soft deceleration
        self._steps = 0
        self._modes = array("b")    # each second's mode, recorded by `step`

    @property
    def step_count(self) -> int:
        """Seconds stepped so far."""
        return self._steps

    @property
    def running_totals(self) -> EmissionVector:
        return EmissionVector(*self._totals)

    def step(self, speed_mps: float) -> tuple[OpMode, EmissionVector]:
        """Advance one second; returns (mode, per-second emissions).

        The caller contract is a fixed 1 s cadence; the session does not
        resample. On an error the session is left unchanged.
        """
        mode = self._advance(speed_mps)[1]
        self._modes.append(mode)
        return self._rows.pairs[mode]

    def _advance(self, speed_mps: float) -> tuple[int, int, float, float, float, float, float]:
        """One second of `step` in straight-line code; returns the table's flat
        result for the mode, `ModeRows.results[mode]`.

        The decision is `classify_opmode_array`'s for one second: the
        braking rules, then the cell of the shared mode grid, each mph
        threshold compared as its exact m/s threshold. VSP keeps
        `specific_power`'s operation order, so the mode is bit for bit the
        batch kernel's. No mode is recorded, and state changes only after the
        last check has passed."""
        if not 0.0 <= speed_mps <= MAX_SPEED_MPS:
            if speed_mps < 0.0:
                raise NegativeSpeed(speed_mps)
            if not math.isfinite(speed_mps):
                raise InvalidSample(f"non-finite speed {speed_mps!r}")
            raise _over_speed_limit(float(speed_mps), self._steps)
        v = float(speed_mps)
        prev = self.prev_speed
        a = 0.0 if prev is None else v - prev
        soft = a < _SOFT_DECEL_MPS2
        if a <= _HARD_DECEL_MPS2 or (soft and self._soft_run >= _SOFT_HISTORY_RUN):
            mode = _BRAKING
        else:
            A, B, C, M, f = self._coefficients
            vsp = (A * v + B * v * v + C * v * v * v + M * a * v) / f
            mode = _MODE_GRID[bisect_right(_SPEED_CLASS_EDGES_MPS, v)][
                bisect_right(_VSP_BIN_EDGES, vsp)]
        result = self._rows.results[mode]
        _, _, e, co, hc, nox, co2 = result
        t0, t1, t2, t3, t4 = self._totals
        self._totals = (t0 + e, t1 + co, t2 + hc, t3 + nox, t4 + co2)
        self._steps += 1
        self._soft_run = self._soft_run + 1 if soft else 0
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
