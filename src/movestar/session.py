"""Per-timestep emission sessions for embedding in host simulators.

A session consumes one speed sample per call at a fixed 1 s cadence and
returns that second's operating mode and emission mass. It shares the batch
kernel's thresholds, mode grid, per-mode rows and result assembler, and
evaluates the VSP formula in `specific_power`'s operation order, so a session
replaying a cycle reproduces `aggregate_cycle` bit for bit.

Each session is single-caller; independent sessions can run concurrently
against one shared TableSet, which is immutable after load.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _MODE_GRID,
    _SPEED_CLASS_EDGES_MPH,
    _VSP_BIN_EDGES,
    BRAKE_DECEL_MPHPS,
    BRAKE_SOFT_DECEL_MPHPS,
    BRAKE_SOFT_RUN_S,
    MPS_PER_MPH,
    CycleResult,
    EmissionVector,
    ModeRows,
    OpMode,
    RateTable,
    SourceType,
    VehicleParams,
    assemble_result,
)
from .errors import EmptySession, InvalidSample, NegativeSpeed, UnknownSourceType
from .tables import TableSet

# A second is braking by the soft rule when it and the run of soft
# decelerations before it make BRAKE_SOFT_RUN_S seconds.
_SOFT_HISTORY_RUN = BRAKE_SOFT_RUN_S - 1


@dataclass(slots=True)
class EmissionSession:
    """Incremental pipeline state for one simulated vehicle; one byte per step.

    Built from `params` and `rates` alone; the running state starts empty.
    Building it raises IncompleteTable if `rates` lacks an operating mode."""

    params: VehicleParams
    rates: RateTable
    prev_speed: float | None = field(init=False, default=None)
    # Sums start at -0.0 (-0.0 + x == x for every x), as the batch path's do.
    distance_m: float = field(init=False, default=-0.0)
    _totals: list[float] = field(init=False, default_factory=lambda: [-0.0] * 5)
    _soft_run: int = field(init=False, default=0)   # trailing seconds of soft deceleration
    _modes: array = field(init=False, default_factory=lambda: array("b"))
    _rows: ModeRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows = self.rates.per_second[self.params.source_type]

    @property
    def step_count(self) -> int:
        """Seconds stepped so far."""
        return len(self._modes)

    @property
    def running_totals(self) -> EmissionVector:
        return EmissionVector(*self._totals)

    def step(self, speed_mps: float) -> tuple[OpMode, EmissionVector]:
        """Advance one second; returns (mode, per-second emissions).

        The caller contract is a fixed 1 s cadence; the session does not
        resample. On an error the session is left unchanged.
        """
        mode = self._advance(speed_mps)
        return mode, self._rows.vectors[mode]

    def _advance(self, speed_mps: float) -> OpMode:
        """One second of `step` in straight-line code; returns the mode.

        The decision is `opmode_of(v, a, specific_power(params, v, a),
        soft_history)` with `a / MPS_PER_MPH` computed once; VSP keeps
        `specific_power`'s operation order, its zero-grade term being 0.0,
        so the result is bit for bit the same. State changes only after the
        last check has passed."""
        if not 0.0 <= speed_mps < math.inf:
            if speed_mps < 0.0:
                raise NegativeSpeed(speed_mps)
            raise InvalidSample(f"non-finite speed {speed_mps!r}")
        v = float(speed_mps)
        prev = self.prev_speed
        a = 0.0 if prev is None else v - prev
        a_mphps = a / MPS_PER_MPH
        soft = a_mphps < BRAKE_SOFT_DECEL_MPHPS
        if a_mphps <= BRAKE_DECEL_MPHPS or (soft and self._soft_run >= _SOFT_HISTORY_RUN):
            mode = OpMode.BRAKING
        else:
            p = self.params
            vsp = (p.A * v + p.B * v * v + p.C * v * v * v + p.M * (a + 0.0) * v) / p.f
            mode = _MODE_GRID[bisect_right(_SPEED_CLASS_EDGES_MPH, v / MPS_PER_MPH)][
                bisect_right(_VSP_BIN_EDGES, vsp)]
        e, co, hc, nox, co2 = self._rows.sums[mode]
        t = self._totals
        t[0] += e
        t[1] += co
        t[2] += hc
        t[3] += nox
        t[4] += co2
        self._modes.append(mode)
        self._soft_run = self._soft_run + 1 if soft else 0
        self.distance_m += v
        self.prev_speed = v
        return mode

    def finalize(self) -> CycleResult:
        """Close the session and return the same result shape as the batch path."""
        if self.step_count == 0:
            raise EmptySession("finalize called before any step")
        return assemble_result(np.array(self._modes, dtype=np.int64), self._rows,
                               self.distance_m)


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
