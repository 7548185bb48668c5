"""Flat, C-style session surface for host-simulator bindings.

Everything crosses this boundary as plain numbers and status codes: no
exceptions, no callbacks, no objects. Hosts hold an integer handle per
vehicle; independent handles share one immutable table set.

Status codes:
    0  OK
    1  bad input (negative, non-finite or non-number speed, empty session)
    2  table problem (unknown vehicle code, unloadable tables)
    3  bad handle
"""

from __future__ import annotations

import threading

from .core import per_km
from .errors import CycleError, TableError
from .session import EmissionSession, session_create
from .tables import TableSet, load_tables_from_dir, resolve_tables_dir

OK = 0
ERR_INPUT = 1
ERR_TABLES = 2
ERR_HANDLE = 3

_lock = threading.Lock()
_sessions: dict[int, EmissionSession] = {}
_next_handle = 1
_shared_tables: TableSet | None = None
_destroyed_steps = 0                # steps of the sessions `destroy` released
_errors = [0, 0, 0, 0]              # non-OK results, by status code


def _tables(tables_dir: str | None) -> TableSet:
    global _shared_tables
    if tables_dir is not None:
        return load_tables_from_dir(tables_dir)
    if _shared_tables is None:
        _shared_tables = load_tables_from_dir(resolve_tables_dir())
    return _shared_tables


def _error(status: int) -> int:
    """Count one non-OK result for `stats` and return its status."""
    with _lock:
        _errors[status] += 1
    return status


def create(veh_type: int, tables_dir: str | None = None) -> tuple[int, int]:
    """Open a session. Returns (status, handle); handle is 0 on error."""
    global _next_handle
    try:
        tables = _tables(tables_dir)
        session = session_create(veh_type, tables)
    except TableError:
        return _error(ERR_TABLES), 0
    with _lock:
        handle = _next_handle
        _next_handle += 1
        _sessions[handle] = session
    return OK, handle


def step(handle: int, speed_mps: float) -> tuple[int, int, float, float, float, float, float]:
    """Advance one second. Returns (status, opmode, energy, CO, HC, NOx, CO2).

    The OK result is the table's own tuple for the mode (`ModeRows.results`,
    whose status 0 is OK), shared by every session and step."""
    session = _sessions.get(handle)
    if session is None:
        return _error(ERR_HANDLE), -1, 0.0, 0.0, 0.0, 0.0, 0.0
    try:
        return session._rows.results[session._advance(speed_mps)]
    except (CycleError, TypeError, ValueError, OverflowError):
        # A non-number speed fails the range test or `float()` before any
        # state changes: TypeError (str, None, list, complex), ValueError (an
        # array of several values), OverflowError (an int past float range).
        return _error(ERR_INPUT), -1, 0.0, 0.0, 0.0, 0.0, 0.0


def totals(handle: int) -> tuple[int, float, float, float, float, float, float]:
    """Running totals so far. Returns (status, distance_m, energy..CO2)."""
    session = _sessions.get(handle)
    if session is None:
        return _error(ERR_HANDLE), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    return (OK, session.distance_m) + session.running_totals.as_tuple()


def finalize(handle: int) -> tuple[int, float, int, float, float, float, float, float,
                                   float, float, float, float, float]:
    """Close out a session (handle stays valid until destroy).

    Returns (status, distance_m, ef_defined,
             ER energy..CO2, EF energy..CO2 per km; EF zeros when undefined).
    The answer comes from the session's running totals, the same in-order
    sums that `EmissionSession.finalize` would rebuild from every second.
    """
    session = _sessions.get(handle)
    if session is None:
        return (_error(ERR_HANDLE), 0.0, 0) + (0.0,) * 10
    if session.step_count == 0:
        return (_error(ERR_INPUT), 0.0, 0) + (0.0,) * 10
    totals = session.running_totals
    ef = per_km(totals, session.distance_m)
    return (OK, session.distance_m, int(ef is not None)) + totals.as_tuple() \
        + (ef.as_tuple() if ef is not None else (0.0,) * 5)


def destroy(handle: int) -> int:
    """Release a handle. Idempotent; unknown handles report ERR_HANDLE."""
    global _destroyed_steps
    with _lock:
        session = _sessions.pop(handle, None)
        if session is not None:
            _destroyed_steps += session.step_count
            return OK
    return _error(ERR_HANDLE)


def stats() -> tuple[int, int, int, int, int]:
    """Live counters of this process's handles.

    Returns (live handles, steps, ERR_INPUT results, ERR_TABLES results,
    ERR_HANDLE results). Steps are those of the live sessions and of every
    destroyed one; the counts of non-OK results cover every function here.
    """
    with _lock:
        steps = _destroyed_steps + sum(s.step_count for s in _sessions.values())
        return (len(_sessions), steps) + tuple(_errors[ERR_INPUT:])


def reset_shared_tables() -> None:
    """Drop the cached default table set (test hook)."""
    global _shared_tables
    _shared_tables = None


__all__ = ["OK", "ERR_INPUT", "ERR_TABLES", "ERR_HANDLE",
           "create", "step", "totals", "finalize", "destroy", "stats", "reset_shared_tables"]
