"""Flat, C-style session surface for host-simulator bindings.

Everything crosses this boundary as plain numbers and status codes: no
exceptions, no callbacks, no objects. Hosts hold an integer handle per
vehicle; independent handles share one immutable table set.

Status codes:
    0  OK
    1  bad input (negative, non-finite, over-limit or non-number speed, empty
       session)
    2  table problem (unknown vehicle code, unloadable tables)
    3  bad handle (not live, or not an int: 1.0 and True never name handle 1)
"""

from __future__ import annotations

import os
import threading

from .errors import CycleError, TableError
from .model import per_km
from .session import EmissionSession, session_create
from .tables import TableSet, load_tables_from_dir, resolve_tables_dir

OK = 0
ERR_INPUT = 1
ERR_TABLES = 2
ERR_HANDLE = 3

_lock = threading.Lock()
_sessions: dict[int, EmissionSession] = {}
_next_handle = 1
_table_sets: dict[str | bytes | None, TableSet] = {}   # by absolute directory; None: the default set
_destroyed_steps = 0                # steps of the sessions `destroy` released
_errors = [0, 0, 0, 0]              # non-OK results, by status code


def _tables(tables_dir: str | None) -> TableSet:
    """The table set in `tables_dir`, or the default set for None, loaded
    once per process and directory. The load runs outside `_lock`; a load
    that raised is not kept, so the next call retries."""
    key = None if tables_dir is None else os.path.abspath(os.fspath(tables_dir))
    tables = _table_sets.get(key)
    if tables is None:
        tables = load_tables_from_dir(resolve_tables_dir() if key is None else key)
        with _lock:
            tables = _table_sets.setdefault(key, tables)
    return tables


def _error(status: int) -> int:
    """Count one non-OK result for `stats` and return its status."""
    with _lock:
        _errors[status] += 1
    return status


def create(veh_type: int, tables_dir: str | None = None) -> tuple[int, int]:
    """Open a session. Returns (status, handle); handle is 0 on error.

    Each `tables_dir`, like the default set, is read and validated on its
    first use only; later sessions share that table set."""
    global _next_handle
    try:
        tables = _tables(tables_dir)
        session = session_create(veh_type, tables)
    except (TableError, OSError, TypeError, ValueError):
        # OSError: a relative tables_dir when the working directory is gone.
        # TypeError and ValueError: a tables_dir that is not a path (123,
        # b"/x") or that no file can have (an embedded NUL).
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
    # Only an exact int names a vehicle: 1.0 and True hash and compare as 1
    # does, so any other handle looks up None, which is never a key. So in
    # `totals`, `finalize` and `destroy`.
    try:
        session = _sessions[handle if type(handle) is int else None]
    except KeyError:
        return _error(ERR_HANDLE), -1, 0.0, 0.0, 0.0, 0.0, 0.0
    try:
        return session._advance(speed_mps)
    except (CycleError, TypeError, ValueError, OverflowError):
        # A non-number speed fails the complex test, the range test or
        # `float()` before any state changes: TypeError (str, None, list,
        # complex, datetime64), ValueError (an array of several values),
        # OverflowError (an int past float range).
        return _error(ERR_INPUT), -1, 0.0, 0.0, 0.0, 0.0, 0.0


def totals(handle: int) -> tuple[int, float, float, float, float, float, float]:
    """Running totals so far. Returns (status, distance_m, energy..CO2)."""
    try:
        session = _sessions[handle if type(handle) is int else None]
    except KeyError:
        return _error(ERR_HANDLE), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    return OK, session.distance_m, session._e, session._co, session._hc, session._nox, session._co2


def finalize(handle: int) -> tuple[int, float, int, float, float, float, float, float,
                                   float, float, float, float, float]:
    """Close out a session (handle stays valid until destroy).

    Returns (status, distance_m, ef_defined,
             ER energy..CO2, EF energy..CO2 per km; EF zeros when undefined).
    The answer comes from the session's running totals, the same in-order
    sums that `EmissionSession.finalize` would rebuild from every second.
    """
    try:
        session = _sessions[handle if type(handle) is int else None]
    except KeyError:
        return (_error(ERR_HANDLE), 0.0, 0) + (0.0,) * 10
    if session.step_count == 0:
        return (_error(ERR_INPUT), 0.0, 0) + (0.0,) * 10
    totals = session.running_totals
    ef = per_km(totals, session.distance_m)
    return (OK, session.distance_m, int(ef is not None)) + totals \
        + (ef if ef is not None else (0.0,) * 5)


def destroy(handle: int) -> int:
    """Release a handle. Idempotent; unknown handles report ERR_HANDLE."""
    global _destroyed_steps
    with _lock:
        try:
            session = _sessions.pop(handle if type(handle) is int else None)
        except KeyError:
            pass
        else:
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
    """Drop every cached table set, the default one included (test hook)."""
    with _lock:
        _table_sets.clear()


__all__ = ["OK", "ERR_INPUT", "ERR_TABLES", "ERR_HANDLE",
           "create", "step", "totals", "finalize", "destroy", "stats", "reset_shared_tables"]
