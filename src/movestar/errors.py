"""Exception types shared across the package.

Input-side problems (cycle files, speed values) and table-side problems
(coefficient/rate assets) are kept in separate branches so the CLI can map
them onto distinct exit codes.
"""


class MovestarError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Cycle / kinematics errors (CLI exit code 1)
# ---------------------------------------------------------------------------

class CycleError(MovestarError):
    """Base class for speed-trace and drive-cycle problems."""


class EmptyCycle(CycleError):
    """A drive cycle or speed sequence contained no samples."""


class EmptyTrace(CycleError):
    """A raw trace file contained no data rows."""


class TraceFileError(CycleError, OSError):
    """A trace file could not be read. Also an OSError, with its errno and filename."""


class InvalidSample(CycleError):
    """A kinematic sample violated its preconditions (negative or non-finite)."""


class NegativeSpeed(CycleError):
    """A speed below zero, where `at` says ("second 3", "line 4")."""

    def __init__(self, value: float, at: str):
        self.value = value
        super().__init__(f"negative speed {value!r} at {at}")


class ParseError(CycleError):
    """A trace row could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"{message}{where}")


class GapTooLarge(CycleError):
    """A raw trace left more than the tolerated run of empty 1 s windows; the
    message gives the length exactly below 1e15 s, in scientific notation above."""

    def __init__(self, start_window: int, length: int, limit: int):
        self.start_window = start_window
        self.length = length
        self.limit = limit
        super().__init__(
            f"gap of {length:.15g} empty seconds starting at second {start_window} "
            f"exceeds the {limit} s limit"
        )


class EmptySession(CycleError):
    """A streaming session was finalized before any step was taken."""


class InfeasibleScenario(CycleError):
    """Demo scenario geometry cannot fit the requested speed profile."""


# ---------------------------------------------------------------------------
# Table errors (CLI exit code 2)
# ---------------------------------------------------------------------------

class TableError(MovestarError):
    """Base class for coefficient/rate table problems."""


class TableFileError(TableError, OSError):
    """A table file could not be read. Also an OSError, with its errno and filename."""


class TableParseError(TableError):
    """A table row could not be parsed."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class SchemaError(TableError):
    """A table file did not match its schema (columns, types, invariants)."""


class IncompleteTable(TableError):
    """The rate table is missing one or more (source type, opmode) entries."""

    def __init__(self, missing: list[tuple[str, int]]):
        self.missing = list(missing)
        pairs = ", ".join(f"({st}, {op})" for st, op in self.missing)
        super().__init__(f"rate table incomplete; missing entries: {pairs}")


class UnitError(TableError):
    """A unit declaration used a token outside the recognized set."""

    def __init__(self, token: str):
        self.token = token
        super().__init__(f"unknown unit token {token!r}")


class UnknownSourceType(TableError):
    """A vehicle type token or code outside the supported set."""

    def __init__(self, token: object):
        self.token = token
        super().__init__(f"unknown source type {token!r} (expected LDV/LDT or 1/2)")
