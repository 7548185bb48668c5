"""Loading and validation of the coefficient and base-rate CSV assets.

Both files are plain UTF-8 CSV with `#` comment lines. Lines of the form
`# unit: col=token ...` declare units against a closed token set; any other
token is a hard error, never a warning. A file declares units only for its
own columns after `source_type`, so the rate units live in `rates.csv` and
the mass units in `params.csv`; it declares each at most once, on unit lines
before its header row, and each declared column must take its token
(`_COLUMN_UNITS`). Each file is read in one pass that stops at its first
faulty line, and all invariants are checked eagerly at load time so that
rate lookups can never miss at run time.
"""

from __future__ import annotations

import codecs
import math
import os
from pathlib import Path
from typing import Mapping, NamedTuple

from .model import (
    MAX_SPEED_MPS,
    EmissionVector,
    RateTable,
    SourceType,
    SPECIES_NAMES,
    VALID_OPMODE_IDS,
    VehicleParams,
    _DataclassFields,
    _number,
    specific_power,
)
from .errors import SchemaError, TableFileError, TableParseError, UnitError, UnknownSourceType

RECOGNIZED_UNITS = frozenset({"g/h", "kJ/h", "mph", "m/s", "metric_ton"})

# Each params row is a VehicleParams record; each rates row, a mode's rate per species.
PARAMS_HEADER = list(VehicleParams._fields)
RATES_HEADER = ["source_type", "opmode", *SPECIES_NAMES]

# The unit tokens each column may declare: rates per hour, masses in metric tons.
_COLUMN_UNITS = {"energy": ("g/h", "kJ/h"), **{name: ("g/h",) for name in SPECIES_NAMES[1:]},
                 "M": ("metric_ton",), "f": ("metric_ton",)}

ENV_TABLES_DIR = "MOVESTAR_TABLES"


class TableSet(NamedTuple):
    """A validated pair of coefficient and rate tables plus provenance."""

    params: Mapping[SourceType, VehicleParams]
    rates: RateTable
    provenance: str

    __dataclass_fields__ = _DataclassFields()

    def params_for(self, source_type: SourceType) -> VehicleParams:
        return self.params[source_type]


def _parse_float(path: Path, lineno: int, name: str, cell: str) -> float:
    try:
        value = _number(cell)
    except ValueError:
        raise TableParseError(str(path), lineno,
                              f"column {name!r}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise TableParseError(str(path), lineno, f"column {name!r}: not finite: {cell!r}")
    return value


def _read_table(path: Path, header: list[str], row, comments: list[str],
                units: dict[str, str]) -> dict:
    """Read one table file in one pass and return its records by key.

    Each line is handled as it comes, and the first faulty one raises: a
    comment line is appended to `comments`, a `# unit:` line before the header
    row is checked into `units` (each of its columns one of `header[1:]` and
    declared once), the first other line must be `header`, and each later one
    is a data row of `len(header)` cells with a known source type.
    `row(path, lineno, st, cells)` types the cells after the source type and
    returns the row's (key, record); a key seen before is a duplicate row.
    """
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise TableFileError(exc.errno, exc.strerror, exc.filename) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TableParseError(str(path), data.count(b"\n", 0, exc.start) + 1,
                              "not UTF-8 text") from None
    table: dict = {}
    expect_header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if not body.startswith("unit:"):
                comments.append(line)
                continue
            if not expect_header:
                raise TableParseError(str(path), lineno, "unit line after the header row")
            for decl in body[len("unit:"):].split():
                if "=" not in decl:
                    raise TableParseError(str(path), lineno,
                                          f"malformed unit declaration {decl!r}")
                col, token = decl.split("=", 1)
                if token not in RECOGNIZED_UNITS:
                    raise UnitError(token)
                if col not in header[1:]:
                    raise TableParseError(str(path), lineno,
                                          f"unit declared for {col!r}, not a column of this file")
                if col in units:
                    raise TableParseError(str(path), lineno, f"unit declared twice for {col!r}")
                units[col] = token
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if expect_header:
            if cells != header:
                missing = [c for c in header if c not in cells]
                if missing:
                    raise SchemaError(f"{path}: missing column(s) {missing} in header")
                raise SchemaError(f"{path}: header {cells} != expected {header}")
            expect_header = False
            continue
        if len(cells) != len(header):
            raise TableParseError(str(path), lineno,
                                  f"expected {len(header)} columns, got {len(cells)}")
        try:
            st = SourceType.from_token(cells[0])
        except UnknownSourceType:
            raise TableParseError(str(path), lineno,
                                  f"unknown source_type {cells[0]!r}") from None
        key, record = row(path, lineno, st, cells[1:])
        if key in table:
            raise SchemaError(f"{path}:{lineno}: duplicate row: {line}")
        table[key] = record
    if expect_header:
        raise SchemaError(f"{path}: file has no header row")
    return table


def _params_row(path: Path, lineno: int, st: SourceType, cells: list[str]):
    return st, VehicleParams(st, *[_parse_float(path, lineno, name, cell)
                                   for name, cell in zip(PARAMS_HEADER[1:], cells)])


def _rates_row(path: Path, lineno: int, st: SourceType, cells: list[str]):
    try:
        mode = _number(cells[0], int)
    except ValueError:
        raise TableParseError(str(path), lineno,
                              f"column 'opmode': not an integer: {cells[0]!r}") from None
    return (st, mode), EmissionVector(*[_parse_float(path, lineno, name, cell)
                                        for name, cell in zip(SPECIES_NAMES, cells[1:])])


def validate_table_set(tables: TableSet) -> list[str]:
    """Enumerate every invariant violation; an empty list means a clean set.

    The rate table is complete already: `RateTable` checks that when built."""
    report: list[str] = []
    for st in SourceType:
        if st not in tables.params:
            report.append(f"params: missing source type {st.value}")
    for st, p in tables.params.items():
        where = f"params[{p.source_type.value}]"
        if p.source_type is not st:
            report.append(f"params: row keyed {st.value} carries {p.source_type.value}")
        faults = len(report)
        for name, value in zip(PARAMS_HEADER[1:], p[1:]):
            if not math.isfinite(value):
                report.append(f"{where}: {name} = {value} is not finite")
            elif name in ("M", "f") and not value > 0.0:
                report.append(f"{where}: {name} must be > 0")
            elif not value >= 0.0:
                report.append(f"{where}: {name} must be >= 0")
        if len(report) == faults:
            # With the signs above, VSP at v = a = V is the largest |VSP| a
            # step computes: speeds lie in [0, V], so |a| <= V, and each
            # rounded operation is monotone.
            peak = specific_power(p, MAX_SPEED_MPS, MAX_SPEED_MPS)
            if not math.isfinite(peak):
                report.append(f"{where}: VSP overflows at {MAX_SPEED_MPS!r} m/s: "
                              f"(A*V + B*V*V + C*V*V*V + M*V*V) / f = {peak}")

    for (st, mode), vec in tables.rates.entries.items():
        if mode not in VALID_OPMODE_IDS:
            report.append(f"rates: ({st.value}, {mode}) is not a valid operating mode")
        for name, value in zip(SPECIES_NAMES, vec):
            if not math.isfinite(value):
                report.append(f"rates: ({st.value}, {mode}) {name} = {value} is not finite")
            elif value < 0.0:
                report.append(f"rates: ({st.value}, {mode}) {name} = {value} is negative")

    units = tables.rates.units
    for species in SPECIES_NAMES:
        if species not in units:
            report.append(f"rates: no unit declared for column {species}")
    for column, unit in units.items():
        allowed = _COLUMN_UNITS.get(column)
        table = "params" if column in PARAMS_HEADER else "rates"
        if allowed is None:
            report.append(f"{table}: {column} takes no unit, got {unit!r}")
        elif unit not in allowed:
            report.append(f"{table}: {column} unit {unit!r} must be {' or '.join(allowed)}")
    return report


def load_table_set(params_path: str | Path, rates_path: str | Path) -> TableSet:
    """Load and eagerly validate a coefficient/rate table pair.

    Raises TableFileError for unreadable files, TableParseError / SchemaError /
    UnitError for malformed ones (naming the first faulty line, a duplicate
    row included), IncompleteTable for a missing (source type, opmode) entry
    and SchemaError listing every other invariant breach.
    """
    params_path, rates_path = Path(params_path), Path(rates_path)
    comments: list[str] = []
    units: dict[str, str] = {}
    params = _read_table(params_path, PARAMS_HEADER, _params_row, comments, units)
    entries = _read_table(rates_path, RATES_HEADER, _rates_row, comments, units)
    tables = TableSet(params=params,
                      rates=RateTable(entries=entries, units=units),
                      provenance="\n".join(comments))
    report = validate_table_set(tables)
    if report:
        raise SchemaError("table validation failed: " + "; ".join(report))
    return tables


def _unit_lines(units: Mapping[str, str], columns) -> list[str]:
    """The `# unit:` line for the declared units of `columns`, in column order,
    or no line when none of them is declared."""
    declared = " ".join(f"{c}={units[c]}" for c in columns if c in units)
    return [f"# unit: {declared}"] if declared else []


def serialize_table_set(tables: TableSet, params_path: str | Path,
                        rates_path: str | Path) -> None:
    """Write a TableSet back to CSV files that reload to an equal structure.

    Non-unit provenance travels on the params file; each file declares the
    units of its own columns. Floats are written with repr so the round-trip
    is exact.
    """
    params = [[st.value, *map(repr, tables.params[st][1:])]
              for st in SourceType if st in tables.params]
    rates = [[st.value, str(mode), *map(repr, tables.rates.entries[st, mode])]
             for st in SourceType for mode in VALID_OPMODE_IDS]
    provenance = [ln for ln in tables.provenance.splitlines() if ln]
    for path, header, rows, head in ((params_path, PARAMS_HEADER, params, provenance),
                                     (rates_path, RATES_HEADER, rates, [])):
        lines = [*head, *_unit_lines(tables.rates.units, header), ",".join(header),
                 *map(",".join, rows)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def default_tables_dir() -> Path:
    """Directory holding the packaged default assets, which ship as files."""
    return Path(__file__).parent / "data"


def resolve_tables_dir(cli_value: str | None = None) -> Path:
    """Table directory precedence: --tables flag, MOVESTAR_TABLES, packaged."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(ENV_TABLES_DIR)
    if env:
        return Path(env)
    return default_tables_dir()


def load_tables_from_dir(directory: str | Path) -> TableSet:
    directory = Path(directory)
    return load_table_set(directory / "params.csv", directory / "rates.csv")


def load_default_tables() -> TableSet:
    return load_tables_from_dir(default_tables_dir())


__all__ = [
    "TableSet", "RECOGNIZED_UNITS", "PARAMS_HEADER", "RATES_HEADER",
    "ENV_TABLES_DIR", "load_table_set", "validate_table_set",
    "serialize_table_set", "default_tables_dir", "resolve_tables_dir",
    "load_tables_from_dir", "load_default_tables",
]
