"""Loading and validation of the coefficient and base-rate CSV assets.

Both files are plain UTF-8 CSV with `#` comment lines. Lines of the form
`# unit: col=token ...` declare units against a closed token set; any other
token is a hard error, never a warning. All invariants are checked eagerly
at load time so that rate lookups can never miss at run time.
"""

from __future__ import annotations

import math
import os
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple

from .model import (
    EmissionVector,
    RateTable,
    SourceType,
    SPECIES_NAMES,
    VALID_OPMODE_IDS,
    VehicleParams,
    _DataclassFields,
)
from .errors import (IncompleteTable, SchemaError, TableFileError, TableParseError, UnitError,
                     UnknownSourceType)

RECOGNIZED_UNITS = frozenset({"g/h", "kJ/h", "mph", "m/s", "metric_ton"})

PARAMS_HEADER = ["source_type", "A", "B", "C", "M", "f"]
RATES_HEADER = ["source_type", "opmode", "energy", "CO", "HC", "NOx", "CO2"]

ENV_TABLES_DIR = "MOVESTAR_TABLES"


class TableSet(NamedTuple):
    """A validated pair of coefficient and rate tables plus provenance."""

    params: Mapping[SourceType, VehicleParams]
    rates: RateTable
    provenance: str

    __dataclass_fields__ = _DataclassFields()

    def params_for(self, source_type: SourceType) -> VehicleParams:
        return self.params[source_type]


def _read_rows(path: Path) -> tuple[list[tuple[int, list[str]]], list[str], dict[str, str]]:
    """Split a table file into (numbered data rows, comment lines, units)."""
    rows: list[tuple[int, list[str]]] = []
    comments: list[str] = []
    units: dict[str, str] = {}
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TableFileError(exc.errno, exc.strerror, exc.filename) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TableParseError(str(path), data.count(b"\n", 0, exc.start) + 1,
                              "not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("unit:"):
                for decl in body[len("unit:"):].split():
                    if "=" not in decl:
                        raise TableParseError(str(path), lineno,
                                              f"malformed unit declaration {decl!r}")
                    col, token = decl.split("=", 1)
                    if token not in RECOGNIZED_UNITS:
                        raise UnitError(token)
                    units[col] = token
            else:
                comments.append(line)
            continue
        rows.append((lineno, [cell.strip() for cell in line.split(",")]))
    return rows, comments, units


def _parse_float(path: Path, lineno: int, name: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise TableParseError(str(path), lineno,
                              f"column {name!r}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise TableParseError(str(path), lineno, f"column {name!r}: not finite: {cell!r}")
    return value


def _parse_int(path: Path, lineno: int, name: str, cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise TableParseError(str(path), lineno,
                              f"column {name!r}: not an integer: {cell!r}") from None


def _check_header(path: Path, rows, expected: list[str]):
    if not rows:
        raise SchemaError(f"{path}: file has no header row")
    lineno, header = rows[0]
    if header != expected:
        missing = [c for c in expected if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {missing} in header")
        raise SchemaError(f"{path}: header {header} != expected {expected}")
    return rows[1:]


def _data_rows(path: Path, header: list[str]):
    """(rows as (line number, source type, remaining cells), comments, units)."""
    rows, comments, units = _read_rows(path)
    out = []
    for lineno, cells in _check_header(path, rows, header):
        if len(cells) != len(header):
            raise TableParseError(str(path), lineno,
                                  f"expected {len(header)} columns, got {len(cells)}")
        try:
            st = SourceType.from_token(cells[0])
        except UnknownSourceType:
            raise TableParseError(str(path), lineno,
                                  f"unknown source_type {cells[0]!r}") from None
        out.append((lineno, st, cells[1:]))
    return out, comments, units


def _load_params(path: Path) -> tuple[dict[SourceType, VehicleParams], list[str], dict[str, str]]:
    rows, comments, units = _data_rows(path, PARAMS_HEADER)
    params: dict[SourceType, VehicleParams] = {}
    duplicates: list[str] = []
    for lineno, st, cells in rows:
        values = [_parse_float(path, lineno, name, cell)
                  for name, cell in zip(PARAMS_HEADER[1:], cells)]
        if st in params:
            duplicates.append(f"params: duplicate row for source type {st.value}")
        params[st] = VehicleParams(st, *values)
    if duplicates:
        raise SchemaError("; ".join(duplicates))
    return params, comments, units


def _load_rates(path: Path) -> tuple[dict[tuple[SourceType, int], EmissionVector],
                                     list[str], dict[str, str]]:
    rows, comments, units = _data_rows(path, RATES_HEADER)
    entries: dict[tuple[SourceType, int], EmissionVector] = {}
    for lineno, st, cells in rows:
        mode = _parse_int(path, lineno, "opmode", cells[0])
        values = [_parse_float(path, lineno, name, cell)
                  for name, cell in zip(RATES_HEADER[2:], cells[1:])]
        if (st, mode) in entries:
            raise SchemaError(f"{path}: duplicate rate row for ({st.value}, {mode})")
        entries[(st, mode)] = EmissionVector(*values)
    return entries, comments, units


def validate_table_set(tables: TableSet) -> list[str]:
    """Enumerate every invariant violation; an empty list means a clean set."""
    report: list[str] = []
    for st in SourceType:
        if st not in tables.params:
            report.append(f"params: missing source type {st.value}")
    for st, p in tables.params.items():
        if p.source_type is not st:
            report.append(f"params: row keyed {st.value} carries {p.source_type.value}")
        report.extend(p.violations())

    for st_token, mode in tables.rates.missing():
        report.append(f"rates: missing entry ({st_token}, {mode})")
    for (st, mode), vec in tables.rates.entries.items():
        if mode not in VALID_OPMODE_IDS:
            report.append(f"rates: ({st.value}, {mode}) is not a valid operating mode")
        for name, value in zip(SPECIES_NAMES, vec):
            if not math.isfinite(value):
                report.append(f"rates: ({st.value}, {mode}) {name} = {value} is not finite")
            elif value < 0.0:
                report.append(f"rates: ({st.value}, {mode}) {name} = {value} is negative")

    for species in SPECIES_NAMES:
        if species not in tables.rates.units:
            report.append(f"rates: no unit declared for column {species}")
    energy_unit = tables.rates.units.get("energy")
    if energy_unit is not None and energy_unit not in ("g/h", "kJ/h"):
        report.append(f"rates: energy unit {energy_unit!r} must be g/h or kJ/h")
    return report


def load_table_set(params_path: str | Path, rates_path: str | Path) -> TableSet:
    """Load and eagerly validate a coefficient/rate table pair.

    Raises TableFileError for unreadable files, TableParseError / SchemaError /
    UnitError for malformed ones, IncompleteTable for a missing (source type,
    opmode) entry and SchemaError listing every other invariant breach.
    """
    params_path, rates_path = Path(params_path), Path(rates_path)
    params, params_comments, params_units = _load_params(params_path)
    entries, rates_comments, rates_units = _load_rates(rates_path)

    units = dict(params_units)
    units.update(rates_units)
    provenance = "\n".join(params_comments + rates_comments)
    tables = TableSet(params=params,
                      rates=RateTable(entries=entries, units=units),
                      provenance=provenance)

    missing = tables.rates.missing()
    if missing:
        raise IncompleteTable(missing)
    report = validate_table_set(tables)
    if report:
        raise SchemaError("table validation failed: " + "; ".join(report))
    return tables


def serialize_table_set(tables: TableSet, params_path: str | Path,
                        rates_path: str | Path) -> None:
    """Write a TableSet back to CSV files that reload to an equal structure.

    Floats are written with repr so the round-trip is exact.
    """
    params_path, rates_path = Path(params_path), Path(rates_path)
    prov_lines = [ln for ln in tables.provenance.splitlines() if ln]

    # Non-unit provenance travels on the params file; unit declarations are
    # re-emitted canonically on each file. Loading concatenates them back.
    plines = list(prov_lines)
    param_units = {k: v for k, v in tables.rates.units.items() if k in ("M", "f")}
    if param_units:
        plines.append("# unit: " + " ".join(f"{k}={v}" for k, v in sorted(param_units.items())))
    plines.append(",".join(PARAMS_HEADER))
    for st in SourceType:
        if st in tables.params:
            p = tables.params[st]
            plines.append(",".join([st.value] + [repr(x) for x in (p.A, p.B, p.C, p.M, p.f)]))
    params_path.write_text("\n".join(plines) + "\n", encoding="utf-8")

    rlines = []
    rate_units = {k: v for k, v in tables.rates.units.items() if k in SPECIES_NAMES}
    if rate_units:
        rlines.append("# unit: " + " ".join(
            f"{k}={rate_units[k]}" for k in SPECIES_NAMES if k in rate_units))
    rlines.append(",".join(RATES_HEADER))
    for st in SourceType:
        for mode in VALID_OPMODE_IDS:
            vec = tables.rates.entries.get((st, mode))
            if vec is not None:
                rlines.append(",".join([st.value, str(mode)]
                                       + [repr(x) for x in vec]))
    rates_path.write_text("\n".join(rlines) + "\n", encoding="utf-8")


def default_tables_dir() -> Path:
    """Directory holding the packaged default assets."""
    return Path(str(resources.files("movestar") / "data"))


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
