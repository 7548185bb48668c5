"""Command-line interface.

Subcommands:
    run              full pipeline on a trace file; writes <prefix>_ER.csv
                     and <prefix>_EF.csv
    factors          per-kilometre factors only, printed to stdout
    validate-tables  check a table directory against every invariant
    convert          resample a sub-second trace to 1 Hz CSV
    demo             single-intersection glide-vs-stop comparison

Exit codes: 0 success, 1 input (trace/cycle/scenario) error or output
that cannot be written (a file, or a closed stdout), 2 table error.
argparse usage errors also exit 2.

Output files are byte-deterministic: fixed column order, fixed 9-decimal
formatting, provenance and unit headers taken verbatim from the table
assets.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CycleError, TableError
from .model import SPECIES_NAMES, SUPPORTED_UNITS, SourceType
from .tables import TableSet, _unit_lines, load_tables_from_dir, resolve_tables_dir

# `core`, `cycleio` and numpy load in the commands that use them: `validate-tables` needs none.
if TYPE_CHECKING:
    from .core import CycleResult

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TABLES = 2


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _load_tables(args) -> TableSet:
    return load_tables_from_dir(resolve_tables_dir(args.tables))


def _evaluate(args) -> tuple[TableSet, SourceType, CycleResult]:
    """Tables, source type and result for the cycle of `run` and `factors`."""
    from .core import aggregate_cycle
    from .cycleio import load_cycle
    tables = _load_tables(args)
    cycle = load_cycle(args.cycle, args.unit)
    st = SourceType.from_code(args.veh)
    return tables, st, aggregate_cycle(cycle, tables.params_for(st), tables.rates)


def _header_lines(tables: TableSet) -> list[str]:
    return ([ln for ln in tables.provenance.splitlines() if ln]
            + _unit_lines(tables.rates.units, SPECIES_NAMES))


def _unit(tables: TableSet, species: str) -> str:
    return tables.rates.units[species].replace("/h", "")


def write_er_csv(result: CycleResult, tables: TableSet, path: Path) -> None:
    """Per-second rows, then totals. A second's grams depend only on its
    mode, so each mode's row is formatted once and reused."""
    import numpy as np
    lines = _header_lines(tables)
    lines.append("t,opmode," + ",".join(SPECIES_NAMES))
    modes, first = np.unique(result.modes, return_index=True)
    rows = {m: f"{m}," + ",".join(map(_fmt, result.grams[i].tolist()))
            for m, i in zip(modes.tolist(), first.tolist())}
    lines += [f"{t},{rows[m]}" for t, m in enumerate(result.modes.tolist())]
    lines.append("TOTAL,," + ",".join(map(_fmt, result.totals)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ef_lines(result: CycleResult, tables: TableSet) -> list[str]:
    """The per-km factor table shared by the EF file and `factors`."""
    ef = result.ef if result.ef is not None else (None,) * len(SPECIES_NAMES)
    lines = ["species,value,unit_per_km"]
    for name, value in zip(SPECIES_NAMES, ef):
        shown = "undefined" if value is None else _fmt(value)
        lines.append(f"{name},{shown},{_unit(tables, name)}/km")
    lines.append(f"distance_km,{_fmt(result.distance_km)},km")
    return lines


def write_ef_csv(result: CycleResult, tables: TableSet, path: Path) -> None:
    lines = _header_lines(tables) + _ef_lines(result, tables)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args) -> int:
    tables, st, result = _evaluate(args)
    # The prefix is a literal string: `--out od/` writes od/_ER.csv.
    prefix = args.out or str(Path(args.cycle).with_suffix(""))
    er_path = Path(prefix + "_ER.csv")
    ef_path = Path(prefix + "_EF.csv")
    write_er_csv(result, tables, er_path)
    write_ef_csv(result, tables, ef_path)

    if result.ef is None:
        ef_note = "EF: undefined (zero distance)"
    else:
        ef_note = f"CO2 EF {_fmt(result.ef.co2)} {_unit(tables, 'CO2')}/km"
    print(f"{args.cycle}: {len(result.modes)} s, veh={st.value}, "
          f"distance {_fmt(result.distance_km)} km, "
          f"energy {_fmt(result.totals.energy)} {_unit(tables, 'energy')}, {ef_note} "
          f"-> {er_path}, {ef_path}")
    return EXIT_OK


def cmd_factors(args) -> int:
    tables, _, result = _evaluate(args)
    print("\n".join(_ef_lines(result, tables)))
    if result.ef is None:
        print("EF: undefined (zero distance)")
    return EXIT_OK


def cmd_validate_tables(args) -> int:
    tables = _load_tables(args)
    print(f"tables OK: {resolve_tables_dir(args.tables)} ({len(tables.params)} param rows, "
          f"{len(tables.rates.entries)} rate entries)")
    return EXIT_OK


def cmd_convert(args) -> int:
    from .cycleio import parse_trace, resample_to_1hz, write_cycle_csv
    raw = parse_trace(args.infile, args.unit)
    cycle = resample_to_1hz(raw)
    write_cycle_csv(cycle, args.outfile)
    print(f"{args.infile}: {len(raw)} samples -> {len(cycle)} s at 1 Hz -> {args.outfile}")
    return EXIT_OK


def cmd_demo(args) -> int:
    from .demo import SignalScenario, compare_scenarios   # only `demo` needs it

    tables = _load_tables(args)
    sc = SignalScenario(approach_m=args.distance, cruise_mps=args.cruise,
                        green_s=args.green, red_s=args.red, offset_s=args.offset,
                        source_type=SourceType.from_code(args.veh))
    comparison = compare_scenarios(sc, tables)
    for line in comparison.csv_lines():
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movestar",
        description="Second-by-second vehicle fuel and emission estimation "
                    "from speed traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tables(p):
        p.add_argument("--tables", metavar="DIR", default=None,
                       help="table directory (default: $MOVESTAR_TABLES or packaged)")

    def add_cycle_args(p):
        p.add_argument("--cycle", required=True, help="speed trace file")
        p.add_argument("--unit", choices=SUPPORTED_UNITS, default="m/s",
                       help="unit of the trace speeds (default m/s)")
        p.add_argument("--veh", type=int, choices=(1, 2), required=True,
                       help="vehicle type: 1 = light-duty vehicle, 2 = light-duty truck")
        add_tables(p)

    p_run = sub.add_parser("run", help="compute ER/EF output files for a cycle")
    add_cycle_args(p_run)
    p_run.add_argument("--out", metavar="PREFIX", default=None,
                       help="output prefix (default: cycle path without extension)")
    p_run.set_defaults(func=cmd_run, label="cycle")

    p_fac = sub.add_parser("factors", help="print per-km factors only")
    add_cycle_args(p_fac)
    p_fac.set_defaults(func=cmd_factors, label="cycle")

    p_val = sub.add_parser("validate-tables", help="validate a table directory")
    add_tables(p_val)
    p_val.set_defaults(func=cmd_validate_tables)

    p_conv = sub.add_parser("convert", help="resample a sub-second trace to 1 Hz")
    p_conv.add_argument("--in", dest="infile", required=True, help="input trace CSV")
    p_conv.add_argument("--out", dest="outfile", required=True, help="output 1 Hz CSV")
    p_conv.add_argument("--unit", choices=SUPPORTED_UNITS, default="m/s")
    p_conv.set_defaults(func=cmd_convert, label="trace")

    p_demo = sub.add_parser("demo", help="glide-vs-stop intersection comparison")
    p_demo.add_argument("--distance", type=float, required=True, help="approach distance, m")
    p_demo.add_argument("--cruise", type=float, required=True, help="cruise speed, m/s")
    p_demo.add_argument("--green", type=float, required=True, help="green duration, s")
    p_demo.add_argument("--red", type=float, required=True, help="red duration, s")
    p_demo.add_argument("--offset", type=float, default=0.0, help="signal offset, s")
    p_demo.add_argument("--veh", type=int, choices=(1, 2), default=1)
    add_tables(p_demo)
    p_demo.set_defaults(func=cmd_demo, label="scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            # Help, usage and command output meet a closed stdout here, not
            # at interpreter exit, where the error would escape the exit codes.
            sys.stdout.flush()
    except TableError as exc:
        print(f"error: tables: {exc}", file=sys.stderr)
        return EXIT_TABLES
    except CycleError as exc:        # unreadable trace files included
        print(f"error: {args.label}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:           # reads raise the package errors above
        if isinstance(exc, BrokenPipeError):
            # What stdout still holds goes to the null device at exit, as
            # Python's `signal` documentation advises.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: output: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
