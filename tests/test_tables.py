"""Table asset loading, validation and round-trip tests."""

import codecs
import math
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from movestar.core import (
    VALID_OPMODE_IDS,
    DriveCycle,
    EmissionVector,
    RateTable,
    SourceType,
    aggregate_cycle,
)
from movestar.errors import (
    IncompleteTable,
    SchemaError,
    TableError,
    TableParseError,
    UnitError,
)
from movestar.session import EmissionSession
from movestar.tables import (
    load_table_set,
    serialize_table_set,
    validate_table_set,
)

from conftest import sawtooth_speeds, scaled_rates


def _copy_assets(tmp_path, params_path, rates_path, edit=None):
    """Copy the shipped assets into tmp_path, optionally transforming text."""
    params_text = params_path.read_text()
    rates_text = rates_path.read_text()
    if edit is not None:
        params_text, rates_text = edit(params_text, rates_text)
    p = tmp_path / "params.csv"
    r = tmp_path / "rates.csv"
    p.write_text(params_text)
    r.write_text(rates_text)
    return p, r


class TestLoadShippedAssets:
    def test_counts(self, tables):
        assert len(tables.params) == 2
        assert len(tables.rates.entries) == 2 * len(VALID_OPMODE_IDS)
        assert len(VALID_OPMODE_IDS) == 23

    def test_complete_mode_coverage(self, tables):
        for st in SourceType:
            for mode in VALID_OPMODE_IDS:
                assert (st, mode) in tables.rates.entries

    def test_validation_report_empty(self, tables):
        assert validate_table_set(tables) == []

    def test_units_declared(self, tables):
        assert tables.rates.units["energy"] in ("g/h", "kJ/h")
        for name in ("CO", "HC", "NOx", "CO2"):
            assert tables.rates.units[name] == "g/h"
        assert tables.rates.units["M"] == "metric_ton"

    def test_provenance_nonempty(self, tables):
        assert "provenance" in tables.provenance

    def test_assets_match_their_generator(self, tmp_path, tables_dir):
        script = Path(__file__).resolve().parent.parent / "tools" / "make_default_tables.py"
        subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                       capture_output=True)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["params.csv", "rates.csv"]
        for name in ("params.csv", "rates.csv"):
            assert (tmp_path / name).read_bytes() == (tables_dir / name).read_bytes(), name

    def test_byte_order_marked_files_give_the_same_tables(self, tmp_path, tables_dir, capsys):
        """Excel's "CSV UTF-8" starts each file with a UTF-8 byte-order mark:
        the tables still validate, and `factors` prints the same bytes."""
        from movestar.cli import main
        for name in ("params.csv", "rates.csv"):
            (tmp_path / name).write_bytes(codecs.BOM_UTF8 + (tables_dir / name).read_bytes())
        assert main(["validate-tables", "--tables", str(tmp_path)]) == 0
        (tmp_path / "cycle.csv").write_text("0\n5\n10\n7\n0\n")
        outputs = []
        for directory in (tables_dir, tmp_path):
            capsys.readouterr()
            assert main(["factors", "--cycle", str(tmp_path / "cycle.csv"), "--veh", "1",
                         "--tables", str(directory)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

    def test_deterministic_load(self, params_path, rates_path):
        a = load_table_set(params_path, rates_path)
        b = load_table_set(params_path, rates_path)
        assert a.params == b.params
        assert a.rates.entries == b.rates.entries
        assert a.provenance == b.provenance


class TestRoundTrip:
    def test_serialize_then_load_identical(self, tables, tmp_path):
        p, r = tmp_path / "params.csv", tmp_path / "rates.csv"
        serialize_table_set(tables, p, r)
        again = load_table_set(p, r)
        assert again.params == tables.params
        assert again.rates.entries == tables.rates.entries
        assert again.rates.units == tables.rates.units
        assert again.provenance == tables.provenance

    def test_each_file_writes_only_its_own_units(self, tmp_path, params_path, rates_path):
        """Energy in kJ/h and a params file with no `# unit:` line: the
        written params file declares nothing, and the reload is equal."""
        def kj_and_no_mass_units(params, rates):
            return ("".join(ln for ln in params.splitlines(True) if not ln.startswith("# unit:")),
                    rates.replace("energy=g/h", "energy=kJ/h"))
        tables = load_table_set(*_copy_assets(tmp_path, params_path, rates_path,
                                              kj_and_no_mass_units))
        assert tables.rates.units == {"energy": "kJ/h", "CO": "g/h", "HC": "g/h",
                                      "NOx": "g/h", "CO2": "g/h"}
        out = tmp_path / "out"
        out.mkdir()
        p, r = out / "params.csv", out / "rates.csv"
        serialize_table_set(tables, p, r)
        assert "# unit:" not in p.read_text()
        assert r.read_text().startswith("# unit: energy=kJ/h CO=g/h HC=g/h NOx=g/h CO2=g/h\n")
        again = load_table_set(p, r)
        assert again.params == tables.params
        assert again.rates.entries == tables.rates.entries
        assert again.rates.units == tables.rates.units
        assert again.provenance == tables.provenance


class TestRecords:
    def test_tuple_records_keep_their_fields_and_repr(self, tables):
        p = tables.params_for(SourceType.LDV)
        assert repr(p) == ("VehicleParams(source_type=<SourceType.LDV: 'LDV'>, A=0.156461, "
                           "B=0.00200193, C=0.000492646, M=1.4788, f=1.4788)")
        assert p == tuple(p) == (SourceType.LDV, p.A, p.B, p.C, p.M, p.f)
        vec = EmissionVector(1.0, 2.0, 3.0, 4.0, 5.0)
        assert repr(vec) == "EmissionVector(energy=1.0, co=2.0, hc=3.0, nox=4.0, co2=5.0)"
        assert vec == (1.0, 2.0, 3.0, 4.0, 5.0) and type(vec.as_tuple()) is tuple
        params, rates, provenance = tables
        assert tables.params_for(SourceType.LDT) is params[SourceType.LDT]
        assert (rates, provenance) == (tables.rates, tables.provenance)

    def test_source_types_hash_by_identity(self, tables):
        """Members are singletons compared by identity: the C-level identity
        hash keys every table dict, and a pickled member is the member."""
        import pickle
        assert SourceType.__hash__ is object.__hash__
        params, rates = dict(tables.params), tables.rates
        for st in SourceType:
            assert pickle.loads(pickle.dumps(st)) is st
            assert tables.params_for(st) is params[st] and tables.params_for(st).source_type is st
            assert rates.grams[st][1].tolist() == list(rates.per_second[st].results[1][2:])
            assert tables.params_for(pickle.loads(pickle.dumps(st))) is tables.params_for(st)
        assert [p.source_type for p in params.values()] == list(params)

    def test_tuple_records_still_take_the_dataclasses_functions(self, tables):
        import dataclasses
        vec = EmissionVector(1.0, 2.0, 3.0, 4.0, 5.0)
        changed = dataclasses.replace(vec, co2=6.0)
        assert type(changed) is EmissionVector and changed == (1.0, 2.0, 3.0, 4.0, 6.0)
        assert [f.name for f in dataclasses.fields(vec)] == list(EmissionVector._fields)
        assert dataclasses.asdict(vec) == vec._asdict()
        p = tables.params_for(SourceType.LDV)
        assert dataclasses.replace(p, M=2.0) == p._replace(M=2.0)
        assert dataclasses.replace(tables, provenance="x") == tables._replace(provenance="x")
        assert all(map(dataclasses.is_dataclass, (vec, p, tables, EmissionVector)))

    def test_rate_table_is_read_only_and_equal_by_value(self, tables):
        rates = RateTable(entries=dict(tables.rates.entries), units=dict(tables.rates.units))
        with pytest.raises(AttributeError):
            rates.units = {}
        with pytest.raises(AttributeError):
            del rates.entries
        assert rates == tables.rates and rates is not tables.rates
        assert rates != RateTable(entries=rates.entries, units={})
        assert rates != (rates.entries, rates.units)
        assert repr(rates) == f"RateTable(entries={rates.entries!r}, units={rates.units!r})"
        assert rates.per_second is rates.per_second and rates.grams is rates.grams

    def test_rate_table_keeps_copies_of_its_mappings(self, tables):
        entries, units = dict(tables.rates.entries), dict(tables.rates.units)
        rates = RateTable(entries=entries, units=units)
        del entries[(SourceType.LDV, 0)]
        units.clear()
        assert rates == tables.rates
        cycle = DriveCycle.from_speeds(sawtooth_speeds())
        params = tables.params_for(SourceType.LDV)
        got = aggregate_cycle(cycle, params, rates)
        want = aggregate_cycle(cycle, params, tables.rates)
        assert (got.totals, got.distance_m) == (want.totals, want.distance_m)
        session = EmissionSession(params, rates)
        for v in sawtooth_speeds():
            session.step(v)
        streamed = session.finalize()
        assert (streamed.totals, streamed.distance_m) == (want.totals, want.distance_m)

    def test_incomplete_rate_table_raises_when_built(self, tables):
        entries = dict(tables.rates.entries)
        for key in [(SourceType.LDT, 40), (SourceType.LDV, 33), (SourceType.LDV, 0)]:
            del entries[key]
        with pytest.raises(IncompleteTable) as info:
            RateTable(entries, tables.rates.units)
        assert info.value.missing == [("LDV", 0), ("LDV", 33), ("LDT", 40)]
        assert str(info.value) == ("rate table incomplete; missing entries: "
                                   "(LDV, 0), (LDV, 33), (LDT, 40)")


def _without(prefix):
    """An edit of the rates text that drops its lines starting with `prefix`."""
    def edit(params, rates):
        return params, "".join(ln for ln in rates.splitlines(True) if not ln.startswith(prefix))
    return edit


def _rate_units_in_params(params, rates):
    """An edit that moves the rates file's `# unit:` line into the params
    file, just before the params file's own (its line 3)."""
    line = next(ln for ln in rates.splitlines(True) if ln.startswith("# unit:"))
    return params.replace("# unit:", line + "# unit:", 1), rates.replace(line, "")


PARAMS_LINE = "source_type,A,B,C,M,f\n"
RATES_LINE = "source_type,opmode,energy,CO,HC,NOx,CO2\n"
KJ_LINE = "# unit: energy=kJ/h\n"
NO_RATE_UNITS = "; ".join(f"rates: no unit declared for column {name}"
                          for name in ("energy", "CO", "HC", "NOx", "CO2"))

# Broken table files: (edit of the params and rates text, error class, message, in
# which "{params}" and "{rates}" stand for the two paths).
CORRUPTIONS = [
    pytest.param(lambda p, r: ("# provenance: no rows\n\n", r), SchemaError,
                 "{params}: file has no header row", id="no_header_row"),
    pytest.param(lambda p, r: (p.replace("source_type,A,B,C,M,f", "source_type,B,A,C,M,f"), r),
                 SchemaError, "{params}: header ['source_type', 'B', 'A', 'C', 'M', 'f'] != "
                 "expected ['source_type', 'A', 'B', 'C', 'M', 'f']", id="column_order"),
    pytest.param(lambda p, r: ("".join(ln for ln in p.splitlines(True)
                                       if not ln.startswith("LDT,")), r),
                 SchemaError, "table validation failed: params: missing source type LDT",
                 id="no_ldt_params"),
    pytest.param(lambda p, r: (p, r + "LDV,2,1.0,1.0,1.0,1.0,1.0\n"), SchemaError,
                 "table validation failed: rates: (LDV, 2) is not a valid operating mode",
                 id="opmode_2"),
    pytest.param(_without("# unit:"), SchemaError, "table validation failed: " + NO_RATE_UNITS,
                 id="no_unit_line"),
    pytest.param(lambda p, r: (p, r.replace("energy=g/h", "energy=mph")), SchemaError,
                 "table validation failed: rates: energy unit 'mph' must be g/h or kJ/h",
                 id="energy_mph"),
    # Each column takes only its own units: a known token elsewhere is an error.
    pytest.param(lambda p, r: (p, r.replace("CO=g/h", "CO=mph")), SchemaError,
                 "table validation failed: rates: CO unit 'mph' must be g/h", id="co_mph"),
    pytest.param(lambda p, r: (p, r.replace("CO2=g/h", "CO2=kJ/h")), SchemaError,
                 "table validation failed: rates: CO2 unit 'kJ/h' must be g/h", id="co2_kj"),
    pytest.param(lambda p, r: (p.replace("M=metric_ton", "M=g/h"), r), SchemaError,
                 "table validation failed: params: M unit 'g/h' must be metric_ton",
                 id="mass_g_per_h"),
    # A file declares units only for its own columns, and a column that
    # takes no unit (A is in kW*s/m) takes no declaration.
    pytest.param(_rate_units_in_params, TableParseError,
                 "{params}:3: unit declared for 'energy', not a column of this file",
                 id="rates_units_in_params"),
    pytest.param(lambda p, r: (p.replace("f=metric_ton", "f=metric_ton bogus=kJ/h"), r),
                 TableParseError, "{params}:3: unit declared for 'bogus', not a column of this file",
                 id="unknown_column_unit"),
    pytest.param(lambda p, r: (p.replace("f=metric_ton", "f=metric_ton A=mph"), r), SchemaError,
                 "table validation failed: params: A takes no unit, got 'mph'",
                 id="unmapped_column_unit"),
    # A file declares each column's unit once, on unit lines before its header
    # row: a later declaration does not silently replace an earlier one. The
    # shipped rates.csv declares its units on line 4, its header on line 5,
    # and ends on line 51.
    pytest.param(lambda p, r: (p, r.replace(RATES_LINE, KJ_LINE + RATES_LINE)), TableParseError,
                 "{rates}:5: unit declared twice for 'energy'", id="second_unit_line"),
    pytest.param(lambda p, r: (p, r.replace(RATES_LINE, RATES_LINE + KJ_LINE)), TableParseError,
                 "{rates}:6: unit line after the header row", id="unit_line_after_header"),
    pytest.param(lambda p, r: (p, r + KJ_LINE), TableParseError,
                 "{rates}:52: unit line after the header row", id="unit_line_last"),
    pytest.param(lambda p, r: (p, r.replace("energy=g/h", "energy=kJ/h energy=g/h")),
                 TableParseError, "{rates}:4: unit declared twice for 'energy'",
                 id="unit_twice_on_one_line"),
    pytest.param(lambda p, r: (p.replace("M=metric_ton", "M=metric_ton M=metric_ton"), r),
                 TableParseError, "{params}:3: unit declared twice for 'M'",
                 id="mass_unit_twice"),
    pytest.param(lambda p, r: (p, r.replace("energy=g/h", "energy")), TableParseError,
                 "{rates}:4: malformed unit declaration 'energy'", id="malformed_unit"),
    # A file is read line by line and its first faulty line raises, so a later
    # bad unit token does not hide an earlier bad header or row.
    pytest.param(lambda p, r: (p, r.replace(",NOx,CO2\n", ",NOx\n") + "# unit: CO=bogus\n"),
                 SchemaError, "{rates}: missing column(s) ['CO2'] in header",
                 id="bad_header_before_bad_unit"),
    pytest.param(lambda p, r: (p, RATES_LINE + "LDV,1,x,1,1,1,1\n# unit: CO=bogus\n"),
                 TableParseError, "{rates}:2: column 'energy': not a number: 'x'",
                 id="bad_row_before_bad_unit"),
    # A duplicate row is named by its line, whichever file it is in; keys are
    # compared as typed values, not as text.
    pytest.param(lambda p, r: (PARAMS_LINE + "LDV,1,1,1,1,1\nldv,2,2,2,2,2\n", r), SchemaError,
                 "{params}:3: duplicate row: ldv,2,2,2,2,2", id="duplicate_params_row"),
    pytest.param(lambda p, r: (p, RATES_LINE + "LDV,1,1,1,1,1,1\nLDV,01,2,2,2,2,2\n"),
                 SchemaError, "{rates}:3: duplicate row: LDV,01,2,2,2,2,2",
                 id="duplicate_rates_row"),
    # Cells are numbers in the grammar trace files use: no digit-group
    # underscores and no non-ASCII digits, which float() and int() accept.
    pytest.param(lambda p, r: (p, RATES_LINE + "LDV,1,4_50.000,1,1,1,1\n"), TableParseError,
                 "{rates}:2: column 'energy': not a number: '4_50.000'", id="underscore_rate"),
    pytest.param(lambda p, r: (p, RATES_LINE + "LDV,1_1,1,1,1,1,1\n"), TableParseError,
                 "{rates}:2: column 'opmode': not an integer: '1_1'", id="underscore_opmode"),
    pytest.param(lambda p, r: (PARAMS_LINE + "LDV,١.5,1,1,1,1\n", r), TableParseError,
                 "{params}:2: column 'A': not a number: '١.5'", id="non_ascii_digit"),
]


# The corruptions whose only fault is a unit declared for a column that
# cannot take it: a known token of another column, a column that takes no
# unit, or one that is not in the declaring file.
WRONG_COLUMN_UNITS = {case.id: case.values for case in CORRUPTIONS
                      if case.id in ("co_mph", "co2_kj", "mass_g_per_h", "rates_units_in_params",
                                     "unknown_column_unit", "unmapped_column_unit")}


class TestCorruptedTables:
    @pytest.mark.parametrize("edit,error,message", CORRUPTIONS)
    def test_corruption_is_named(self, tmp_path, params_path, rates_path, edit, error, message):
        p, r = _copy_assets(tmp_path, params_path, rates_path, edit)
        with pytest.raises(TableError) as info:
            load_table_set(p, r)
        assert type(info.value) is error
        assert str(info.value) == message.format(params=p, rates=r)

    def test_cli_reports_a_corrupted_table_on_one_line(self, tmp_path, params_path, rates_path,
                                                      capsys):
        from movestar.cli import EXIT_TABLES, main
        for case in ("no_unit_line", "malformed_unit"):
            edit, _, message = next(c.values for c in CORRUPTIONS if c.id == case)
            p, r = _copy_assets(tmp_path, params_path, rates_path, edit)
            assert main(["validate-tables", "--tables", str(tmp_path)]) == EXIT_TABLES
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: tables: {message.format(params=p, rates=r)}\n"

    @pytest.mark.parametrize("case", sorted(WRONG_COLUMN_UNITS))
    @pytest.mark.parametrize("command", ["validate-tables", "factors"])
    def test_unit_on_a_wrong_column_exits_2(self, tmp_path, params_path, rates_path, capsys,
                                            case, command):
        """A known unit token on a column that cannot take it stops every
        command that loads the tables, so `factors` never prints `mph/km`."""
        from movestar.cli import EXIT_TABLES, main
        edit, _, message = WRONG_COLUMN_UNITS[case]
        _copy_assets(tmp_path, params_path, rates_path, edit)
        (tmp_path / "cycle.csv").write_text("0\n5\n10\n")
        cycle = ["--cycle", str(tmp_path / "cycle.csv"), "--veh", "1"]
        args = [command, "--tables", str(tmp_path), *(cycle if command == "factors" else [])]
        assert main(args) == EXIT_TABLES
        captured = capsys.readouterr()
        assert captured.out == ""
        paths = {"params": tmp_path / "params.csv", "rates": tmp_path / "rates.csv"}
        assert captured.err == f"error: tables: {message.format(**paths)}\n"

    def test_missing_mode_row(self, tmp_path, params_path, rates_path):
        def drop_mode_33(params, rates):
            lines = [ln for ln in rates.splitlines() if not ln.startswith("LDV,33,")]
            return params, "\n".join(lines) + "\n"
        p, r = _copy_assets(tmp_path, params_path, rates_path, drop_mode_33)
        with pytest.raises(IncompleteTable) as exc:
            load_table_set(p, r)
        assert ("LDV", 33) in exc.value.missing

    def test_load_errors_come_read_then_built_then_validated(self, tmp_path, params_path,
                                                             rates_path):
        """A file's first unparseable row raises first; then the rate table,
        which checks its completeness when built; then `validate_table_set`,
        which names a negative rate (and a missing params row: `no_ldt_params`)."""
        def short_and_negative(params, rates):
            rates = "".join(ln for ln in rates.splitlines(True) if not ln.startswith("LDV,33,"))
            return params, rates.replace("LDV,1,450.000,4.000", "LDV,1,450.000,-4.000")
        p, r = _copy_assets(tmp_path, params_path, rates_path, short_and_negative)
        with pytest.raises(TableError) as info:
            load_table_set(p, r)
        assert type(info.value) is IncompleteTable and info.value.missing == [("LDV", 33)]

        r.write_text(r.read_text() + "LDV,33,x,1,1,1,1\n")
        with pytest.raises(TableError) as info:
            load_table_set(p, r)
        assert type(info.value) is TableParseError
        assert str(info.value).endswith("column 'energy': not a number: 'x'")

    def test_zero_mass(self, tmp_path, params_path, rates_path):
        def zero_m(params, rates):
            return params.replace("1.4788,1.4788", "0,1.4788"), rates
        p, r = _copy_assets(tmp_path, params_path, rates_path, zero_m)
        with pytest.raises(SchemaError, match="M must be > 0"):
            load_table_set(p, r)

    def test_negative_rate_names_cell(self, tmp_path, params_path, rates_path):
        def negate_co(params, rates):
            return params, rates.replace("LDV,1,450.000,4.000", "LDV,1,450.000,-4.000")
        p, r = _copy_assets(tmp_path, params_path, rates_path, negate_co)
        with pytest.raises(SchemaError, match=r"\(LDV, 1\) CO"):
            load_table_set(p, r)

    def test_duplicate_source_type_row(self, tmp_path, params_path, rates_path):
        def dup(params, rates):
            line = next(ln for ln in params.splitlines() if ln.startswith("LDV,"))
            return params + line + "\n", rates
        p, r = _copy_assets(tmp_path, params_path, rates_path, dup)
        with pytest.raises(SchemaError, match="duplicate"):
            load_table_set(p, r)

    def test_duplicate_rate_row(self, tmp_path, params_path, rates_path):
        def dup(params, rates):
            line = next(ln for ln in rates.splitlines() if ln.startswith("LDT,21,"))
            return params, rates + line + "\n"
        p, r = _copy_assets(tmp_path, params_path, rates_path, dup)
        with pytest.raises(SchemaError, match="duplicate"):
            load_table_set(p, r)

    def test_unknown_unit_token(self, tmp_path, params_path, rates_path):
        def bad_unit(params, rates):
            return params, rates.replace("energy=g/h", "energy=furlong/fortnight")
        p, r = _copy_assets(tmp_path, params_path, rates_path, bad_unit)
        with pytest.raises(UnitError):
            load_table_set(p, r)

    def test_missing_column_in_header(self, tmp_path, params_path, rates_path):
        def drop_col(params, rates):
            return params, rates.replace("source_type,opmode,energy,CO,HC,NOx,CO2",
                                         "source_type,opmode,energy,CO,HC,NOx")
        p, r = _copy_assets(tmp_path, params_path, rates_path, drop_col)
        with pytest.raises(SchemaError, match="missing column"):
            load_table_set(p, r)

    def test_non_finite_value_names_line_and_column(self, tmp_path, params_path, rates_path):
        def inf_a(params, rates):
            return params.replace("LDV,0.156461,", "LDV,inf,"), rates
        p, r = _copy_assets(tmp_path, params_path, rates_path, inf_a)
        line = p.read_text().splitlines().index("LDV,inf,0.00200193,0.000492646,1.4788,1.4788") + 1
        with pytest.raises(TableParseError, match="column 'A': not finite") as exc:
            load_table_set(p, r)
        assert exc.value.line == line

    def test_fractional_opmode_rejected(self, tmp_path, params_path, rates_path):
        def fractional(params, rates):
            return params, rates.replace("LDV,12,", "LDV,12.7,")
        p, r = _copy_assets(tmp_path, params_path, rates_path, fractional)
        with pytest.raises(TableParseError, match="column 'opmode': not an integer"):
            load_table_set(p, r)

    def test_non_utf8_byte_names_line(self, tmp_path, params_path, rates_path):
        p, r = _copy_assets(tmp_path, params_path, rates_path)
        lines = r.read_bytes().split(b"\n")
        at = next(i for i, ln in enumerate(lines) if ln.startswith(b"LDT,11,"))
        lines[at] = lines[at].replace(b"LDT", b"LD\xff")
        r.write_bytes(b"\n".join(lines))
        with pytest.raises(TableParseError, match="not UTF-8") as exc:
            load_table_set(p, r)
        assert exc.value.line == at + 1
        # After a byte-order mark, the same byte is on the same line.
        r.write_bytes(codecs.BOM_UTF8 + r.read_bytes())
        with pytest.raises(TableParseError, match="not UTF-8") as exc:
            load_table_set(p, r)
        assert exc.value.line == at + 1

    def test_malformed_value_reports_line(self, tmp_path, params_path, rates_path):
        def garble(params, rates):
            return params, rates.replace("LDV,12,1210.000", "LDV,12,xyzzy")
        p, r = _copy_assets(tmp_path, params_path, rates_path, garble)
        with pytest.raises(TableParseError, match="not a number"):
            load_table_set(p, r)

    def test_unknown_source_type_row(self, tmp_path, params_path, rates_path):
        def alien(params, rates):
            return params, rates.replace("LDT,40,", "BUS,40,", 1)
        p, r = _copy_assets(tmp_path, params_path, rates_path, alien)
        with pytest.raises((TableParseError, IncompleteTable)):
            load_table_set(p, r)

    def test_invalid_opmode_id(self, tmp_path, params_path, rates_path):
        def bad_mode(params, rates):
            return params, rates.replace("LDV,40,", "LDV,41,", 1)
        p, r = _copy_assets(tmp_path, params_path, rates_path, bad_mode)
        with pytest.raises(IncompleteTable):
            load_table_set(p, r)

    def test_bad_header_stops_the_read(self, tmp_path, params_path, rates_path):
        """A header fault raises before the rows after it are split: reading
        10^5 rows into cells would take several times this peak."""
        rows = "LDV,1,320.0,2.2,0.22,0.18,1011.951\n" * 100_000
        p, r = _copy_assets(tmp_path, params_path, rates_path,
                            lambda p, r: (p, r.replace(",NOx,CO2\n", ",NOx\n") + rows))
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match=r"missing column\(s\) \['CO2'\]"):
                load_table_set(p, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45e6

    def test_missing_file(self, tmp_path, rates_path):
        with pytest.raises(OSError) as info:
            load_table_set(tmp_path / "nope.csv", rates_path)
        assert isinstance(info.value, TableError)
        assert info.value.filename == str(tmp_path / "nope.csv")

    def test_validation_reports_non_finite_values(self, tables):
        from dataclasses import replace
        from movestar.tables import TableSet
        params = dict(tables.params)
        params[SourceType.LDT] = replace(params[SourceType.LDT], M=float("inf"))
        bad = TableSet(params=params, rates=scaled_rates(tables.rates, float("inf")),
                       provenance="")
        report = validate_table_set(bad)
        assert "params[LDT]: M = inf is not finite" in report
        assert "rates: (LDV, 13) CO = inf is not finite" in report
        assert all("not finite" in line for line in report)

    @pytest.mark.parametrize("name, far", [("A", 1e308), ("f", 1e-320)])
    def test_validation_bounds_vsp_at_the_speed_limit(self, tables, name, far):
        # The rule is tight: with the last value of the coefficient whose VSP
        # at V = a = MAX_SPEED_MPS is finite, no step overflows and the table
        # is clean; one ulp further, that VSP is inf and the table is not.
        import numpy as np
        from movestar.core import MAX_SPEED_MPS, specific_power
        from movestar.tables import TableSet
        base = tables.params[SourceType.LDV]
        bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
        value = lambda b: struct.unpack("<d", struct.pack("<q", b))[0]
        with_value = lambda b: base._replace(**{name: value(b)})
        ok, over = bits(1.0), bits(far)
        while abs(over - ok) > 1:   # positive floats order as their bits
            mid = (ok + over) // 2
            if math.isfinite(specific_power(with_value(mid), MAX_SPEED_MPS, MAX_SPEED_MPS)):
                ok = mid
            else:
                over = mid
        want = ("params[LDV]: VSP overflows at 100.0 m/s: "
                "(A*V + B*V*V + C*V*V*V + M*V*V) / f = inf")
        for b, report in ((ok, []), (over, [want])):
            table = TableSet(params={**tables.params, SourceType.LDV: with_value(b)},
                             rates=tables.rates, provenance="")
            assert validate_table_set(table) == report
        v = np.array([0.0, MAX_SPEED_MPS, 0.0, MAX_SPEED_MPS, MAX_SPEED_MPS])
        a = np.array([0.0, MAX_SPEED_MPS, -MAX_SPEED_MPS, 0.0, -0.0])
        with np.errstate(all="raise"):
            assert np.isfinite(specific_power(with_value(ok), v, a)).all()
            with pytest.raises(FloatingPointError):
                specific_power(with_value(over), v, a)

    def test_validation_report_names_injected_negative(self, tables):
        from movestar.core import EmissionVector, RateTable
        from movestar.tables import TableSet
        entries = dict(tables.rates.entries)
        key = (SourceType.LDV, 13)
        entries[key] = EmissionVector(*[-1.0 if i == 1 else x
                                        for i, x in enumerate(entries[key].as_tuple())])
        bad = TableSet(params=tables.params,
                       rates=RateTable(entries=entries, units=tables.rates.units),
                       provenance=tables.provenance)
        report = validate_table_set(bad)
        assert len(report) == 1
        assert "(LDV, 13) CO" in report[0]

    def test_validation_reports_a_row_keyed_by_another_type(self, tables):
        from movestar.tables import TableSet
        params = {**tables.params, SourceType.LDV: tables.params[SourceType.LDT]}
        bad = TableSet(params=params, rates=tables.rates, provenance=tables.provenance)
        assert validate_table_set(bad) == ["params: row keyed LDV carries LDT"]

    def test_validation_reports_a_unit_on_an_unmapped_column(self, tables):
        from movestar.core import RateTable
        from movestar.tables import TableSet
        units = {**tables.rates.units, "bogus": "kJ/h"}
        bad = TableSet(params=tables.params,
                       rates=RateTable(entries=tables.rates.entries, units=units),
                       provenance=tables.provenance)
        assert validate_table_set(bad) == ["rates: bogus takes no unit, got 'kJ/h'"]
