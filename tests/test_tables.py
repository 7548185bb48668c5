"""Table asset loading, validation and round-trip tests."""

import pytest

from movestar.core import EmissionVector, RateTable, SourceType, VALID_OPMODE_IDS
from movestar.errors import (
    IncompleteTable,
    SchemaError,
    TableError,
    TableParseError,
    UnitError,
)
from movestar.tables import (
    load_table_set,
    serialize_table_set,
    validate_table_set,
)

from conftest import scaled_rates


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
        assert repr(RateTable({}, {"CO": "g/h"})) == "RateTable(entries={}, units={'CO': 'g/h'})"
        assert rates.per_second is rates.per_second and rates.grams is rates.grams

    def test_incomplete_rate_table_raises_on_first_use(self, tables):
        entries = dict(tables.rates.entries)
        del entries[(SourceType.LDT, 40)]
        rates = RateTable(entries, tables.rates.units)
        assert rates.missing() == [("LDT", 40)]
        for _ in range(2):
            with pytest.raises(IncompleteTable):
                rates.per_second


def _without(prefix):
    """An edit of the rates text that drops its lines starting with `prefix`."""
    def edit(params, rates):
        return params, "".join(ln for ln in rates.splitlines(True) if not ln.startswith(prefix))
    return edit


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
]


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
        _copy_assets(tmp_path, params_path, rates_path, _without("# unit:"))
        assert main(["validate-tables", "--tables", str(tmp_path)]) == EXIT_TABLES
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tables: table validation failed: {NO_RATE_UNITS}\n"

    def test_missing_mode_row(self, tmp_path, params_path, rates_path):
        def drop_mode_33(params, rates):
            lines = [ln for ln in rates.splitlines() if not ln.startswith("LDV,33,")]
            return params, "\n".join(lines) + "\n"
        p, r = _copy_assets(tmp_path, params_path, rates_path, drop_mode_33)
        with pytest.raises(IncompleteTable) as exc:
            load_table_set(p, r)
        assert ("LDV", 33) in exc.value.missing

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
