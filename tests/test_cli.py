"""CLI behavior: determinism, exit codes, output file formats."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movestar
from movestar import flatapi
from movestar.cli import main
from movestar.tables import ENV_TABLES_DIR

from conftest import FIXTURE_CYCLES


@pytest.fixture()
def cycle_file(tmp_path):
    path = tmp_path / "cycle.csv"
    lines = [f"{t},{v}" for t, v in enumerate(FIXTURE_CYCLES["sawtooth_0_30_0"])]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRun:
    def test_writes_er_and_ef(self, cycle_file, capsys):
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1") == 0
        er = cycle_file.with_name("cycle_ER.csv")
        ef = cycle_file.with_name("cycle_EF.csv")
        assert er.exists() and ef.exists()
        out = capsys.readouterr().out
        assert "cycle_ER.csv" in out and "cycle_EF.csv" in out

        er_lines = [ln for ln in er.read_text().splitlines() if not ln.startswith("#")]
        assert er_lines[0] == "t,opmode,energy,CO,HC,NOx,CO2"
        assert er_lines[-1].startswith("TOTAL,,")
        # one row per second plus header and total
        assert len(er_lines) == len(FIXTURE_CYCLES["sawtooth_0_30_0"]) + 2

        ef_lines = [ln for ln in ef.read_text().splitlines() if not ln.startswith("#")]
        assert ef_lines[0] == "species,value,unit_per_km"
        assert ef_lines[1].startswith("energy,")
        assert ef_lines[-1].startswith("distance_km,")

    def test_byte_identical_reruns(self, cycle_file, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli("run", "--cycle", cycle_file, "--veh", "2", "--out", out1) == 0
        assert run_cli("run", "--cycle", cycle_file, "--veh", "2", "--out", out2) == 0
        for suffix in ("_ER.csv", "_EF.csv"):
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b

    def test_out_prefix_is_a_literal_string(self, cycle_file, tmp_path, capsys):
        # A prefix ending in "/" names files inside that directory.
        od = tmp_path / "od"
        od.mkdir()
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1", "--out", f"{od}/") == 0
        assert sorted(p.name for p in od.iterdir()) == ["_EF.csv", "_ER.csv"]
        assert not (tmp_path / "od_ER.csv").exists()
        assert f"{od}/_ER.csv, {od}/_EF.csv" in capsys.readouterr().out
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1", "--out", od / "x") == 0
        for suffix in ("_ER.csv", "_EF.csv"):
            assert (od / ("x" + suffix)).read_bytes() == (od / suffix).read_bytes()

    def test_veh_selects_truck(self, cycle_file, tmp_path):
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1",
                       "--out", tmp_path / "ldv") == 0
        assert run_cli("run", "--cycle", cycle_file, "--veh", "2",
                       "--out", tmp_path / "ldt") == 0
        ldv = (tmp_path / "ldv_ER.csv").read_text()
        ldt = (tmp_path / "ldt_ER.csv").read_text()
        assert ldv != ldt

    def test_mph_unit_flag(self, tmp_path):
        path = tmp_path / "mph.csv"
        path.write_text("0,0\n1,10\n2,20\n")
        assert run_cli("run", "--cycle", path, "--unit", "mph", "--veh", "1") == 0

    def test_zero_distance_prints_undefined(self, tmp_path, capsys):
        path = tmp_path / "idle.csv"
        path.write_text("\n".join(f"{t},0.0" for t in range(5)) + "\n")
        assert run_cli("run", "--cycle", path, "--veh", "1") == 0
        assert "EF: undefined (zero distance)" in capsys.readouterr().out
        ef_lines = (tmp_path / "idle_EF.csv").read_text().splitlines()
        assert any(ln.startswith("energy,undefined,") for ln in ef_lines)
        subnormal = tmp_path / "subnormal.csv"   # 5e-324 m is 0.0 km
        subnormal.write_text("0,5e-324\n")
        assert run_cli("factors", "--cycle", subnormal, "--veh", "1") == 0
        assert "EF: undefined (zero distance)" in capsys.readouterr().out


class TestExitCodes:
    def test_empty_cycle_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("# no rows\n")
        assert run_cli("run", "--cycle", path, "--veh", "1") == 1
        assert "cycle" in capsys.readouterr().err

    def test_missing_cycle_file(self, tmp_path):
        assert run_cli("run", "--cycle", tmp_path / "nope.csv", "--veh", "1") == 1

    def test_negative_speed_input_error(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,1.0\n1,-2.0\n")
        assert run_cli("run", "--cycle", path, "--veh", "1") == 1

    def test_table_error_exit_2(self, cycle_file, tmp_path):
        bad = tmp_path / "tables"
        bad.mkdir()
        (bad / "params.csv").write_text("source_type,A,B,C,M,f\n")
        (bad / "rates.csv").write_text("source_type,opmode,energy,CO,HC,NOx,CO2\n")
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1",
                       "--tables", bad) == 2

    def test_missing_tables_dir_exit_2(self, cycle_file, tmp_path):
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1",
                       "--tables", tmp_path / "absent") == 2

    def test_malformed_corpus_stays_in_code_set(self, tmp_path):
        cases = ["not,a,number,of,columns\n", "0,abc\n", "0,1.0\n0,-1\n", ""]
        for i, text in enumerate(cases):
            path = tmp_path / f"bad{i}.csv"
            path.write_text(text)
            code = run_cli("run", "--cycle", path, "--veh", "1")
            assert code in (1, 2)
            assert code == 1  # all of these are input-side problems


class TestOtherCommands:
    def test_factors_stdout(self, cycle_file, capsys):
        assert run_cli("factors", "--cycle", cycle_file, "--veh", "1") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "species,value,unit_per_km"
        assert out[1].startswith("energy,")
        assert any(ln.startswith("distance_km,") for ln in out)

    def test_validate_tables_ok(self, tables_dir, capsys):
        assert run_cli("validate-tables", "--tables", tables_dir) == 0
        out = capsys.readouterr().out
        assert "tables OK" in out
        assert "2 param rows" in out and "46 rate entries" in out

    def test_validate_tables_reports_violations(self, tmp_path, params_path,
                                                rates_path, capsys):
        (tmp_path / "params.csv").write_text(params_path.read_text())
        rates_text = rates_path.read_text().replace("LDV,1,450.000,4.000",
                                                    "LDV,1,450.000,-4.000")
        (tmp_path / "rates.csv").write_text(rates_text)
        assert run_cli("validate-tables", "--tables", tmp_path) == 2
        assert "CO" in capsys.readouterr().err

    # Coefficients of the right signs whose VSP at the speed limit is past
    # float range: a load rejects them, where a run would print inf VSP.
    @pytest.mark.parametrize("row", ["LDV,0.156461,0.00200193,0.000492646,1.4788,1e-320",
                                     "LDV,1e308,0.00200193,0.000492646,1.4788,1.4788"])
    def test_tables_whose_vsp_overflows(self, tmp_path, params_path, rates_path, row,
                                        capsys):
        text = params_path.read_text()
        ldv = next(ln for ln in text.splitlines() if ln.startswith("LDV,"))
        (tmp_path / "params.csv").write_text(text.replace(ldv, row))
        (tmp_path / "rates.csv").write_text(rates_path.read_text())
        trip = tmp_path / "trip.csv"
        trip.write_text("t,v\n0,0\n1,2.5\n2,5\n3,7.5\n")
        want = ("error: tables: table validation failed: params[LDV]: VSP overflows at "
                "100.0 m/s: (A*V + B*V*V + C*V*V*V + M*V*V) / f = inf\n")
        capsys.readouterr()
        assert run_cli("validate-tables", "--tables", tmp_path) == 2
        assert capsys.readouterr() == ("", want)
        assert run_cli("run", "--cycle", trip, "--veh", "1", "--tables", tmp_path) == 2
        assert capsys.readouterr() == ("", want)
        assert not trip.with_name("trip_ER.csv").exists()
        assert flatapi.create(1, str(tmp_path)) == (flatapi.ERR_TABLES, 0)

    def test_env_var_table_dir(self, cycle_file, tables_dir, monkeypatch):
        monkeypatch.setenv(ENV_TABLES_DIR, str(tables_dir))
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1") == 0

    def test_env_var_bad_dir_overridden_by_flag(self, cycle_file, tables_dir,
                                                tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_TABLES_DIR, str(tmp_path / "absent"))
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1") == 2
        assert run_cli("run", "--cycle", cycle_file, "--veh", "1",
                       "--tables", tables_dir) == 0

    def test_convert_resamples(self, tmp_path, capsys):
        sub = tmp_path / "sub.csv"
        rows = [f"{i/10},{5.0}" for i in range(30)]
        sub.write_text("\n".join(rows) + "\n")
        out = tmp_path / "onehz.csv"
        assert run_cli("convert", "--in", sub, "--out", out) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#") and ln != "t,v"]
        assert len(lines) == 3
        assert all(ln.endswith(",5.0") for ln in lines)

    def test_convert_rejects_long_gap(self, tmp_path):
        sub = tmp_path / "gap.csv"
        sub.write_text("0,1.0\n30,1.0\n")
        assert run_cli("convert", "--in", sub, "--out", tmp_path / "x.csv") == 1

    def test_demo_prints_report(self, capsys):
        assert run_cli("demo", "--distance", 240, "--cruise", 12, "--green", 25,
                       "--red", 30, "--offset", 28, "--veh", 1) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "species,baseline_total,smoothed_total,delta_pct"
        assert any(ln.startswith("glide_used,1") for ln in out)

    def test_demo_deterministic(self, capsys):
        args = ("demo", "--distance", 240, "--cruise", 12, "--green", 25,
                "--red", 30, "--offset", 28)
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == first

    def test_demo_bad_scenario(self, capsys):
        assert run_cli("demo", "--distance", 100, "--cruise", 0.2, "--green", 10,
                       "--red", 10) == 1

    # Whole stdout of three scenarios, pinned: a glide, a green arrival, and
    # a red too long for any glide, which falls back to the stop profile.
    DEMO_GOLDEN = {
        "glide": ((240, 12, 25, 30, 28), """\
species,baseline_total,smoothed_total,delta_pct
energy,27.636111111,20.952777778,-24.183335
CO,0.170555556,0.122666667,-28.078176
HC,0.008672222,0.007177778,-17.232543
NOx,0.017750000,0.012805556,-27.856025
CO2,87.458314722,66.316502500,-24.173587
distance_m,492.000000,492.000000,
duration_s,51,49,
glide_used,1,8.081633,
"""),
        "green_arrival": ((150, 12, 30, 30, 0), """\
species,baseline_total,smoothed_total,delta_pct
energy,12.191666667,12.191666667,0.000000
CO,0.064166667,0.064166667,0.000000
HC,0.004583333,0.004583333,0.000000
NOx,0.007333333,0.007333333,0.000000
CO2,38.597221667,38.597221667,0.000000
distance_m,396.000000,396.000000,
duration_s,33,33,
glide_used,1,12.000000,
"""),
        "infeasible_long_red": ((240, 12, 5, 200, 40), """\
species,baseline_total,smoothed_total,delta_pct
energy,44.886111111,44.886111111,0.000000
CO,0.323888889,0.323888889,0.000000
HC,0.022088889,0.022088889,0.000000
NOx,0.031166667,0.031166667,0.000000
CO2,141.949263056,141.949263056,0.000000
distance_m,492.000000,492.000000,
duration_s,189,189,
glide_used,0,,
"""),
    }

    @pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
    def test_demo_golden_stdout(self, capsys, name):
        (distance, cruise, green, red, offset), expected = self.DEMO_GOLDEN[name]
        assert run_cli("demo", "--distance", distance, "--cruise", cruise, "--green", green,
                       "--red", red, "--offset", offset) == 0
        assert capsys.readouterr().out == expected


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["run", "factors"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_speed_is_input_error(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1.0\n1,{bad}\n2,1.0\n")
        assert run_cli(command, "--cycle", path, "--veh", "1") == 1
        assert capsys.readouterr().err.startswith("error: cycle:")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_names_its_line(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1.0\n{bad},1.0\n2,1.0\n")
        assert run_cli("run", "--cycle", path, "--veh", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cycle:") and "line 2" in err
        assert run_cli("convert", "--in", path, "--out", tmp_path / "out.csv") == 1
        assert "line 2" in capsys.readouterr().err


class TestInputBoundary:
    @pytest.mark.parametrize("body", ["0,1\n1e18,1\n", "-1e18,1\n1e18,1\n", "0,1\n1e300,2\n"])
    def test_absurd_timestamp_span_is_input_error(self, tmp_path, capsys, body):
        """Each gap is one short error line, however long: its length
        prints in scientific notation from 1e15 s on."""
        path = tmp_path / "span.csv"
        path.write_text(body)
        assert run_cli("factors", "--cycle", path, "--veh", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cycle: gap of")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert run_cli("convert", "--in", path, "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr().err.startswith("error: trace: gap of")

    @pytest.mark.parametrize("speed", ["1e300", "1e308"])
    def test_speed_over_the_limit_is_input_error(self, tmp_path, capsys, speed):
        path = tmp_path / "fast.csv"
        path.write_text(f"0,1.0\n1,{speed}\n")
        assert run_cli("factors", "--cycle", path, "--veh", "1") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cycle: speed {float(speed)!r} m/s at line 2 "
                       "is over the 100.0 m/s limit\n")

    # Two finite speeds whose window sum overflows, and one raw sample over
    # the bound in a window whose mean (80 m/s) is under it.
    @pytest.mark.parametrize("body,line", [("0,1e308\n0.5,1e308\n", 1),
                                           ("0,1\n1,10\n1.5,150\n2,1\n", 3)])
    def test_raw_speed_over_the_limit_names_its_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "fast.csv"
        path.write_text(body)
        speed = float(body.splitlines()[line - 1].split(",")[1])
        message = f"speed {speed!r} m/s at line {line} is over the 100.0 m/s limit\n"
        assert run_cli("factors", "--cycle", path, "--veh", "1") == 1
        assert capsys.readouterr() == ("", "error: cycle: " + message)
        assert run_cli("convert", "--in", path, "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr() == ("", "error: trace: " + message)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("body,line", [("0,1\n0.5,nan\n1,2\n", 2), ("nan\n", 1)])
    def test_raw_nan_speed_names_its_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "nan.csv"
        path.write_text(body)
        message = f"non-finite speed nan at line {line}\n"
        assert run_cli("factors", "--cycle", path, "--veh", "1") == 1
        assert capsys.readouterr() == ("", "error: cycle: " + message)
        assert run_cli("convert", "--in", path, "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr() == ("", "error: trace: " + message)
        assert not (tmp_path / "out.csv").exists()

    TOKENS = [b"nan", b"inf", b"-inf", b"5e-324", b"1e18", b"-1e18", b"1e308", b"t", b"#",
              b",", b"\n", b"\xff", b"0", b"1.5", b"-1", b" "]

    @staticmethod
    def exit_code(*argv):
        try:
            return run_cli(*argv)
        except SystemExit as exc:
            return exc.code

    @settings(max_examples=200, deadline=None)
    @given(body=st.one_of(st.binary(max_size=64),
                          st.lists(st.sampled_from(TOKENS), max_size=20).map(b"".join)))
    def test_any_trace_body_exits_0_1_or_2(self, tmp_path_factory, body):
        directory = tmp_path_factory.getbasetemp()
        path = directory / "fuzz.csv"
        path.write_bytes(body[:64])
        assert self.exit_code("factors", "--cycle", path, "--veh", "1") in (0, 1, 2)
        out = directory / "fuzz_1hz.csv"
        assert self.exit_code("convert", "--in", path, "--out", out) in (0, 1, 2)

    @pytest.mark.parametrize("command,out", [("run", "absent/x"), ("run", "a_file/x"),
                                             ("convert", "")])
    def test_unwritable_output_is_one_error_line(self, tmp_path, cycle_file, capsys,
                                                 command, out):
        (tmp_path / "a_file").write_text("")
        source = {"run": ("--cycle", cycle_file, "--veh", "1"), "convert": ("--in", cycle_file)}
        assert run_cli(command, *source[command], "--out", tmp_path / out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--cycle", "{cycle}", "--veh", "1", "--out", "{tmp}/trip"],
        ["factors", "--cycle", "{cycle}", "--veh", "2"],
        ["validate-tables"],
        ["convert", "--in", "{cycle}", "--out", "{tmp}/onehz.csv"],
        ["demo", "--distance", "240", "--cruise", "12", "--green", "25", "--red", "30"],
        ["--help"],
        ["run", "--help"],
    ])
    def test_closed_stdout_is_one_output_error(self, tmp_path, cycle_file, argv):
        """A stdout whose reader is gone fails when `main` flushes it, not at
        interpreter exit: exit 1 and one `error: output:` line. Python buffers
        a piped stdout unless PYTHONUNBUFFERED is set, so the child runs
        without it."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUNBUFFERED", ENV_TABLES_DIR)}
        env["PYTHONPATH"] = str(Path(movestar.__file__).resolve().parent.parent)
        argv = [a.format(cycle=cycle_file, tmp=tmp_path) for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "movestar.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: output:") and done.stderr.count("\n") == 1

    DEMO = {"--distance": "200", "--cruise": "15", "--green": "30", "--red": "30",
            "--offset": "0"}

    @pytest.mark.parametrize("flag,value", [("--distance", "nan"), ("--green", "nan"),
                                            ("--offset", "inf"), ("--cruise", "1e308"),
                                            ("--distance", "1e9")])
    def test_absurd_demo_argument_is_input_error(self, capsys, flag, value):
        argv = [x for item in {**self.DEMO, flag: value}.items() for x in item]
        started = time.perf_counter()
        assert run_cli("demo", *argv) == 1
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: scenario:") and err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), st.floats(0.0, 500.0), st.floats(0.0, 500.0),
                                     st.sampled_from([math.nan, math.inf, -math.inf, 5e-324,
                                                      1e-300, 1e300, 1e9])),
                           min_size=5, max_size=5))
    def test_any_demo_arguments_exit_0_or_1(self, values):
        argv = [f"{flag}={v!r}" for flag, v in zip(self.DEMO, values)]
        assert self.exit_code("demo", *argv) in (0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(in_params=st.booleans(), at=st.floats(0.0, 1.0), cut=st.integers(0, 12),
           insert=st.lists(st.sampled_from(TOKENS + [b"12.7", b"LDV", b"unit:", b"=",
                                                     b"energy=", b"A=", b"bogus=",
                                                     b"# unit: energy=g/h\n"]),
                           max_size=4).map(b"".join))
    def test_any_table_edit_exits_0_or_2(self, tmp_path_factory, tables_dir,
                                        in_params, at, cut, insert):
        directory = tmp_path_factory.getbasetemp() / "fuzz_tables"
        directory.mkdir(exist_ok=True)
        for name in ("params.csv", "rates.csv"):
            body = (tables_dir / name).read_bytes()
            if in_params == (name == "params.csv"):
                i = int(at * len(body))
                body = body[:i] + insert + body[i + cut:]
            (directory / name).write_bytes(body)
        trace = directory / "trace.csv"
        trace.write_text("0,1\n1,5\n2,9\n3,7\n")
        assert self.exit_code("validate-tables", "--tables", directory) in (0, 2)
        assert self.exit_code("factors", "--cycle", trace, "--veh", "1",
                              "--tables", directory) in (0, 2)


SMOKE_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_smoke.sh"


def test_console_smoke_script(tmp_path):
    """The smoke script CI runs on the installed console script, run here
    with `python -m movestar.cli`: every check in it must pass. Its inline
    checks call `python`, which the wrapper makes this interpreter."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "python"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    wrapper.chmod(0o755)
    env = {k: v for k, v in os.environ.items() if k != ENV_TABLES_DIR}
    env["PYTHONPATH"] = str(Path(movestar.__file__).resolve().parent.parent)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    work = tmp_path / "work"
    work.mkdir()
    done = subprocess.run(["bash", str(SMOKE_SCRIPT), "all", sys.executable, "-m", "movestar.cli"],
                          cwd=work, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
