"""Self-tests of the benchmark at tiny input sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Every workload must run and pass its checks, in timed and traced mode, and
a deliberately corrupted output must be caught by the check that guards it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from movestar import core, flatapi  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = gen.SIZES["tiny"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tables():
    return worker.load_tables()[0]


@pytest.fixture(scope="module")
def rtables():
    return worker.load_tables()[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs(tmp_path):
    a = gen.make_ingest(3, 400, tmp_path / "a.csv")
    b = gen.make_ingest(3, 400, tmp_path / "b.csv")
    c = gen.make_ingest(4, 400, tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()
    assert gen.make_fleet(3, 4, 50, (10, 30)) == gen.make_fleet(3, 4, 50, (10, 30))
    assert gen.make_scenarios(3, 10) == gen.make_scenarios(3, 10)


def test_ingest_dropouts_stay_within_the_gap_limit(tmp_path):
    ing = gen.make_ingest(11, 2000, tmp_path / "t.csv")
    windows, empty, longest = ref.window_stats(ing.times)
    assert ing.dropouts == 10 and empty > 0 and 1 <= longest <= 5


def _trip_outputs(tmp_path, tables, rtables):
    trip = gen.make_trip(2, TINY["trip_seconds"], tmp_path / "trip.csv")
    worker.trip_pass(worker.api(None), trip.path, tmp_path / "out")
    er, ef = tmp_path / "out_ER.csv", tmp_path / "out_EF.csv"
    return er, ef, ref.er_body(trip.speeds, 1, rtables), ref.ef_body(trip.speeds, 1, rtables)


def test_trip_check_catches_a_corrupted_er_row(tmp_path, tables, rtables):
    er, ef, er_body, ef_body = _trip_outputs(tmp_path, tables, rtables)
    assert ref.check_trip_files(er, ef, er_body, ef_body)
    data = er.read_bytes()
    at = data.index(b"\n100,") + 10
    er.write_bytes(data[:at] + (b"7" if data[at:at + 1] != b"7" else b"8") + data[at + 1:])
    assert not ref.check_trip_files(er, ef, er_body, ef_body)


def test_trip_check_catches_a_changed_header(tmp_path, tables, rtables):
    er, ef, er_body, ef_body = _trip_outputs(tmp_path, tables, rtables)
    ef.write_bytes(b"# provenance: something else\n" + ef.read_bytes())
    assert not ref.check_trip_files(er, ef, er_body, ef_body)


def test_ingest_check_catches_a_corrupted_window(tmp_path):
    ing = gen.make_ingest(2, TINY["ingest_seconds"], tmp_path / "trace.csv")
    out = tmp_path / "out.csv"
    worker.ingest_pass(worker.api(None), ing.path, out)
    want = ref.cycle_csv(ref.resample_1hz(ing.times, ing.speeds_kmh))
    windows = ref.window_stats(ing.times)[0]
    assert ref.check_convert_file(out, want, windows)
    lines = out.read_text().splitlines(keepends=True)
    t, v = lines[50].strip().split(",")
    lines[50] = f"{t},{float(v) + 1e-9!r}\n"
    out.write_text("".join(lines))
    assert not ref.check_convert_file(out, want, windows)


def test_ingest_check_catches_a_missing_window(tmp_path):
    ing = gen.make_ingest(2, TINY["ingest_seconds"], tmp_path / "trace.csv")
    out = tmp_path / "out.csv"
    worker.ingest_pass(worker.api(None), ing.path, out)
    want = ref.cycle_csv(ref.resample_1hz(ing.times, ing.speeds_kmh))
    windows = ref.window_stats(ing.times)[0]
    out.write_bytes(out.read_bytes().rsplit(b"\n", 2)[0] + b"\n")   # last row dropped
    assert not ref.check_convert_file(out, want, windows)
    out.unlink()
    assert not ref.check_convert_file(out, want, windows)


def test_fleet_check_catches_a_corrupted_finalize(tables, rtables):
    inp = gen.make_fleet(2, TINY["fleet_vehicles"], TINY["fleet_ticks"], TINY["fleet_trip_s"])
    p = worker.fleet_pass(worker.api(None), inp, 0)
    assert p.bad == 0 and p.trips
    assert worker.check_fleet_trips(inp, p.trips, tables, rtables) == 0
    slot, lo, hi, veh, res = p.trips[0]
    nudged = res[:4] + (res[4] * (1 + 1e-15) + 1e-300,) + res[5:]
    assert worker.check_fleet_trips(inp, [(slot, lo, hi, veh, nudged)], tables, rtables) == 1


def test_fleet_counts_non_ok_statuses():
    inp = gen.make_fleet(2, 3, 30, (10, 20))
    a = worker.api(None)
    a.flatapi_step = lambda h, v: flatapi.step(h, -1.0)     # every step is rejected
    # every step, plus the finalize of every trip, which then has no steps
    assert worker.fleet_pass(a, inp, 0).bad == 3 * 30 + inp.trips


def test_sweep_check_catches_corrupted_totals(tables, rtables):
    scenarios = [worker._scenario(s) for s in gen.make_scenarios(2, 10)]
    a = worker.api(None)
    assert worker.check_sweep(worker.sweep_pass(a, scenarios, tables)[2], rtables)[0] == 0

    def off_by_one_gram(cycle, params, rates):
        result = core.aggregate_cycle(cycle, params, rates)
        totals = dataclasses.replace(result.totals, co2=result.totals.co2 + 1.0)
        return dataclasses.replace(result, totals=totals)
    a.core_aggregate_cycle = off_by_one_gram
    outputs = worker.sweep_pass(a, scenarios, tables)[2]
    assert worker.check_sweep(outputs, rtables)[0] == len(scenarios)


def test_gc_pauses_count_only_inside_the_pass():
    t = Tracer()
    t.add("bench.pass", 1.0, 2.0)
    t.gc_start.extend([1.2, 2.5])          # one pause in the pass, one in the checks after
    t.gc_end.extend([1.3, 2.9])
    spans = t.analyse(())
    assert spans.durations_in("py.gc", "bench.pass").tolist() == pytest.approx([0.1])
    assert spans.count("py.gc") == 2
