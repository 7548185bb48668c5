"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside pytest's own pass/fail report.
"""

import time

import numpy as np
import pytest

from movestar.cli import main as cli_main
from movestar.core import (
    DriveCycle,
    EmissionVector,
    SourceType,
    VALID_OPMODE_IDS,
    VehicleParams,
    aggregate_cycle,
    classify_opmode_array,
    specific_power,
)
from movestar.cycleio import resample_speeds_to_1hz
from movestar.demo import SignalScenario, compare_scenarios, gen_smoothed_trajectory
from movestar.errors import (
    IncompleteTable,
    SchemaError,
    TableParseError,
    UnitError,
)
from movestar.session import session_create, session_finalize, session_step
from movestar.tables import load_table_set, validate_table_set

from conftest import FIXTURE_CYCLES, in_order_sum
from reference_pipeline import run_reference

MPH = 0.44704


def _report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence on fixture cycles
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(tables, params_path, rates_path):
    start = time.perf_counter()
    checked = 0
    for name in ("idle_only", "cruise_40mph", "cruise_65mph",
                 "sawtooth_0_30_0", "gentle_decel"):
        speeds = FIXTURE_CYCLES[name]
        for st in SourceType:
            ref = run_reference(speeds, st.value, params_path, rates_path)
            result = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                     tables.params_for(st), tables.rates)
            assert result.modes.tolist() == ref["modes"], name
            for got, want in zip(result.totals.as_tuple(), ref["totals"]):
                assert got == pytest.approx(want, rel=1e-9), name
            if ref["ef"] is None:
                assert result.ef is None
            else:
                for got, want in zip(result.ef.as_tuple(), ref["ef"]):
                    assert got == pytest.approx(want, rel=1e-9), name
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (oracle equivalence)",
            f"{checked} cycle runs matched the independent pipeline "
            f"(modes exact, ER/EF <= 1e-9 rel) in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. Bin partition over the (speed, VSP) lattice
# ---------------------------------------------------------------------------

# Transcribed bin tables: (vsp_lo, vsp_hi, mode) per speed class, and
# (v_lo_mph, v_hi_mph) speed classes. Written here independently of the
# engine's representation so the scan is a two-sided check.
INF = float("inf")
VSP_BINS = {
    "low": [(-INF, 0.0, 11), (0.0, 3.0, 12), (3.0, 6.0, 13), (6.0, 9.0, 14),
            (9.0, 12.0, 15), (12.0, INF, 16)],
    "mid": [(-INF, 0.0, 21), (0.0, 3.0, 22), (3.0, 6.0, 23), (6.0, 9.0, 24),
            (9.0, 12.0, 25), (12.0, 18.0, 27), (18.0, 24.0, 28),
            (24.0, 30.0, 29), (30.0, INF, 30)],
    "high": [(-INF, 6.0, 33), (6.0, 12.0, 35), (12.0, 18.0, 37),
             (18.0, 24.0, 38), (24.0, 30.0, 39), (30.0, INF, 40)],
}
SPEED_CLASSES = [(0.0, 1.0, "idle"), (1.0, 25.0, "low"),
                 (25.0, 50.0, "mid"), (50.0, INF, "high")]


def test_criterion_2_bin_partition():
    start = time.perf_counter()
    v_grid = np.round(np.arange(0.0, 45.0 + 1e-9, 0.01), 2)
    vsp_grid = np.round(np.arange(-40.0, 45.0 + 1e-9, 0.01), 2)

    # The transcribed VSP bins tile the axis: every grid point in exactly one
    # bin per class.
    class_maps = {}
    for cls, bins in VSP_BINS.items():
        hits = np.zeros(len(vsp_grid), dtype=int)
        mode_map = np.zeros(len(vsp_grid), dtype=np.int64)
        for lo, hi, mode in bins:
            mask = (vsp_grid >= lo) & (vsp_grid < hi)
            hits += mask
            mode_map[mask] = mode
        assert hits.min() == 1 and hits.max() == 1, f"class {cls} bins gap/overlap"
        class_maps[cls] = mode_map
    class_maps["idle"] = np.full(len(vsp_grid), 1, dtype=np.int64)

    # The speed classes tile the v axis: each v in exactly one class.
    v_mph = v_grid / MPH
    class_of_v = []
    for v in v_mph:
        matches = [name for lo, hi, name in SPEED_CLASSES if lo <= v < hi]
        assert len(matches) == 1, f"speed {v} mph in {len(matches)} classes"
        class_of_v.append(matches[0])

    # The engine agrees with the transcription at every lattice point.
    chunk = 128
    for i in range(0, len(v_grid), chunk):
        vs = v_grid[i:i + chunk]
        vv = np.repeat(vs, len(vsp_grid))
        pp = np.tile(vsp_grid, len(vs))
        got = classify_opmode_array(vv, pp, np.zeros_like(vv)).reshape(len(vs), len(vsp_grid))
        want = np.vstack([class_maps[class_of_v[i + j]] for j in range(len(vs))])
        assert np.array_equal(got, want)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 2 (bin partition)",
            f"{len(v_grid)}x{len(vsp_grid)} lattice: one mode per point, "
            f"no gaps/overlaps, engine == transcription in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 3. VSP analytic checks
# ---------------------------------------------------------------------------

def test_criterion_3_vsp_analytic():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        p = VehicleParams(SourceType.LDV,
                          A=float(rng.uniform(0.0, 3.0)),
                          B=float(rng.uniform(0.0, 0.05)),
                          C=float(rng.uniform(0.0, 0.01)),
                          M=float(rng.uniform(0.3, 40.0)),
                          f=float(rng.uniform(0.3, 40.0)))
        a = float(rng.uniform(-6.0, 6.0))
        assert specific_power(p, 0.0, a) == 0.0

        v = float(rng.uniform(0.0, 45.0))
        a1 = float(rng.uniform(-6.0, 6.0))
        a2 = float(rng.uniform(-6.0, 6.0))
        lhs = specific_power(p, v, a2) - specific_power(p, v, a1)
        rhs = p.M * (a2 - a1) * v / p.f
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    _report("criterion 3 (VSP analytic)",
            "v=0 -> VSP=0 and linearity-in-a identity over 1000 random draws")


# ---------------------------------------------------------------------------
# 4. Stream/batch equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_stream_batch_equivalence(tables):
    rng = np.random.default_rng(2718)
    for i in range(100):
        n = int(rng.integers(1, 601))
        walk = np.cumsum(rng.normal(0.0, 1.5, n))
        speeds = [float(np.clip(abs(v), 0.0, 44.0)) for v in walk]
        st = SourceType.LDV if i % 2 == 0 else SourceType.LDT

        batch = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                tables.params_for(st), tables.rates)
        session = session_create(st, tables)
        stream_modes = [session_step(session, v)[0] for v in speeds]
        stream = session_finalize(session)

        assert stream_modes == batch.modes.tolist()
        assert stream.totals == batch.totals          # bit-identical
        assert stream.distance_m == batch.distance_m
        assert stream.ef == batch.ef
    _report("criterion 4 (stream/batch equivalence)",
            "100 random cycles (<=600 s): identical modes, bit-identical totals")


# ---------------------------------------------------------------------------
# 5. Conservation and EF identity
# ---------------------------------------------------------------------------

def test_criterion_5_conservation_and_ef_identity(tables):
    nonzero = 0
    for name, speeds in FIXTURE_CYCLES.items():
        for st in SourceType:
            result = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                     tables.params_for(st), tables.rates)
            assert in_order_sum(EmissionVector(*g) for g in result.grams.tolist()) \
                == result.totals, name
            if result.distance_m > 0.0:
                nonzero += 1
                km = result.distance_m / 1000.0
                for ef_x, er_x in zip(result.ef.as_tuple(), result.totals.as_tuple()):
                    assert ef_x * km == pytest.approx(er_x, rel=1e-12), name
            else:
                assert result.ef is None
    assert nonzero >= 3
    _report("criterion 5 (conservation, EF identity)",
            f"sum == totals exactly on all fixtures; EF*km == ER to 1e-12 "
            f"on {nonzero} non-zero-distance runs")


# ---------------------------------------------------------------------------
# 6. Table hygiene
# ---------------------------------------------------------------------------

def _mutate_assets(tmp_path, params_path, rates_path, name, fn):
    d = tmp_path / name
    d.mkdir()
    params_text, rates_text = fn(params_path.read_text(), rates_path.read_text())
    (d / "params.csv").write_text(params_text)
    (d / "rates.csv").write_text(rates_text)
    return d / "params.csv", d / "rates.csv"


CORRUPTIONS = [
    ("missing_mode_row", IncompleteTable,
     lambda p, r: (p, "\n".join(ln for ln in r.splitlines()
                                if not ln.startswith("LDV,33,")) + "\n")),
    ("missing_source_type", IncompleteTable,
     lambda p, r: (p, "\n".join(ln for ln in r.splitlines()
                                if not ln.startswith("LDT,")) + "\n")),
    ("zero_mass", SchemaError,
     lambda p, r: (p.replace("1.4788,1.4788", "0,1.4788"), r)),
    ("negative_coefficient", SchemaError,
     lambda p, r: (p.replace("LDV,0.156461", "LDV,-0.156461"), r)),
    ("negative_rate", SchemaError,
     lambda p, r: (p, r.replace("LDV,1,450.000,4.000", "LDV,1,450.000,-4.000"))),
    ("duplicate_param_row", SchemaError,
     lambda p, r: (p + next(ln for ln in p.splitlines()
                            if ln.startswith("LDV,")) + "\n", r)),
    ("duplicate_rate_row", SchemaError,
     lambda p, r: (p, r + next(ln for ln in r.splitlines()
                               if ln.startswith("LDT,21,")) + "\n")),
    ("unknown_unit", UnitError,
     lambda p, r: (p, r.replace("energy=g/h", "energy=bogus"))),
    ("missing_column", SchemaError,
     lambda p, r: (p, r.replace("source_type,opmode,energy,CO,HC,NOx,CO2",
                                "source_type,opmode,energy,CO,HC,NOx"))),
    ("malformed_number", TableParseError,
     lambda p, r: (p, r.replace("LDV,12,1210.000", "LDV,12,xyzzy"))),
]


def test_criterion_6_table_hygiene(tables, tmp_path, params_path, rates_path):
    # Shipped assets: both source types, complete coverage of the 23-mode
    # running-exhaust set (46 entries), clean validation report.
    assert len(tables.params) == 2
    assert len(VALID_OPMODE_IDS) == 23
    assert len(tables.rates.entries) == 2 * len(VALID_OPMODE_IDS) == 46
    for st in SourceType:
        for mode in VALID_OPMODE_IDS:
            assert (st, mode) in tables.rates.entries
    assert validate_table_set(tables) == []

    assert len(CORRUPTIONS) == 10
    for name, expected_error, fn in CORRUPTIONS:
        p, r = _mutate_assets(tmp_path, params_path, rates_path, name, fn)
        with pytest.raises(expected_error):
            load_table_set(p, r)
    _report("criterion 6 (table hygiene)",
            "shipped assets validate (2 param rows, 46 rate entries, complete "
            "coverage); 10 corruptions raise their documented errors")


# ---------------------------------------------------------------------------
# 7. Resampler
# ---------------------------------------------------------------------------

def test_criterion_7_resampler():
    # 10 Hz constant: window means equal the constant.
    times = [i / 10 for i in range(50)]
    out = resample_speeds_to_1hz(times, [7.25] * 50)
    assert out == pytest.approx([7.25] * 5, rel=1e-9)

    # 10 Hz linear ramp v(t) = 2t: second k samples k*2 + (0..0.9)*2 ->
    # mean 2k + 0.9; hand-computed expectations.
    speeds = [2.0 * t for t in times]
    out = resample_speeds_to_1hz(times, speeds)
    expected = [2.0 * k + 0.9 for k in range(5)]
    for got, want in zip(out, expected):
        assert got == pytest.approx(want, rel=1e-9)

    # Idempotence on 1 Hz input.
    one_hz = [0.0, 1.0, 3.5, 3.5, 2.0]
    assert resample_speeds_to_1hz(range(5), one_hz) == one_hz
    _report("criterion 7 (resampler)",
            "10 Hz constant and ramp match hand-computed window means to 1e-9; "
            "identity on 1 Hz input")


# ---------------------------------------------------------------------------
# 8. Case-study direction
# ---------------------------------------------------------------------------

def test_criterion_8_case_study_direction(tables):
    start = time.perf_counter()
    rng = np.random.default_rng(420)
    wins = 0
    scenarios = 0
    while scenarios < 50:
        v_c = float(rng.uniform(8.0, 18.0))
        n = int(rng.integers(8, 22))
        sc = SignalScenario(
            approach_m=n * v_c,
            cruise_mps=v_c,
            green_s=float(rng.uniform(15.0, 40.0)),
            red_s=float(rng.uniform(15.0, 45.0)),
            offset_s=float(rng.uniform(0.0, 60.0)),
            source_type=SourceType.LDV if scenarios % 2 == 0 else SourceType.LDT,
        )
        if not sc.arrives_on_red or not gen_smoothed_trajectory(sc).feasible:
            continue
        scenarios += 1
        report = compare_scenarios(sc, tables)
        assert abs(report.baseline.distance_m - report.smoothed.distance_m) < 1e-6
        if (report.smoothed.totals.energy <= report.baseline.totals.energy
                and report.smoothed.totals.co2 <= report.baseline.totals.co2):
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins == 50
    assert elapsed < 5.0
    _report("criterion 8 (case-study direction)",
            f"smoothed energy and CO2 <= baseline in {wins}/50 feasible "
            f"red-arrival scenarios in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 9. CLI determinism and exit codes
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    cycle = tmp_path / "cycle.csv"
    cycle.write_text("\n".join(
        f"{t},{v}" for t, v in enumerate(FIXTURE_CYCLES["sawtooth_0_30_0"])) + "\n")

    for veh in (1, 2):
        outs = []
        for run in range(2):
            prefix = tmp_path / f"v{veh}r{run}"
            assert cli_main(["run", "--cycle", str(cycle), "--veh", str(veh),
                             "--out", str(prefix)]) == 0
            outs.append((
                (tmp_path / f"v{veh}r{run}_ER.csv").read_bytes(),
                (tmp_path / f"v{veh}r{run}_EF.csv").read_bytes(),
            ))
        assert outs[0] == outs[1]

    corpus = {
        "empty.csv": ("# nothing\n", 1),
        "negative.csv": ("0,1.0\n1,-3.0\n", 1),
        "garbage.csv": ("0,abc\n", 1),
        "backwards.csv": ("0,1.0\n2,1.0\n1,1.0\n", 1),
        "gap.csv": ("0,1.0\n30,1.0\n", 1),
    }
    seen = set()
    for name, (text, want) in corpus.items():
        path = tmp_path / name
        path.write_text(text)
        code = cli_main(["run", "--cycle", str(path), "--veh", "1"])
        assert code == want, name
        seen.add(code)
    # missing file and broken tables exercise the other codes
    assert cli_main(["run", "--cycle", str(tmp_path / "missing.csv"),
                     "--veh", "1"]) == 1
    bad_tables = tmp_path / "tables"
    bad_tables.mkdir()
    (bad_tables / "params.csv").write_text("source_type,A,B,C,M,f\n")
    (bad_tables / "rates.csv").write_text("source_type,opmode,energy,CO,HC,NOx,CO2\n")
    code = cli_main(["run", "--cycle", str(cycle), "--veh", "1",
                     "--tables", str(bad_tables)])
    assert code == 2
    seen.add(code)
    assert seen <= {0, 1, 2}
    _report("criterion 9 (CLI determinism)",
            "byte-identical reruns for both vehicle types; malformed corpus "
            "maps to documented exit codes {1,2}")
