"""Streaming session tests: batch equivalence, errors, flat surface."""

import math
import re
import shutil
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movestar import flatapi
from movestar.core import (
    BRAKE_DECEL_MPHPS,
    BRAKE_SOFT_DECEL_MPHPS,
    MPS_PER_MPH,
    DriveCycle,
    EmissionVector,
    OpMode,
    RateTable,
    SourceType,
    aggregate_cycle,
    classify_opmode_array,
    is_soft_decel,
    per_second_emissions,
    specific_power,
)
from movestar.cycleio import RawTrace
from movestar.errors import (CycleError, EmptySession, IncompleteTable, InvalidSample,
                             NegativeSpeed, UnknownSourceType)
from movestar.model import (
    _HARD_DECEL_MPS2,
    _MODE_GRID,
    _SOFT_DECEL_MPS2,
    _SPEED_CLASS_EDGES_MPH,
    _SPEED_CLASS_EDGES_MPS,
)
from movestar.session import session_create, session_finalize, session_step
from movestar.tables import load_tables_from_dir

from conftest import FIXTURE_CYCLES, MPH, in_order_sum
from reference_pipeline import opmode_from_mph, run_reference


def around(x):
    """`x` and the floats one ulp either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


BOUNDARY_SPEEDS = [0.0, 5.0, 99.0, 100.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 150.0,
                   math.nextafter(100.0, math.inf)]
EDGE_SPEEDS = [v for mph in (1.0, 25.0, 50.0) for v in around(mph * MPH)] + [0.0, -0.0]
EDGE_ACCELS = [a for mphps in (-2.0, -1.0) for a in around(mphps * MPH)] + [0.0, -0.0]
VSP_EDGES = (0.0, 3.0, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0)
SOFT_STEP = 1.5 * MPH       # a deceleration of 1.5 mph/s: soft, not braking


def first_error(build):
    """The class and message of the `CycleError` that `build()` raises, or None."""
    try:
        build()
    except CycleError as exc:
        return type(exc), str(exc)
    return None


def prev_at_vsp_edge(params, v, edge, below):
    """The previous speed whose step to `v` puts VSP on the smallest float at
    or above `edge` (or, `below`, on the largest float under it)."""
    p = params
    prev = v - (edge * p.f - (p.A * v + p.B * v * v + p.C * v * v * v)) / (p.M * v)
    for _ in range(64):     # VSP falls as `prev` rises
        if prev < 0.0:
            return 0.0
        up = math.nextafter(prev, math.inf)
        if specific_power(p, v, v - prev) < edge:
            prev = math.nextafter(prev, -math.inf)
        elif specific_power(p, v, v - up) >= edge:
            prev = up
        else:
            break
    return up if below else prev


def approach(params, run, v, target):
    """Speeds that end at `v` after `run` soft decelerations and then one
    second whose acceleration is `target`: ("a", value), or ("vsp", edge,
    below), which puts VSP just at or just under that bin edge."""
    if target[0] == "vsp" and v > 0.0:
        prev = prev_at_vsp_edge(params, v, *target[1:])
    else:
        prev = max(v - (target[1] if target[0] == "a" else 0.0), 0.0)
    return [prev + j * SOFT_STEP for j in range(run, 0, -1)] + [prev, v]


segments = st.tuples(
    st.sampled_from([0, 1, 2, 3]),
    st.one_of(st.sampled_from(EDGE_SPEEDS), st.floats(0.0, 40.0)),
    st.one_of(st.sampled_from(EDGE_ACCELS).map(lambda a: ("a", a)),
              st.tuples(st.just("vsp"), st.sampled_from(VSP_EDGES), st.booleans())),
)


# Speeds a cycle, a trace and a session reject as not numbers: each list, the
# index of its first bad value, and that value's words in the error, or None
# for numpy's own repr of a time value.
NOT_NUMBERS = [
    (["5"], 0, "'5'"), ([b"5"], 0, "b'5'"), ([None], 0, "None"), ([1.0, "5"], 1, "'5'"),
    ([2.0, 3.0, None, "x"], 2, "None"), (np.array(["5"]), 0, "'5'"),
    (np.array([1 + 5j]), 0, "(1+5j)"), ([1.0, np.complex64(2 + 3j)], 1, "(2+3j)"),
    ([np.complex128(3 + 4j)], 0, "(3+4j)"), ([4.0, 2 + 0j], 1, "(2+0j)"),
    (np.array([5], dtype="timedelta64[s]"), 0, None),
    (np.array(["2020-01-01"], dtype="datetime64[D]"), 0, None),
]


class TestSessionBasics:
    def test_create_fresh(self, tables):
        s = session_create(SourceType.LDV, tables)
        assert s.step_count == 0
        assert s.running_totals.as_tuple() == (0.0,) * 5
        assert s.prev_speed is None

    def test_create_by_code_and_token(self, tables):
        assert session_create(1, tables).params.source_type is SourceType.LDV
        assert session_create(2, tables).params.source_type is SourceType.LDT
        assert session_create("ldt", tables).params.source_type is SourceType.LDT

    def test_unknown_type(self, tables):
        with pytest.raises(UnknownSourceType):
            session_create(3, tables)
        with pytest.raises(UnknownSourceType):
            session_create("BUS", tables)

    def test_first_step_standstill_is_idle(self, tables):
        s = session_create(SourceType.LDV, tables)
        mode, vec = session_step(s, 0.0)
        assert mode is OpMode.IDLE
        idle = per_second_emissions(tables.rates.entries[(SourceType.LDV, 1)])
        assert vec == idle

    def test_negative_speed_leaves_session_unchanged(self, tables):
        s = session_create(SourceType.LDV, tables)
        session_step(s, 5.0)
        snapshot = (s.step_count, s.prev_speed, s.distance_m, s.running_totals)
        with pytest.raises(NegativeSpeed, match="^negative speed -1.0 at second 1$"):
            session_step(s, -1.0)
        assert (s.step_count, s.prev_speed, s.distance_m, s.running_totals) == snapshot

    @pytest.mark.parametrize("speed, error, message", [
        (math.nan, InvalidSample, "non-finite speed nan at second 1"),
        (math.inf, InvalidSample, "non-finite speed inf at second 1"),
        (np.float64(math.nan), InvalidSample, "non-finite speed nan at second 1"),
        (np.float64(-2.0), NegativeSpeed, "negative speed -2.0 at second 1"),
        (np.float64(200.0), InvalidSample, "speed 200.0 at second 1 is over the 100.0 m/s limit"),
    ])
    def test_rejected_speed_names_its_second(self, tables, speed, error, message):
        s = session_create(SourceType.LDV, tables)
        session_step(s, 5.0)
        snapshot = (s.step_count, s.prev_speed, s.distance_m, s.running_totals)
        with pytest.raises(error) as info:
            session_step(s, speed)
        assert type(info.value) is error
        assert str(info.value) == message
        assert (s.step_count, s.prev_speed, s.distance_m, s.running_totals) == snapshot

    @settings(max_examples=400, deadline=None)
    @given(speeds=st.lists(st.sampled_from(BOUNDARY_SPEEDS), min_size=1, max_size=6))
    @example(speeds=[math.nextafter(100.0, math.inf), math.inf, 100.0, 5.0])
    @example(speeds=[math.nan, 1.0, -2.0])
    def test_cycle_session_and_trace_name_the_same_bad_speed(self, tables, speeds):
        """A cycle, a session stepped until it raises and an m/s raw trace
        name the first bad sample alike; the trace says `sample` for `second`
        and puts its unit after the value."""
        def step_all():
            s = session_create(SourceType.LDV, tables)
            for v in speeds:
                session_step(s, v)

        cycle = first_error(lambda: DriveCycle(speeds))
        assert first_error(step_all) == cycle
        raw = first_error(lambda: RawTrace(np.arange(len(speeds), dtype=float), speeds, "m/s"))
        if raw is not None:
            raw = raw[0], raw[1].replace("sample", "second").replace(" m/s at ", " at ")
        assert raw == cycle

    @pytest.mark.parametrize("speeds, at, shown", NOT_NUMBERS,
                             ids=[f"speeds{i}-{at}" for i, (_, at, _) in enumerate(NOT_NUMBERS)])
    def test_a_speed_that_is_not_a_number_is_a_type_error(self, tables, speeds, at, shown):
        """numpy would read "5" as 5.0, None as NaN, a complex value as its
        real part and a time as a count of its units; a session's step raises
        TypeError, and so do a cycle and a raw trace, naming the value (a str,
        bytes or complex one as Python shows it) and its index."""
        s = session_create(SourceType.LDV, tables)
        with pytest.raises(TypeError):
            for v in speeds:
                session_step(s, v)
        assert s.step_count == at
        shown = re.escape(repr(speeds[at]) if shown is None else shown)
        with pytest.raises(TypeError, match=f"^speed {shown} at second {at} is not a number$"):
            DriveCycle(speeds)
        with pytest.raises(TypeError, match=f"^speed {shown} at sample {at} is not a number$"):
            RawTrace(np.arange(len(speeds), dtype=float), speeds, "m/s")

    def test_a_timestamp_that_is_not_a_number_is_a_type_error(self):
        with pytest.raises(TypeError, match="^timestamp '0' at sample 0 is not a number$"):
            RawTrace(t=["0"], v=["5"], unit="m/s")
        with pytest.raises(TypeError, match="^timestamp None at sample 1 is not a number$"):
            RawTrace(t=[0.0, None], v=[1.0, 2.0], unit="m/s")
        with pytest.raises(TypeError, match=r"^timestamp 1j at sample 1 is not a number$"):
            RawTrace(t=[0.0, 1j], v=[1.0, 2.0], unit="m/s")
        for t in (np.array([0, 1], dtype="datetime64[s]"), np.array([0, 1], dtype="m8[s]")):
            with pytest.raises(TypeError, match=f"^timestamp {re.escape(repr(t[0]))} at sample 0"
                                                " is not a number$"):
                RawTrace(t=t, v=[1.0, 2.0], unit="m/s")

    def test_missing_entry_leaves_session_unchanged(self, tables):
        broken = dict(tables.rates.entries)
        broken.pop((SourceType.LDV, 12))
        # The table fails when built, so no session is ever built on it.
        with pytest.raises(IncompleteTable) as info:
            RateTable(entries=broken, units=dict(tables.rates.units))
        assert info.value.missing == [("LDV", 12)]
        assert str(info.value) == "rate table incomplete; missing entries: (LDV, 12)"

    def test_step_records_the_modes_finalize_reads(self, tables):
        s = session_create(SourceType.LDV, tables)
        modes = [int(session_step(s, v)[0]) for v in (0.0, 5.0, 9.0, 2.0)]
        assert (s.step_count, list(s._modes)) == (4, modes)
        assert session_finalize(s).modes.tolist() == modes

    def test_finalize_before_step(self, tables):
        s = session_create(SourceType.LDV, tables)
        with pytest.raises(EmptySession):
            session_finalize(s)

    def test_idle_session_totals(self, tables):
        s = session_create(SourceType.LDV, tables)
        for _ in range(10):
            session_step(s, 0.0)
        result = session_finalize(s)
        assert result.ef is None
        idle = per_second_emissions(tables.rates.entries[(SourceType.LDV, 1)])
        assert result.totals == in_order_sum([idle] * 10)


class TestStepGrid:
    @pytest.mark.parametrize("st", list(SourceType))
    def test_each_cell_is_its_modes_result(self, tables, st):
        grid, results = tables.rates.per_second[st].grid, tables.rates.per_second[st].results
        assert tables.rates.per_second is tables.rates.per_second
        assert [len(row) for row in grid] == [len(row) for row in _MODE_GRID]
        for i, row in enumerate(_MODE_GRID):
            for j, mode in enumerate(row):
                assert grid[i][j] is results[mode]

    def test_sessions_of_two_tables_step_on_their_own_rows(self, tables, tables_dir, tmp_path):
        # Same params and source types, every rate doubled: a grid kept per
        # source type instead of per table would give both one table's rows.
        copy = shutil.copytree(tables_dir, tmp_path / "doubled")
        lines = (copy / "rates.csv").read_text().splitlines()
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] in ("LDV", "LDT"):
                lines[i] = ",".join(cells[:2] + [repr(2 * float(x)) for x in cells[2:]])
        (copy / "rates.csv").write_text("\n".join(lines) + "\n")
        doubled = load_tables_from_dir(copy)
        speeds = [0.0, 4.0, 9.5, 17.0, 26.0, 22.0, 12.0, 3.0, 30.0, 30.5, 31.0, 0.2]
        for st in SourceType:
            plain, twice = session_create(st, tables), session_create(st, doubled)
            handles = [flatapi.create(st.code)[1], flatapi.create(st.code, str(copy))[1]]
            try:
                for v in speeds:
                    got, want = plain._advance(v), twice._advance(v)
                    assert got is tables.rates.per_second[st].results[got[1]]
                    assert want is doubled.rates.per_second[st].results[got[1]]
                    assert want[2:] == tuple(2 * x for x in got[2:])
                    assert [flatapi.step(h, v) for h in handles] == [got, want]
                assert twice.running_totals == tuple(2 * x for x in plain.running_totals)
            finally:
                for h in handles:
                    flatapi.destroy(h)


class TestStreamBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(FIXTURE_CYCLES))
    def test_fixture_cycles_bit_identical(self, name, tables):
        speeds = FIXTURE_CYCLES[name]
        batch = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                tables.params_for(SourceType.LDV), tables.rates)
        s = session_create(SourceType.LDV, tables)
        stream_modes = []
        for v in speeds:
            mode, _ = session_step(s, v)
            stream_modes.append(mode)
        result = session_finalize(s)
        assert stream_modes == batch.modes.tolist()
        assert result.totals == batch.totals
        assert result.distance_m == batch.distance_m
        assert result.ef == batch.ef
        assert result.modes.tolist() == batch.modes.tolist()
        assert result.grams.tolist() == batch.grams.tolist()

    def test_random_cycles_bit_identical(self, tables):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(1, 400))
            speeds = np.abs(np.cumsum(rng.normal(0.0, 1.2, n)))
            speeds = [float(min(v, 42.0)) for v in speeds]
            batch = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                    tables.params_for(SourceType.LDT), tables.rates)
            s = session_create(SourceType.LDT, tables)
            for v in speeds:
                session_step(s, v)
            result = session_finalize(s)
            assert result.totals == batch.totals
            assert result.ef == batch.ef
            assert result.modes.tolist() == batch.modes.tolist()

    def test_sessions_do_not_interfere(self, tables):
        a = session_create(SourceType.LDV, tables)
        b = session_create(SourceType.LDV, tables)
        session_step(a, 10.0)
        session_step(a, 12.0)
        mode_b, _ = session_step(b, 0.0)
        assert mode_b is OpMode.IDLE
        assert b.step_count == 1 and a.step_count == 2


class TestSharedClassifier:
    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(segments, min_size=1, max_size=4))
    def test_every_step_is_the_shared_classifier(self, parts, tables):
        """Each session and flat step gives the batch kernel's mode and grams
        for its second at the speed-class, braking and VSP-bin edges, after
        soft runs."""
        params = tables.params_for(SourceType.LDV)
        speeds = [v for part in parts for v in approach(params, *part)]
        batch = aggregate_cycle(DriveCycle(speeds), params, tables.rates)
        s = session_create(SourceType.LDV, tables)
        _, handle = flatapi.create(1)
        try:
            for v, want, grams in zip(speeds, batch.modes.tolist(), batch.grams.tolist()):
                mode, vec = session_step(s, v)
                assert type(mode) is OpMode and mode == want
                assert vec.as_tuple() == tuple(grams)
                assert flatapi.step(handle, v) == (flatapi.OK, want, *grams)
        finally:
            flatapi.destroy(handle)

    # Two LDV seconds whose VSP sits on a bin edge only in `specific_power`'s
    # operation order: summed as C v^3 + B v^2 + A v + M a v, the first reads
    # 2.9999999999999996 (mode 22) and the second 9.0 (mode 25).
    @pytest.mark.parametrize("speeds, vsp, mode", [
        ([15.66801702180043, 15.651101682448285], "3.0", OpMode.MID_VSP_3_6),
        ([19.52145102237396, 19.71594388402388], "8.999999999999998", OpMode.MID_VSP_6_9),
    ])
    def test_vsp_operation_order_decides_the_bin(self, speeds, vsp, mode, tables):
        p = tables.params_for(SourceType.LDV)
        v, a = speeds[1], speeds[1] - speeds[0]
        assert repr(specific_power(p, v, a)) == vsp
        reordered = (p.C * v * v * v + p.B * v * v + p.A * v + p.M * a * v) / p.f
        got = classify_opmode_array(np.array([v]), np.array([reordered]), np.array([a]))
        assert got[0] != mode
        s = session_create(SourceType.LDV, tables)
        _, handle = flatapi.create(1)
        try:
            assert [session_step(s, x)[0] for x in speeds][1] is mode
            assert [flatapi.step(handle, x)[1] for x in speeds][1] == mode
        finally:
            flatapi.destroy(handle)
        batch = aggregate_cycle(DriveCycle(speeds), p, tables.rates)
        assert batch.modes[1] == mode
        assert session_finalize(s).totals == batch.totals


class TestExactThresholds:
    """Each m/s threshold derived from an mph constant, and the floats one
    ulp either side of it, decide as dividing by MPS_PER_MPH and comparing
    with the mph constant does: in `classify_opmode_array`, the batch kernel
    and a session step, against the oracle's mph arithmetic."""

    @staticmethod
    def modes(speeds, tables, params_path, rates_path):
        """The modes of `speeds` (LDV), the same from the oracle, the kernel
        and a session."""
        want = run_reference(speeds, "LDV", params_path, rates_path)["modes"]
        batch = aggregate_cycle(DriveCycle(speeds), tables.params_for(SourceType.LDV),
                                tables.rates)
        s = session_create(SourceType.LDV, tables)
        assert [session_step(s, v)[0] for v in speeds] == batch.modes.tolist() == want
        return want

    @pytest.mark.parametrize("edge", range(len(_SPEED_CLASS_EDGES_MPH)))
    def test_speed_class_edge(self, edge, tables, params_path, rates_path):
        mph, vs = _SPEED_CLASS_EDGES_MPH[edge], around(_SPEED_CLASS_EDGES_MPS[edge])
        assert [v / MPS_PER_MPH >= mph for v in vs] == [False, True, True]
        got = classify_opmode_array(np.array(vs), np.zeros(3), np.zeros(3)).tolist()
        assert got == [opmode_from_mph(v / MPS_PER_MPH, 0.0, [], 0.0) for v in vs]
        first = [self.modes([v], tables, params_path, rates_path)[0] for v in vs]
        assert first[0] != first[1] == first[2]

    @pytest.mark.parametrize("rule", ["hard", "soft"])
    def test_braking_threshold(self, rule, tables, params_path, rates_path):
        if rule == "hard":
            accels = around(_HARD_DECEL_MPS2)
            decides = [a / MPS_PER_MPH <= BRAKE_DECEL_MPHPS for a in accels]
            assert decides == [True, True, False]
        else:
            accels = around(_SOFT_DECEL_MPS2)
            decides = [a / MPS_PER_MPH < BRAKE_SOFT_DECEL_MPHPS for a in accels]
            assert decides == [True, False, False]
            assert is_soft_decel(np.array(accels)).tolist() == decides
        # Each probe is third in a triple; the soft rule's two lead seconds
        # are soft decelerations (-1.5 mph/s).
        history = [-1.5, -1.5] if rule == "soft" else []
        lead = [h * MPS_PER_MPH for h in history] or [0.0, 0.0]
        got = classify_opmode_array(np.full(9, 10.0), np.zeros(9),
                                    np.array([x for a in accels for x in (*lead, a)]))
        assert got[2::3].tolist() == [
            opmode_from_mph(10.0 / MPS_PER_MPH, a / MPS_PER_MPH, history, 0.0) for a in accels]
        # A last step of exactly `a`: -a - (-2 a) is exact. The soft rule
        # gets two soft seconds (-0.6 m/s^2, about -1.3 mph/s) before it.
        lead = [-2.0 * accels[1] + 1.2, -2.0 * accels[1] + 0.6] if rule == "soft" else []
        for a, brakes in zip(accels, decides):
            speeds = lead + [-2.0 * a, -a]
            assert DriveCycle(speeds).a[-1] == a
            assert (self.modes(speeds, tables, params_path, rates_path)[-1] == 0) is brakes

    def test_step_result_types(self, tables):
        """`EmissionSession.step` gives an OpMode and an EmissionVector;
        `flatapi.step` and `flatapi.totals` give plain ints and floats."""
        speeds = FIXTURE_CYCLES["sawtooth_0_30_0"] + FIXTURE_CYCLES["gentle_decel"]
        s = session_create(SourceType.LDV, tables)
        _, handle = flatapi.create(1)
        try:
            for v in speeds:
                mode, vec = session_step(s, v)
                assert type(mode) is OpMode and type(vec) is EmissionVector
                status, flat_mode, *grams = flatapi.step(handle, v)
                status_totals, *sums = flatapi.totals(handle)
                assert type(status) is type(flat_mode) is type(status_totals) is int
                assert all(type(x) is float for x in grams + sums)
        finally:
            flatapi.destroy(handle)
        assert 0 in session_finalize(s).modes


class TestFlatApi:
    def setup_method(self):
        flatapi.reset_shared_tables()

    def test_a_stepped_vehicle_keeps_constant_state(self):
        _, handle = flatapi.create(1)
        speeds = [0.0, 4.0, 9.5, 17.0, 26.0, 22.0, 12.0, 3.0]
        for i in range(1000):
            flatapi.step(handle, speeds[i % 8])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(10**5):
                flatapi.step(handle, speeds[i % 8])
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # One byte per step would retain about 100 kB here.
        assert retained < 1000
        session = flatapi._sessions[handle]
        assert (session.step_count, len(session._modes)) == (101_000, 0)
        assert flatapi.finalize(handle)[0] == flatapi.OK
        flatapi.destroy(handle)

    def test_lifecycle(self, tables_dir):
        status, handle = flatapi.create(1, str(tables_dir))
        assert status == flatapi.OK and handle > 0
        status, mode, *vec = flatapi.step(handle, 0.0)
        assert status == flatapi.OK
        assert mode == 1
        assert all(x > 0.0 for x in vec)
        out = flatapi.finalize(handle)
        assert out[0] == flatapi.OK
        assert out[2] == 0  # zero distance: EF undefined
        assert flatapi.destroy(handle) == flatapi.OK
        assert flatapi.destroy(handle) == flatapi.ERR_HANDLE

    def test_matches_session_path(self, tables):
        speeds = FIXTURE_CYCLES["sawtooth_0_30_0"]
        status, handle = flatapi.create(1)
        assert status == flatapi.OK
        s = session_create(SourceType.LDV, tables)
        for v in speeds:
            flat_out = flatapi.step(handle, v)
            mode, vec = session_step(s, v)
            assert flat_out == (flatapi.OK, int(mode)) + vec.as_tuple()
        flat_final = flatapi.finalize(handle)
        result = session_finalize(s)
        assert flat_final[1] == result.distance_m
        assert flat_final[3:8] == result.totals.as_tuple()
        assert flat_final[8:13] == result.ef.as_tuple()
        flatapi.destroy(handle)

    @staticmethod
    def replay(speeds, veh, tables_dir=None):
        status, handle = flatapi.create(veh, tables_dir)
        assert status == flatapi.OK
        for v in speeds:
            assert flatapi.step(handle, v)[0] == flatapi.OK
        out = flatapi.finalize(handle)
        flatapi.destroy(handle)
        return out

    @staticmethod
    def batch_tuple(speeds, veh, tables):
        st = SourceType.from_code(veh)
        batch = aggregate_cycle(DriveCycle.from_speeds(speeds), tables.params_for(st),
                                tables.rates)
        ef = batch.ef.as_tuple() if batch.ef is not None else (0.0,) * 5
        return (flatapi.OK, batch.distance_m, int(batch.ef is not None)) \
            + batch.totals.as_tuple() + ef

    @staticmethod
    def bits(out):
        return struct.pack("<idi10d", *out)

    @pytest.mark.parametrize("veh", [1, 2])
    def test_finalize_equals_batch_on_hour_replay(self, veh, tables):
        rng = np.random.default_rng(60 + veh)
        speeds = np.clip(np.abs(np.cumsum(rng.normal(0.0, 1.2, 3600))), 0.0, 42.0).tolist()
        out = self.replay(speeds, veh)
        assert self.bits(out) == self.bits(self.batch_tuple(speeds, veh, tables))

    @staticmethod
    def with_ldv_idle_row(tables_dir, tmp_path, value):
        """A copy of the tables whose LDV idle row is `value` in every species."""
        shutil.copy(tables_dir / "params.csv", tmp_path / "params.csv")
        rates = (tables_dir / "rates.csv").read_text().splitlines(keepends=True)
        row = ",".join(["LDV", "1"] + [value] * 5) + "\n"
        rates = [row if line.startswith("LDV,1,") else line for line in rates]
        (tmp_path / "rates.csv").write_text("".join(rates))

    def test_finalize_zero_total_keeps_its_sign(self, tables_dir, tmp_path):
        # An idle row of 0.0: a standstill trip totals +0.0 in every species.
        self.with_ldv_idle_row(tables_dir, tmp_path, "0.0")
        speeds = [0.0] * 20 + [0.3, 0.0]
        out = self.replay(speeds, 1, str(tmp_path))
        want = self.batch_tuple(speeds, 1, load_tables_from_dir(tmp_path))
        assert self.bits(out) == self.bits(want)
        assert out[3:8] == (0.0,) * 5
        assert all(str(x) == "0.0" for x in out[3:8])

    def test_finalize_negative_zero_total_keeps_its_sign(self, tables_dir, tmp_path):
        # An idle row of -0.0: the batch sums a standstill trip to -0.0.
        self.with_ldv_idle_row(tables_dir, tmp_path, "-0.0")
        speeds = [0.0] * 6
        out = self.replay(speeds, 1, str(tmp_path))
        want = self.batch_tuple(speeds, 1, load_tables_from_dir(tmp_path))
        assert self.bits(out) == self.bits(want)
        assert all(str(x) == "-0.0" for x in out[3:8])

    def test_negative_zero_speeds_keep_the_distance_sign(self, tables):
        speeds = [-0.0] * 3
        out = self.replay(speeds, 1)
        assert self.bits(out) == self.bits(self.batch_tuple(speeds, 1, tables))
        s = session_create(SourceType.LDV, tables)
        for v in speeds:
            session_step(s, v)
        assert str(session_finalize(s).distance_m) == "-0.0"

    def test_finalize_before_step_is_input_error(self):
        _, handle = flatapi.create(1)
        assert flatapi.finalize(handle) == (flatapi.ERR_INPUT, 0.0, 0) + (0.0,) * 10
        flatapi.destroy(handle)

    def test_bad_vehicle_code(self):
        status, handle = flatapi.create(9)
        assert status == flatapi.ERR_TABLES and handle == 0

    def test_bad_tables_dir(self):
        status, handle = flatapi.create(1, "/nonexistent/tables")
        assert status == flatapi.ERR_TABLES and handle == 0

    def test_tables_dir_that_is_a_file(self, tmp_path):
        path = tmp_path / "tables"
        path.write_text("not a directory\n")
        assert flatapi.create(1, str(path)) == (flatapi.ERR_TABLES, 0)

    def test_negative_speed_status(self):
        _, handle = flatapi.create(1)
        out = flatapi.step(handle, -3.0)
        assert out[0] == flatapi.ERR_INPUT
        flatapi.destroy(handle)

    def test_bad_handle(self):
        assert flatapi.step(999_999, 1.0)[0] == flatapi.ERR_HANDLE
        assert flatapi.finalize(999_999)[0] == flatapi.ERR_HANDLE
        assert flatapi.totals(999_999)[0] == flatapi.ERR_HANDLE

    @pytest.mark.parametrize("handle", [[1], {}, np.array([1]), (1, [2])],
                             ids=["list", "dict", "array", "tuple_of_list"])
    def test_unhashable_handle_is_handle_status(self, handle):
        _, live = flatapi.create(1)     # handle 1 or later is live
        errors = flatapi.stats()[4]
        assert flatapi.step(handle, 5.0) == (flatapi.ERR_HANDLE, -1) + (0.0,) * 5
        assert flatapi.totals(handle) == (flatapi.ERR_HANDLE,) + (0.0,) * 6
        assert flatapi.finalize(handle) == (flatapi.ERR_HANDLE, 0.0, 0) + (0.0,) * 10
        assert flatapi.destroy(handle) == flatapi.ERR_HANDLE
        assert flatapi.stats()[4] == errors + 4
        assert flatapi.destroy(live) == flatapi.OK

    # Handles that equal live handle 1 but are not ints: a dict lookup alone
    # would step, read or destroy vehicle 1 through them.
    @pytest.mark.parametrize("alias", [float, bool, np.int64, Fraction, Decimal, complex],
                             ids=["float", "bool", "np_int64", "fraction", "decimal", "complex"])
    def test_handle_that_is_not_an_int_is_handle_status(self, alias, monkeypatch):
        monkeypatch.setattr(flatapi, "_sessions", {})
        monkeypatch.setattr(flatapi, "_next_handle", 1)
        assert flatapi.create(1) == (flatapi.OK, 1)
        assert flatapi.step(1, 5.0)[0] == flatapi.OK
        handle = alias(1)
        assert handle == 1 and hash(handle) == hash(1)
        errors = flatapi.stats()[4]
        assert flatapi.step(handle, 6.0) == (flatapi.ERR_HANDLE, -1) + (0.0,) * 5
        assert flatapi.totals(handle) == (flatapi.ERR_HANDLE,) + (0.0,) * 6
        assert flatapi.finalize(handle) == (flatapi.ERR_HANDLE, 0.0, 0) + (0.0,) * 10
        assert flatapi.destroy(handle) == flatapi.ERR_HANDLE
        assert flatapi.stats()[4] == errors + 4
        assert flatapi.totals(1)[:2] == (flatapi.OK, 5.0)     # one step, still live
        assert flatapi.destroy(1) == flatapi.OK

    @pytest.mark.parametrize("tables_dir", [123, b"/x", "\x00x", ["x"]],
                             ids=["int", "bytes", "nul", "list"])
    def test_unusable_tables_dir_is_table_status(self, tables_dir):
        errors = flatapi.stats()[3]
        assert flatapi.create(1, tables_dir=tables_dir) == (flatapi.ERR_TABLES, 0)
        assert flatapi.stats()[3] == errors + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_speed_leaves_the_session_unchanged(self, bad):
        _, handle = flatapi.create(1)
        for v in (5.0, 7.5):
            flatapi.step(handle, v)
        session = flatapi._sessions[handle]
        before = (flatapi.totals(handle), session.step_count, session.prev_speed)
        assert flatapi.step(handle, bad) == (flatapi.ERR_INPUT, -1, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert (flatapi.totals(handle), session.step_count, session.prev_speed) == before
        flatapi.destroy(handle)

    @pytest.mark.parametrize("bad", ["5", None, [1.0], 1j, np.array([1.0, 2.0]), 10**400,
                                     np.complex128(3 + 4j), np.complex64(3 + 4j),
                                     np.timedelta64(5, "s"), np.datetime64("2020-01-01")],
                             ids=["str", "None", "list", "complex", "array", "big_int",
                                  "complex128", "complex64", "timedelta64", "datetime64"])
    def test_non_number_speed_is_input_status(self, bad, tables):
        _, handle = flatapi.create(1)
        flatapi.step(handle, 5.0)
        session = flatapi._sessions[handle]
        before = (flatapi.totals(handle), session.step_count, session.prev_speed)
        errors = flatapi.stats()[2]
        assert flatapi.step(handle, bad) == (flatapi.ERR_INPUT, -1, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert flatapi.stats()[2] == errors + 1
        assert (flatapi.totals(handle), session.step_count, session.prev_speed) == before
        flatapi.destroy(handle)
        with pytest.raises((TypeError, ValueError, OverflowError)):
            session_step(session_create(SourceType.LDV, tables), bad)

    @pytest.mark.parametrize("speed,as_float", [(np.float64(12.5), 12.5), (12, 12.0),
                                                (-0.0, 0.0)])
    def test_speed_types_give_the_float_result(self, speed, as_float):
        results = []
        for first in (speed, as_float):
            _, handle = flatapi.create(1)
            results.append([flatapi.step(handle, v) for v in (first, 10.0)])
            flatapi.destroy(handle)
        assert results[0] == results[1]
        for out in results[0] + [flatapi.step(999_999, 1.0)]:
            assert type(out[0]) is int and type(out[1]) is int

    def test_stats_counts_handles_steps_and_errors(self):
        live, steps, *errors = flatapi.stats()
        _, a = flatapi.create(1)
        _, b = flatapi.create(2)
        for v in (0.0, 1.0, 2.0):
            flatapi.step(a, v)
        flatapi.step(b, 4.0)
        flatapi.totals(a)
        flatapi.finalize(a)
        assert flatapi.stats() == (live + 2, steps + 4, *errors)

        flatapi.step(a, -1.0)
        flatapi.step(a, math.nan)
        assert flatapi.destroy(a) == flatapi.OK
        flatapi.step(a, 1.0)
        flatapi.totals(a)
        flatapi.finalize(a)
        flatapi.destroy(a)
        flatapi.create(9)
        _, c = flatapi.create(1)
        flatapi.finalize(c)
        assert flatapi.stats() == (live + 2, steps + 4,
                                   errors[0] + 3, errors[1] + 1, errors[2] + 4)
        flatapi.destroy(b)
        flatapi.destroy(c)
        assert flatapi.stats()[:2] == (live, steps + 4)

    # True == 1.0 == 1, but only an int code (or a token) names a vehicle.
    @pytest.mark.parametrize("code", [True, False, 1.0], ids=["true", "false", "float"])
    def test_vehicle_code_that_is_not_an_int_is_table_status(self, code, tables):
        with pytest.raises(UnknownSourceType):
            session_create(code, tables)
        errors = flatapi.stats()[3]
        assert flatapi.create(code) == (flatapi.ERR_TABLES, 0)
        assert flatapi.stats()[3] == errors + 1

    @pytest.mark.parametrize("code", [True, False])
    def test_bool_code_names_no_source_type(self, code):
        with pytest.raises(UnknownSourceType):
            SourceType.from_code(code)

    def test_each_tables_dir_loads_once(self, tables_dir, tmp_path, monkeypatch):
        loads = []

        def counted(directory):
            loads.append(str(directory))
            return load_tables_from_dir(directory)
        monkeypatch.setattr(flatapi, "load_tables_from_dir", counted)
        shutil.copytree(tables_dir, tmp_path / "copy")
        shutil.copytree(tables_dir, tmp_path / "sub" / "copy")
        handles = []

        def create(where):
            status, handle = flatapi.create(1, where)
            assert status == flatapi.OK
            handles.append(handle)
            return flatapi._sessions[handle].rates
        first = create(str(tables_dir))
        assert create(tables_dir) is first and create(str(tables_dir)) is first
        # Spellings of one directory share its set; a relative path means the
        # directory it names from the working directory at the call.
        copy = create(tmp_path / "copy")
        assert copy is not first
        monkeypatch.chdir(tmp_path)
        assert create("copy") is create("copy/") is create("./copy") is copy
        monkeypatch.chdir(tmp_path / "sub")
        assert create("copy") is not copy
        assert loads == [str(tables_dir), str(tmp_path / "copy"), str(tmp_path / "sub" / "copy")]
        # A load that raised is not kept; the default set is kept on its own.
        missing = str(tmp_path / "missing")
        assert flatapi.create(1, missing) == flatapi.create(1, missing) == (flatapi.ERR_TABLES, 0)
        handles += [flatapi.create(2)[1], flatapi.create(2)[1]]
        assert loads[3:] == [missing, missing, str(tables_dir)]
        flatapi.reset_shared_tables()
        handles.append(flatapi.create(1, tables_dir)[1])
        assert loads[6:] == [str(tables_dir)]
        for handle in handles:
            assert flatapi.destroy(handle) == flatapi.OK
