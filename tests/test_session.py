"""Streaming session tests: batch equivalence, errors, flat surface."""

import math
import shutil
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestar import flatapi
from movestar.core import (
    _HARD_DECEL_MPS2,
    _SOFT_DECEL_MPS2,
    _SPEED_CLASS_EDGES_MPS,
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
from movestar.errors import EmptySession, IncompleteTable, NegativeSpeed, UnknownSourceType
from movestar.model import _SPEED_CLASS_EDGES_MPH
from movestar.session import EmissionSession, session_create, session_finalize, session_step
from movestar.tables import load_tables_from_dir

from conftest import FIXTURE_CYCLES, MPH, in_order_sum
from reference_pipeline import opmode_from_mph, run_reference


def around(x):
    """`x` and the floats one ulp either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EDGE_SPEEDS = [v for mph in (1.0, 25.0, 50.0) for v in around(mph * MPH)] + [0.0, -0.0]
EDGE_ACCELS = [a for mphps in (-2.0, -1.0) for a in around(mphps * MPH)] + [0.0, -0.0]
VSP_EDGES = (0.0, 3.0, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0)
SOFT_STEP = 1.5 * MPH       # a deceleration of 1.5 mph/s: soft, not braking


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
        with pytest.raises(NegativeSpeed):
            session_step(s, -1.0)
        assert (s.step_count, s.prev_speed, s.distance_m, s.running_totals) == snapshot

    def test_missing_entry_leaves_session_unchanged(self, tables):
        broken = dict(tables.rates.entries)
        broken.pop((SourceType.LDV, 12))
        rates = RateTable(entries=broken, units=dict(tables.rates.units))
        with pytest.raises(IncompleteTable) as info:
            EmissionSession(params=tables.params_for(SourceType.LDV), rates=rates)
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
        assert classify_opmode_array(np.array([v]), np.array([reordered]), a)[0] != mode
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
        got = classify_opmode_array(np.array(vs), np.zeros(3)).tolist()
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
        history = [-1.5, -1.5] if rule == "soft" else []
        got = classify_opmode_array(np.full(3, 10.0), np.zeros(3), np.array(accels),
                                    rule == "soft").tolist()
        assert got == [opmode_from_mph(10.0 / MPS_PER_MPH, a / MPS_PER_MPH, history, 0.0)
                       for a in accels]
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

    @pytest.mark.parametrize("bad", ["5", None, [1.0], 1j, np.array([1.0, 2.0]), 10**400],
                             ids=["str", "None", "list", "complex", "array", "big_int"])
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
