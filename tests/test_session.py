"""Streaming session tests: batch equivalence, errors, flat surface."""

import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestar import flatapi
from movestar.core import (
    BRAKE_SOFT_RUN_S,
    DriveCycle,
    OpMode,
    RateTable,
    SourceType,
    aggregate_cycle,
    is_soft_decel,
    opmode_of,
    per_second_emissions,
    specific_power,
)
from movestar.errors import EmptySession, IncompleteTable, NegativeSpeed, UnknownSourceType
from movestar.session import EmissionSession, session_create, session_finalize, session_step
from movestar.tables import load_tables_from_dir

from conftest import FIXTURE_CYCLES, MPH


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
        acc = idle
        for _ in range(9):
            acc = acc + idle
        assert result.totals == acc


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
        assert stream_modes == [r.opmode for r in batch.per_second]
        assert result.totals == batch.totals
        assert result.distance_m == batch.distance_m
        assert result.ef == batch.ef
        assert result.per_second == batch.per_second

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
            assert [r.opmode for r in result.per_second] == \
                   [r.opmode for r in batch.per_second]

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
        """Session and flat steps give `opmode_of`'s mode and its table row
        at the speed-class, braking and VSP-bin edges, after soft runs."""
        params = tables.params_for(SourceType.LDV)
        rows = tables.rates.per_second[SourceType.LDV]
        speeds = [v for part in parts for v in approach(params, *part)]
        s = session_create(SourceType.LDV, tables)
        _, handle = flatapi.create(1)
        accels, prev = [], None
        try:
            for v in speeds:
                a = 0.0 if prev is None else v - prev
                recent = accels[-(BRAKE_SOFT_RUN_S - 1):]
                soft_history = (len(recent) == BRAKE_SOFT_RUN_S - 1
                                and all(map(is_soft_decel, recent)))
                want = opmode_of(v, a, specific_power(params, v, a), soft_history)
                mode, vec = session_step(s, v)
                assert mode is want
                assert vec == rows.vectors[want]
                assert flatapi.step(handle, v) == (flatapi.OK, int(want)) + vec.as_tuple()
                accels.append(a)
                prev = v
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
        assert opmode_of(v, a, reordered) is not mode
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


class TestFlatApi:
    def setup_method(self):
        flatapi.reset_shared_tables()

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
