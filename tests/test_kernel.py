"""The columnar batch kernel against the oracle, the ER writer and the session path."""

import math
import shutil
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from movestar import core, flatapi
from movestar.cli import write_er_csv
from movestar.core import (
    MAX_SPEED_MPS,
    SPECIES_NAMES,
    DriveCycle,
    SourceType,
    aggregate_cycle,
    classify_opmode_array,
    specific_power,
)
from movestar.errors import InvalidSample, NegativeSpeed
from movestar.session import session_create, session_finalize, session_step
from movestar.tables import load_tables_from_dir

from conftest import FIXTURE_CYCLES, scaled_rates
from reference_pipeline import MPH, opmode_from_mph, run_reference

GENTLE_DECEL = (-0.89, -0.45)    # m/s^2: between -2 and -1 mph/s
OVER_LIMIT = math.nextafter(MAX_SPEED_MPS, math.inf)


@st.composite
def walks(draw):
    """Random walks of 1 Hz speeds mixing free steps with sustained gentle glides.

    The walk holds its first speed for 1-3 samples, so a glide drawn first
    departs from index 0, 1 or 2, and walks with no steps are 1-3 s long.
    """
    v = draw(st.floats(0.0, 35.0))
    speeds = [v] * draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            a, run = draw(st.floats(*GENTLE_DECEL)), draw(st.integers(1, 5))
        else:
            a, run = draw(st.floats(-3.0, 3.0)), 1
        for _ in range(run):
            v = max(0.0, v + a)
            speeds.append(v)
    return speeds


def random_walk(seed, n=500):
    rng = np.random.default_rng(seed)
    return [float(x) for x in np.clip(np.abs(np.cumsum(rng.normal(0.0, 1.2, n))), 0.0, 42.0)]


def naive_er_body(result):
    """ER rows from the per-second arrays, one format call per value."""
    lines = ["t,opmode," + ",".join(SPECIES_NAMES)]
    for t, (mode, grams) in enumerate(zip(result.modes.tolist(), result.grams.tolist())):
        values = ",".join(f"{x:.9f}" for x in grams)
        lines.append(f"{t},{mode},{values}")
    lines.append("TOTAL,," + ",".join(f"{x:.9f}" for x in result.totals.as_tuple()))
    return "\n".join(lines) + "\n"


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(speeds=walks(), veh=st.sampled_from(list(SourceType)))
    @example(speeds=[5e-324], veh=SourceType.LDV)
    @example(speeds=[10.0], veh=SourceType.LDV)
    @example(speeds=[10.0, 9.4], veh=SourceType.LDV)
    @example(speeds=[10.0, 9.4, 8.8], veh=SourceType.LDV)
    @example(speeds=[10.0, 9.4, 8.8, 8.2, 7.6], veh=SourceType.LDV)
    @example(speeds=[10.0, 10.0, 9.4, 8.8, 8.2], veh=SourceType.LDT)
    @example(speeds=[10.0, 10.0, 10.0, 9.4, 8.8, 8.2, 9.0, 8.4], veh=SourceType.LDT)
    def test_bit_identical_on_random_walks(self, speeds, veh, tables, params_path, rates_path):
        ref = run_reference(speeds, veh.value, params_path, rates_path)
        result = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                 tables.params_for(veh), tables.rates)
        assert result.modes.tolist() == ref["modes"]
        assert result.grams.tolist() == ref["per_second"]
        assert list(result.totals.as_tuple()) == ref["totals"]
        assert result.distance_m == ref["distance_m"]
        assert (None if result.ef is None else list(result.ef.as_tuple())) == ref["ef"]

    def test_soft_braking_needs_three_seconds_of_history(self, tables):
        # the first second has a = 0, so a glide brakes from its third second on
        speeds = [10.0, 9.4, 8.8, 8.2, 7.6]
        result = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                 tables.params_for(SourceType.LDV), tables.rates)
        assert result.modes.tolist()[:3] != [0, 0, 0]
        assert result.modes.tolist()[3:] == [0, 0]


class TestClassifierMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(speeds=walks(), veh=st.sampled_from(list(SourceType)))
    @example(speeds=[10.0], veh=SourceType.LDV)
    @example(speeds=[10.0, 7.0], veh=SourceType.LDV)
    @example(speeds=[10.0, 9.4, 8.8], veh=SourceType.LDT)
    @example(speeds=[10.0, 10.0, 9.4, 8.8, 8.2, 9.0, 8.4], veh=SourceType.LDV)
    def test_braking_history_from_the_accelerations(self, speeds, veh, tables):
        """The classifier's modes are the oracle's, second by second, each
        decided with the two accelerations before it once there are two."""
        cycle = DriveCycle(speeds)
        v, a = cycle.v, cycle.a
        vsp = specific_power(tables.params_for(veh), v, a)
        want = []
        for i in range(v.size):
            prev2 = [x / MPH for x in a[i - 2:i].tolist()] if i >= 2 else []
            want.append(opmode_from_mph(v[i] / MPH, a[i] / MPH, prev2, vsp[i]))
        assert classify_opmode_array(v, vsp, a).tolist() == want


class TestKernelCoefficients:
    """`aggregate_cycle` hands `specific_power` a cached copy of the record
    whose coefficients are read-only 0-d arrays: the same formula, the same
    bits as the float record, array or scalar."""

    @settings(max_examples=100, deadline=None)
    @given(speeds=arrays(np.float64, st.integers(1, 4000),
                         elements=st.floats(0.0, MAX_SPEED_MPS) | st.just(-0.0)),
           veh=st.sampled_from(list(SourceType)))
    @example(speeds=np.array([-0.0]), veh=SourceType.LDV)
    @example(speeds=np.array([0.0, -0.0, 5.0, -0.0]), veh=SourceType.LDT)
    # The two LDV seconds whose VSP sits on a bin edge (tests/test_session.py).
    @example(speeds=np.array([15.66801702180043, 15.651101682448285]), veh=SourceType.LDV)
    @example(speeds=np.array([19.52145102237396, 19.71594388402388]), veh=SourceType.LDV)
    def test_same_bits_as_the_float_record(self, speeds, veh, tables):
        params = tables.params_for(veh)
        cycle = DriveCycle(speeds)
        v, a = cycle.v, cycle.a
        got = specific_power(core._kernel_params(params), v, a)
        assert got.dtype == np.float64 and got.shape == v.shape
        assert got.tobytes() == specific_power(params, v, a).tobytes()
        scalar = [specific_power(params, x, y) for x, y in zip(v.tolist(), a.tolist())]
        assert all(type(x) is float for x in scalar)
        assert got.tobytes() == np.array(scalar).tobytes()

    def test_tables_with_another_A_get_their_own_modes(self, tables, tables_dir, tmp_path):
        other = shutil.copytree(tables_dir, tmp_path / "tables")
        params_csv = other / "params.csv"
        text = params_csv.read_text()
        assert text.count("LDV,0.156461,") == 1
        params_csv.write_text(text.replace("LDV,0.156461,", "LDV,1.56461,"))
        steep = load_tables_from_dir(other)
        speeds = random_walk(11)
        modes = []
        for table_set, params_path in ((tables, tables_dir / "params.csv"),
                                       (steep, params_csv)):
            result = aggregate_cycle(DriveCycle(speeds), table_set.params_for(SourceType.LDV),
                                     table_set.rates)
            want = run_reference(speeds, "LDV", params_path, tables_dir / "rates.csv")
            assert result.modes.tolist() == want["modes"]
            modes.append(want["modes"])
        assert modes[0] != modes[1]

    def test_equal_records_share_one_entry(self, tables_dir, tmp_path):
        first = load_tables_from_dir(tables_dir).params_for(SourceType.LDT)
        second = load_tables_from_dir(shutil.copytree(tables_dir, tmp_path / "t")) \
            .params_for(SourceType.LDT)
        assert first == second and first is not second
        kernel = core._kernel_params(first)
        misses = core._kernel_params.cache_info().misses
        assert core._kernel_params(second) is kernel
        assert core._kernel_params.cache_info().misses == misses

    def test_cached_coefficients_are_read_only(self, tables):
        kernel = core._kernel_params(tables.params_for(SourceType.LDV))
        for name in "ABCMf":
            value = getattr(kernel, name)
            assert (value.shape, value.dtype) == ((), np.float64)
            with pytest.raises(ValueError):
                value[...] = 1.0
        assert kernel == tables.params_for(SourceType.LDV)


class TestErWriter:
    @pytest.mark.parametrize("veh", list(SourceType))
    def test_matches_naive_formatter(self, veh, tables, tmp_path):
        for i, speeds in enumerate([random_walk(5)] + list(FIXTURE_CYCLES.values())):
            result = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                     tables.params_for(veh), tables.rates)
            path = tmp_path / f"er{i}.csv"
            write_er_csv(result, tables, path)
            body = "".join(ln for ln in path.read_text().splitlines(keepends=True)
                           if not ln.startswith("#"))
            assert body == naive_er_body(result)


class TestRecordsOnDemand:
    @pytest.mark.parametrize("veh", list(SourceType))
    def test_per_second_equals_session_step_records(self, veh, tables):
        for speeds in [random_walk(9)] + list(FIXTURE_CYCLES.values()):
            s = session_create(veh, tables)
            steps = [session_step(s, v) for v in speeds]
            modes = [int(mode) for mode, _ in steps]
            grams = [list(vector.as_tuple()) for _, vector in steps]
            batch = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                    tables.params_for(veh), tables.rates)
            for result in (batch, session_finalize(s)):
                assert result.modes.tolist() == modes
                assert result.grams.tolist() == grams

    def test_arrays_are_read_only(self, tables):
        speeds = [0.0, 3.0, 5.0]
        cycle = DriveCycle.from_speeds(speeds)
        result = aggregate_cycle(cycle, tables.params_for(SourceType.LDV), tables.rates)
        s = session_create(SourceType.LDV, tables)
        for v in speeds:
            session_step(s, v)
        finalized = session_finalize(s)
        for arr in (cycle.v, cycle.a, result.modes, result.grams, finalized.modes,
                    finalized.grams):
            with pytest.raises(ValueError):
                arr[0] = 1


def same_result(got, want):
    """Bit-identical results: modes, per-second grams, totals, distance, EF."""
    return (got.modes.tobytes() == want.modes.tobytes()
            and got.grams.tobytes() == want.grams.tobytes()
            and got.totals == want.totals and got.distance_m == want.distance_m
            and got.ef == want.ef)


class TestLastResultMemo:
    """`aggregate_cycle` keeps its last cycle, params, rates and result, the
    cycle and result weakly, and returns that result only for those very
    three objects."""

    def fresh(self, cycle, params, rates):
        return aggregate_cycle(DriveCycle(cycle.v), params, rates)

    def test_repeat_call_returns_the_same_result(self, tables):
        cycle = DriveCycle(random_walk(1))
        params = tables.params_for(SourceType.LDV)
        first = aggregate_cycle(cycle, params, tables.rates)
        assert aggregate_cycle(cycle, params, tables.rates) is first

    def test_keeps_no_cycle_or_result_alive(self, tables):
        cycle = DriveCycle(random_walk(5))
        params = tables.params_for(SourceType.LDV)
        result = aggregate_cycle(cycle, params, tables.rates)
        result_ref, totals = weakref.ref(result), result.totals
        del result
        assert result_ref() is None
        again = aggregate_cycle(cycle, params, tables.rates)
        assert again.totals == totals
        cycle_ref = weakref.ref(cycle)
        del cycle, again
        assert cycle_ref() is None

    def test_each_source_type_gets_its_own_result(self, tables):
        cycle = DriveCycle(random_walk(2))
        ldv, ldt = tables.params_for(SourceType.LDV), tables.params_for(SourceType.LDT)
        r_ldv = aggregate_cycle(cycle, ldv, tables.rates)
        r_ldt = aggregate_cycle(cycle, ldt, tables.rates)
        assert r_ldt.totals != r_ldv.totals
        assert same_result(r_ldt, self.fresh(cycle, ldt, tables.rates))
        assert same_result(r_ldv, self.fresh(cycle, ldv, tables.rates))

    def test_another_rate_table_misses(self, tables, tables_dir, tmp_path):
        cycle = DriveCycle(random_walk(3))
        params = tables.params_for(SourceType.LDV)
        first = aggregate_cycle(cycle, params, tables.rates)
        copied = load_tables_from_dir(shutil.copytree(tables_dir, tmp_path / "tables")).rates
        assert copied == tables.rates
        again = aggregate_cycle(cycle, params, copied)
        assert again is not first
        assert same_result(again, first)
        doubled = aggregate_cycle(cycle, params, scaled_rates(tables.rates, 2.0))
        assert doubled.totals == tuple(2.0 * x for x in first.totals)

    def test_interleaved_calls_equal_fresh_results(self, tables):
        params = tables.params_for(SourceType.LDT)
        a, b = DriveCycle(random_walk(4)), DriveCycle(FIXTURE_CYCLES["gentle_decel"])
        for cycle in (a, b, a):
            assert same_result(aggregate_cycle(cycle, params, tables.rates),
                               self.fresh(cycle, params, tables.rates))

    def test_threads_get_their_own_totals(self, tables):
        """Threads on their own cycles race on the one entry; each result
        must be its own cycle's, never the entry another thread wrote."""
        params = tables.params_for(SourceType.LDV)
        cycles = [DriveCycle(random_walk(seed, n=40 + seed)) for seed in range(4)]
        want = [self.fresh(c, params, tables.rates).totals for c in cycles]
        right = [0] * len(cycles)

        def work(i):
            for _ in range(200):
                right[i] += aggregate_cycle(cycles[i], params, tables.rates).totals == want[i]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cycles))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert right == [200] * len(cycles)


class TestDriveCycleBoundary:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_speed_rejected(self, bad):
        with pytest.raises(InvalidSample):
            DriveCycle.from_speeds([1.0, bad, 2.0])

    def test_negative_speed_rejected(self):
        with pytest.raises(NegativeSpeed):
            DriveCycle.from_speeds([1.0, -0.5, float("nan")])

    def test_accelerations_built_from_speeds(self):
        cycle = DriveCycle.from_speeds([0.0, 2.0, 3.0])
        assert (cycle.v.tolist(), cycle.a.tolist()) == ([0.0, 2.0, 3.0], [0.0, 2.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_session_rejects_non_finite_speed_unchanged(self, bad, tables):
        s = session_create(SourceType.LDV, tables)
        session_step(s, 5.0)
        snapshot = (s.step_count, s.prev_speed, s.distance_m, s.running_totals)
        with pytest.raises(InvalidSample):
            session_step(s, bad)
        assert (s.step_count, s.prev_speed, s.distance_m, s.running_totals) == snapshot

    def test_flatapi_non_finite_speed_is_input_status(self):
        flatapi.reset_shared_tables()
        _, handle = flatapi.create(1)
        assert flatapi.step(handle, float("nan"))[0] == flatapi.ERR_INPUT
        flatapi.destroy(handle)

    def test_session_speed_limit(self, tables):
        s = session_create(SourceType.LDV, tables)
        session_step(s, MAX_SPEED_MPS)
        session_step(s, MAX_SPEED_MPS)
        snapshot = (s.step_count, s.prev_speed, s.distance_m, s.running_totals)
        with pytest.raises(InvalidSample) as info:
            session_step(s, OVER_LIMIT)
        assert str(info.value) == \
            "speed 100.00000000000001 at second 2 is over the 100.0 m/s limit"
        assert (s.step_count, s.prev_speed, s.distance_m, s.running_totals) == snapshot
        batch = aggregate_cycle(DriveCycle([MAX_SPEED_MPS] * 2),
                                tables.params_for(SourceType.LDV), tables.rates)
        result = session_finalize(s)
        assert result.modes.tolist() == batch.modes.tolist()
        assert result.grams.tolist() == batch.grams.tolist()

    def test_flatapi_speed_limit(self):
        flatapi.reset_shared_tables()
        _, handle = flatapi.create(1)
        assert flatapi.step(handle, MAX_SPEED_MPS)[0] == flatapi.OK
        session = flatapi._sessions[handle]
        before = (flatapi.totals(handle), session.step_count, session.prev_speed)
        assert flatapi.step(handle, OVER_LIMIT) == (flatapi.ERR_INPUT, -1) + (0.0,) * 5
        assert (flatapi.totals(handle), session.step_count, session.prev_speed) == before
        flatapi.destroy(handle)
