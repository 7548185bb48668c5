"""Core pipeline unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestar.core import (
    EmissionVector,
    DriveCycle,
    KinematicSample,
    OpMode,
    SourceType,
    VALID_OPMODE_IDS,
    VehicleParams,
    aggregate_cycle,
    classify_opmode,
    classify_opmode_array,
    compute_vsp,
    derive_acceleration,
    lookup_rate,
    opmode_of,
    per_second_emissions,
)
from movestar.errors import (EmptyCycle, IncompleteTable, InvalidSample, MissingEntry,
                             NegativeSpeed)

from reference_pipeline import MPH, opmode_from_mph, run_reference, vsp_si


def sample(v, a=0.0, t=0, grade=0.0):
    return KinematicSample(t=t, v=v, a=a, grade=grade)


class TestDeriveAcceleration:
    def test_constant_speed(self):
        assert derive_acceleration([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]

    def test_forward_difference(self):
        assert derive_acceleration([0.0, 2.0, 3.0]) == [0.0, 2.0, 1.0]

    def test_sawtooth_matches_independent_diff(self, fixture_cycle):
        _, speeds = fixture_cycle
        expected = [0.0] + [speeds[i] - speeds[i - 1] for i in range(1, len(speeds))]
        assert derive_acceleration(speeds) == expected

    def test_empty_rejected(self):
        with pytest.raises(EmptyCycle):
            derive_acceleration([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeSpeed):
            derive_acceleration([1.0, -0.5])


class TestDriveCycleContract:
    """What the constructor accepts, what it rejects and in which order."""

    @pytest.mark.parametrize("speeds, error, message", [
        # a negative speed is reported before an earlier non-finite value
        ([math.nan, 1.0, -2.0], NegativeSpeed, "negative speed -2.0"),
        ([0.0, 1.0, math.inf], InvalidSample, "non-finite speed or acceleration at second 2"),
        ([1.0, math.nan, 2.0], InvalidSample, "non-finite speed or acceleration at second 1"),
        ([2.0, -math.inf], NegativeSpeed, "negative speed -inf"),
        ([], EmptyCycle, "drive cycle has no samples"),
        ([[1.0, 2.0]], InvalidSample, "speeds of shape (1, 2) are not one-dimensional"),
        (5.0, InvalidSample, "speeds of shape () are not one-dimensional"),
    ])
    def test_from_speeds_rejects(self, speeds, error, message):
        with pytest.raises(error) as info:
            DriveCycle.from_speeds(speeds)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_accepts_negative_zero_speed(self):
        for build in (DriveCycle, DriveCycle.from_speeds):
            cycle = build([-0.0, 1.0])
            assert cycle.v.tolist() == [0.0, 1.0]
            assert cycle.a.tolist() == [0.0, 1.0]

    def test_keeps_its_own_copy(self):
        y = np.array([1.0, 2.0, 3.0])
        direct = DriveCycle(y)
        derived = DriveCycle.from_speeds(y)
        y[:] = 9.0
        assert direct.v.tolist() == [1.0, 2.0, 3.0]
        assert derived.v.tolist() == [1.0, 2.0, 3.0]
        assert not direct.v.flags.writeable and not derived.a.flags.writeable


class TestComputeVsp:
    def test_zero_speed_is_zero(self, tables):
        for st_ in SourceType:
            p = tables.params_for(st_)
            assert compute_vsp(sample(0.0, a=3.0), p) == 0.0

    def test_reduces_to_rolling_term(self):
        p = VehicleParams(SourceType.LDV, A=1.0, B=0.0, C=0.0, M=1.0, f=1.0)
        assert compute_vsp(sample(1.0), p) == pytest.approx(1.0, abs=0)

    def test_ldv_hand_evaluation(self, tables):
        # independent evaluation of the formula with explicit constants
        p = tables.params_for(SourceType.LDV)
        v, a = 10.0, 0.5
        expected = (0.156461 * 10.0 + 0.00200193 * 100.0 + 0.000492646 * 1000.0
                    + 1.4788 * 0.5 * 10.0) / 1.4788
        assert compute_vsp(sample(v, a), p) == pytest.approx(expected, rel=1e-15)

    def test_grade_term(self, tables):
        p = tables.params_for(SourceType.LDV)
        theta = 0.02
        flat = compute_vsp(sample(10.0, 0.0), p)
        sloped = compute_vsp(sample(10.0, 0.0, grade=theta), p)
        assert sloped - flat == pytest.approx(
            p.M * 9.8 * math.sin(theta) * 10.0 / p.f, rel=1e-12)

    def test_invalid_sample(self, tables):
        p = tables.params_for(SourceType.LDV)
        with pytest.raises(InvalidSample):
            compute_vsp(sample(-1.0), p)
        with pytest.raises(InvalidSample):
            compute_vsp(sample(float("nan")), p)

    @given(v=st.floats(0.0, 60.0), a1=st.floats(-8.0, 8.0), a2=st.floats(-8.0, 8.0))
    def test_linear_in_acceleration(self, v, a1, a2, tables):
        p = tables.params_for(SourceType.LDT)
        lhs = compute_vsp(sample(v, a2), p) - compute_vsp(sample(v, a1), p)
        rhs = p.M * (a2 - a1) * v / p.f
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestClassifyOpmode:
    def test_standstill_is_idle(self):
        assert classify_opmode(sample(0.0, 0.0), vsp=0.0) is OpMode.IDLE

    def test_low_speed_negative_vsp_is_coasting(self):
        assert classify_opmode(sample(5.0, -0.1), vsp=-1.0) is OpMode.LOW_COAST

    def test_hard_braking_beats_everything(self):
        assert classify_opmode(sample(20.0, -1.0), vsp=-12.0) is OpMode.BRAKING
        # braking precedence holds even inside the idle band
        assert classify_opmode(sample(0.2, -1.0), vsp=0.0) is OpMode.BRAKING

    def test_soft_braking_needs_three_seconds(self):
        v, a = 10.0, -0.6  # -1.34 mph/s
        assert classify_opmode(sample(v, a), vsp=-2.0) is not OpMode.BRAKING
        assert classify_opmode(sample(v, a), vsp=-2.0, history=[a]) is not OpMode.BRAKING
        assert classify_opmode(sample(v, a), vsp=-2.0, history=[a, a]) is OpMode.BRAKING
        assert classify_opmode(sample(v, a), vsp=-2.0, history=[0.0, a]) is not OpMode.BRAKING

    @pytest.mark.parametrize("v_mph,vsp,expected", [
        (0.5, 0.0, 1),
        (10.0, -0.001, 11), (10.0, 0.0, 12), (10.0, 2.999, 12), (10.0, 3.0, 13),
        (10.0, 6.0, 14), (10.0, 9.0, 15), (10.0, 12.0, 16), (10.0, 50.0, 16),
        (1.0, 0.0, 12),          # lower class edge is inclusive
        (25.0, 0.0, 22),         # class boundary moves to the mid block
        (30.0, -5.0, 21), (30.0, 14.0, 27), (30.0, 18.0, 28), (30.0, 24.0, 29),
        (30.0, 30.0, 30),
        (50.0, 0.0, 33), (60.0, -3.0, 33), (60.0, 6.0, 35), (60.0, 12.0, 37),
        (60.0, 18.0, 38), (60.0, 24.0, 39), (60.0, 30.0, 40),
    ])
    def test_bin_cells(self, v_mph, vsp, expected):
        mode = classify_opmode(sample(v_mph * MPH, 0.0), vsp=vsp)
        assert int(mode) == expected

    def test_grid_against_independent_transcription(self):
        for v_mph in np.arange(0.0, 90.0, 0.7):
            for vsp in np.arange(-38.0, 42.0, 0.9):
                got = classify_opmode(sample(float(v_mph) * MPH, 0.0), vsp=float(vsp))
                want = opmode_from_mph(float(v_mph), 0.0, [], float(vsp))
                assert int(got) == want

    @given(v=st.floats(0.0, 80.0), a=st.floats(-10.0, 10.0),
           vsp=st.floats(-60.0, 60.0))
    def test_totality(self, v, a, vsp):
        mode = classify_opmode(sample(v, a), vsp=vsp)
        assert int(mode) in VALID_OPMODE_IDS

    def test_array_classifier_matches_scalar(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 45.0, 4000)
        vsp = rng.uniform(-40.0, 45.0, 4000)
        a = rng.uniform(-5.0, 5.0, 4000)
        got = classify_opmode_array(v, vsp, a)
        for i in range(len(v)):
            scalar = classify_opmode(sample(float(v[i]), float(a[i])), float(vsp[i]))
            assert got[i] == int(scalar)

    def test_array_classifier_with_history_matches_scalar(self):
        rng = np.random.default_rng(11)
        edges_mph = [1.0, 25.0, 50.0]
        edges_vsp = [0.0, 3.0, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0]
        v = np.concatenate((rng.uniform(0.0, 40.0, 4000), np.array(edges_mph) * MPH))
        vsp = np.concatenate((rng.uniform(-40.0, 45.0, 4000), edges_vsp))
        v, vsp = v[rng.permutation(v.size)], rng.choice(vsp, v.size)
        a = rng.choice([-1.0, -0.6, -0.2, 0.0, 0.5], v.size) * rng.uniform(0.5, 1.5, v.size)
        soft_history = rng.random(v.size) < 0.5
        got = classify_opmode_array(v, vsp, a, soft_history)
        for i in range(v.size):
            scalar = opmode_of(float(v[i]), float(a[i]), float(vsp[i]), bool(soft_history[i]))
            assert got[i] == int(scalar)
        assert {0, 1, 11, 16, 21, 30, 33, 40} <= set(got.tolist())


class TestRates:
    def test_idle_row_verbatim(self, tables):
        p = tables.params_for(SourceType.LDV)
        row = lookup_rate(OpMode.IDLE, p, tables.rates)
        assert row == tables.rates.entries[(SourceType.LDV, 1)]

    def test_top_row_verbatim_ldt(self, tables):
        p = tables.params_for(SourceType.LDT)
        row = lookup_rate(OpMode.HIGH_VSP_30_UP, p, tables.rates)
        assert row == tables.rates.entries[(SourceType.LDT, 40)]

    def test_energy_monotone_with_power_bin(self, tables):
        for st_ in SourceType:
            e12 = tables.rates.entries[(st_, 12)].energy
            e16 = tables.rates.entries[(st_, 16)].energy
            assert e16 >= e12

    def test_missing_entry_reachable_only_with_corrupt_table(self, tables):
        from movestar.core import RateTable
        broken = dict(tables.rates.entries)
        broken.pop((SourceType.LDV, 33))
        table = RateTable(entries=broken, units=dict(tables.rates.units))
        p = tables.params_for(SourceType.LDV)
        with pytest.raises(MissingEntry):
            lookup_rate(OpMode.HIGH_VSP_LT_6, p, table)

    @given(parts=st.lists(st.floats(0.0, 1e6), min_size=10, max_size=10))
    def test_vector_addition_commutes(self, parts):
        a = EmissionVector(*parts[:5])
        b = EmissionVector(*parts[5:])
        assert a + b == b + a

    def test_per_second_zero(self):
        assert per_second_emissions(EmissionVector.zero()) == EmissionVector.zero()

    def test_per_second_unit_arithmetic(self):
        vec = EmissionVector(0.0, 0.0, 0.0, 0.0, 3600.0)
        assert per_second_emissions(vec).co2 == 1.0

    def test_per_second_idle_row(self, tables):
        row = tables.rates.entries[(SourceType.LDV, 1)]
        per_s = per_second_emissions(row)
        assert per_s.as_tuple() == tuple(x / 3600.0 for x in row.as_tuple())


class TestAggregateCycle:
    def test_idle_cycle_totals_and_undefined_ef(self, tables):
        p = tables.params_for(SourceType.LDV)
        cycle = DriveCycle.from_speeds([0.0] * 10)
        result = aggregate_cycle(cycle, p, tables.rates)
        idle = per_second_emissions(tables.rates.entries[(SourceType.LDV, 1)])
        expected = EmissionVector.zero()
        for _ in range(10):
            expected = expected + idle
        assert result.totals == expected
        assert result.ef is None
        assert not result.ef_defined
        assert all(rec.opmode is OpMode.IDLE for rec in result.per_second)

    def test_missing_entry_names_first_missing_mode(self, tables):
        from movestar.core import RateTable
        broken = dict(tables.rates.entries)
        for mode in (33, 40):
            broken.pop((SourceType.LDV, mode))
        table = RateTable(entries=broken, units=dict(tables.rates.units))
        p = tables.params_for(SourceType.LDV)
        # idle, then a 65 mph cruise (mode 33) after a hard launch (mode 40)
        cycle = DriveCycle.from_speeds([0.0] * 3 + [65.0 * MPH] * 5)
        with pytest.raises(IncompleteTable) as info:
            aggregate_cycle(cycle, p, table)
        assert info.value.missing == [("LDV", 33), ("LDV", 40)]
        assert str(info.value) == "rate table incomplete; missing entries: (LDV, 33), (LDV, 40)"

    def test_single_sample(self, tables):
        p = tables.params_for(SourceType.LDV)
        result = aggregate_cycle(DriveCycle.from_speeds([0.0]), p, tables.rates)
        idle = per_second_emissions(tables.rates.entries[(SourceType.LDV, 1)])
        assert result.totals == idle

    def test_matches_reference_pipeline(self, fixture_cycle, tables,
                                        params_path, rates_path):
        name, speeds = fixture_cycle
        ref = run_reference(speeds, "LDV", params_path, rates_path)
        p = tables.params_for(SourceType.LDV)
        result = aggregate_cycle(DriveCycle.from_speeds(speeds), p, tables.rates)
        assert [int(r.opmode) for r in result.per_second] == ref["modes"]
        for got, want in zip(result.totals.as_tuple(), ref["totals"]):
            assert got == pytest.approx(want, rel=1e-9)
        assert result.distance_m == pytest.approx(ref["distance_m"], rel=1e-12)

    def test_conservation_exact(self, fixture_cycle, tables):
        _, speeds = fixture_cycle
        p = tables.params_for(SourceType.LDT)
        result = aggregate_cycle(DriveCycle.from_speeds(speeds), p, tables.rates)
        acc = EmissionVector.zero()
        for rec in result.per_second:
            acc = acc + rec.emissions
        assert acc == result.totals

    def test_ef_identity(self, tables):
        p = tables.params_for(SourceType.LDV)
        speeds = [3.0, 5.0, 8.0, 8.0, 6.0, 2.0]
        result = aggregate_cycle(DriveCycle.from_speeds(speeds), p, tables.rates)
        km = result.distance_m / 1000.0
        for ef_x, er_x in zip(result.ef.as_tuple(), result.totals.as_tuple()):
            assert ef_x * km == pytest.approx(er_x, rel=1e-12)

    def test_rate_scaling(self, tables):
        p = tables.params_for(SourceType.LDV)
        speeds = [0.0, 2.0, 5.0, 9.0, 9.0, 7.0]
        base = aggregate_cycle(DriveCycle.from_speeds(speeds), p, tables.rates)
        doubled = aggregate_cycle(DriveCycle.from_speeds(speeds), p,
                                  tables.rates.scaled(2.0))
        assert [r.opmode for r in doubled.per_second] == [r.opmode for r in base.per_second]
        for got, want in zip(doubled.totals.as_tuple(), base.totals.as_tuple()):
            assert got == pytest.approx(2.0 * want, rel=1e-12)
        for got, want in zip(doubled.ef.as_tuple(), base.ef.as_tuple()):
            assert got == pytest.approx(2.0 * want, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(speeds=st.lists(st.floats(2.0, 40.0), min_size=1, max_size=40))
    def test_cruise_above_idle_never_braking_or_idle(self, speeds, tables):
        # constant-speed cruise: replicate one speed, so a = 0 throughout
        p = tables.params_for(SourceType.LDV)
        cycle = DriveCycle.from_speeds([speeds[0]] * len(speeds))
        result = aggregate_cycle(cycle, p, tables.rates)
        assert all(int(r.opmode) not in (0, 1) for r in result.per_second)

    def test_vsp_zero_whenever_v_zero_property(self, tables):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = VehicleParams(SourceType.LDV,
                              A=float(rng.uniform(0, 2)), B=float(rng.uniform(0, 0.1)),
                              C=float(rng.uniform(0, 0.01)), M=float(rng.uniform(0.5, 30)),
                              f=float(rng.uniform(0.5, 30)))
            assert compute_vsp(sample(0.0, float(rng.uniform(-5, 5))), p) == 0.0

    def test_reference_vsp_agrees(self, tables):
        p = tables.params_for(SourceType.LDV)
        ref_p = {"A": p.A, "B": p.B, "C": p.C, "M": p.M, "f": p.f}
        for v, a in [(0.0, 0.0), (3.3, 1.2), (17.9, -0.4), (31.0, 0.0)]:
            assert compute_vsp(sample(v, a), p) == pytest.approx(
                vsp_si(v, a, ref_p), rel=1e-14)
