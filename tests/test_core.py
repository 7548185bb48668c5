"""Core pipeline unit and property tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movestar.core import (
    MAX_SPEED_MPS,
    EmissionVector,
    CycleResult,
    DriveCycle,
    OpMode,
    SourceType,
    VALID_OPMODE_IDS,
    VehicleParams,
    aggregate_cycle,
    classify_opmode_array,
    per_second_emissions,
    specific_power,
)
from movestar.demo import GlideOutcome
from movestar.errors import (CycleError, EmptyCycle, IncompleteTable, InvalidSample,
                             NegativeSpeed)
from movestar.model import _speed_error

from conftest import in_order_sum, scaled_rates
from reference_pipeline import MPH, opmode_from_mph, run_reference, vsp_si

ZERO = EmissionVector(0.0, 0.0, 0.0, 0.0, 0.0)


def mode_of(v, vsp, a=0.0):
    """The kernel's mode of one second with no soft-deceleration history."""
    return OpMode(classify_opmode_array(np.array([v]), np.array([vsp]), np.array([a]))[0])


class TestDeriveAcceleration:
    def test_constant_speed(self):
        assert DriveCycle([5.0, 5.0, 5.0]).a.tolist() == [0.0, 0.0, 0.0]

    def test_forward_difference(self):
        assert DriveCycle([0.0, 2.0, 3.0]).a.tolist() == [0.0, 2.0, 1.0]

    def test_sawtooth_matches_independent_diff(self, fixture_cycle):
        _, speeds = fixture_cycle
        expected = [0.0] + [speeds[i] - speeds[i - 1] for i in range(1, len(speeds))]
        assert DriveCycle(speeds).a.tolist() == expected

    def test_empty_rejected(self):
        with pytest.raises(EmptyCycle):
            DriveCycle([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeSpeed):
            DriveCycle([1.0, -0.5])


class TestDriveCycleContract:
    """What the constructor accepts, what it rejects and in which order."""

    @pytest.mark.parametrize("speeds, error, message", [
        # the first bad second is named, whatever is wrong with a later one
        ([math.nan, 1.0, -2.0], InvalidSample, "non-finite speed nan at second 0"),
        ([0.0, 1.0, math.inf], InvalidSample, "non-finite speed inf at second 2"),
        ([1.0, math.nan, 2.0], InvalidSample, "non-finite speed nan at second 1"),
        ([2.0, -math.inf], NegativeSpeed, "negative speed -inf at second 1"),
        ([], EmptyCycle, "drive cycle has no samples"),
        ([[1.0, 2.0]], InvalidSample, "speeds of shape (1, 2) are not one-dimensional"),
        (5.0, InvalidSample, "speeds of shape () are not one-dimensional"),
        ([0.0, 100.0, math.nextafter(100.0, math.inf)], InvalidSample,
         "speed 100.00000000000001 at second 2 is over the 100.0 m/s limit"),
        ([1.0, 1e300, 200.0], InvalidSample,
         "speed 1e+300 at second 1 is over the 100.0 m/s limit"),
        ([200.0, math.nan, -1.0], InvalidSample,
         "speed 200.0 at second 0 is over the 100.0 m/s limit"),
        ([200.0, 1.0, math.inf], InvalidSample,
         "speed 200.0 at second 0 is over the 100.0 m/s limit"),
    ])
    def test_from_speeds_rejects(self, speeds, error, message):
        with pytest.raises(error) as info:
            DriveCycle.from_speeds(speeds)
        assert type(info.value) is error
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(speeds=st.lists(st.one_of(
        st.floats(0.0, MAX_SPEED_MPS),
        st.sampled_from([-0.0, 0.0, MAX_SPEED_MPS, math.nextafter(MAX_SPEED_MPS, math.inf),
                         -5e-324, math.nan, math.inf, -math.inf, 1e300]),
        st.floats()), min_size=1, max_size=12), as_array=st.booleans())
    def test_accepts_exactly_the_speeds_in_range(self, speeds, as_array):
        """One mask over the array accepts what a scan of each speed in
        Python accepts, and a rejected cycle names the scan's first bad second."""
        bad = next((i for i, x in enumerate(speeds) if not 0.0 <= x <= MAX_SPEED_MPS), None)
        given_speeds = np.array(speeds) if as_array else speeds
        if bad is None:
            assert DriveCycle(given_speeds).v.tobytes() == np.array(speeds).tobytes()
            return
        want = _speed_error(speeds[bad], f"second {bad}")
        with pytest.raises(CycleError) as info:
            DriveCycle(given_speeds)
        assert (type(info.value), str(info.value)) == (type(want), str(want))

    def test_accepts_the_speed_limit(self):
        assert DriveCycle([0.0, MAX_SPEED_MPS]).v.tolist() == [0.0, 100.0]

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


class TestRecordContracts:
    """`DriveCycle`, `CycleResult` and `GlideOutcome` are frozen dataclasses:
    their fields, repr, equality, hash and `dataclasses.replace` are theirs."""

    @pytest.fixture
    def records(self, tables):
        cycle = DriveCycle([0.0, 3.0, 7.5])
        result = aggregate_cycle(cycle, tables.params_for(SourceType.LDV), tables.rates)
        return cycle, result, GlideOutcome(cycle, True, 7.5)

    def test_attributes_can_be_neither_set_nor_deleted(self, records):
        for record in records:
            for name in (f.name for f in dataclasses.fields(record)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.extra = 1

    def test_result_arrays_cannot_be_written(self, records, tables):
        from movestar.session import EmissionSession
        session = EmissionSession(tables.params_for(SourceType.LDV), tables.rates)
        for speed in records[0].v:
            session.step(speed)
        for result in (records[1], session.finalize()):
            for array in (result.modes, result.grams):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
                with pytest.raises(ValueError, match="read-only"):
                    array += 1

    def test_fields_and_repr(self, records):
        cycle, result, outcome = records
        assert [(f.name, f.init) for f in dataclasses.fields(DriveCycle)] == [
            ("v", True), ("a", False)]
        assert [f.name for f in dataclasses.fields(result)] == [
            "modes", "grams", "totals", "distance_m", "ef"]
        assert [f.name for f in dataclasses.fields(outcome)] == [
            "cycle", "feasible", "glide_speed_mps"]
        assert all(map(dataclasses.is_dataclass, (*records, DriveCycle, GlideOutcome)))
        assert repr(cycle) == f"DriveCycle(v={cycle.v!r}, a={cycle.a!r})"
        assert repr(result) == (f"CycleResult(modes={result.modes!r}, grams={result.grams!r}, "
                                f"totals={result.totals!r}, distance_m=10.5, ef={result.ef!r})")
        assert repr(outcome) == f"GlideOutcome(cycle={cycle!r}, feasible=True, glide_speed_mps=7.5)"

    def test_replace_keeps_the_other_fields(self, records):
        _, result, _ = records
        totals = result.totals._replace(co2=1.0)
        changed = dataclasses.replace(result, totals=totals)
        assert type(changed) is CycleResult and changed.totals is totals
        for name in ("modes", "grams", "distance_m", "ef"):
            assert getattr(changed, name) is getattr(result, name)

    def test_replace_builds_a_checked_cycle(self, records):
        cycle = records[0]
        with pytest.raises(NegativeSpeed, match="^negative speed -1.0 at second 0$"):
            dataclasses.replace(cycle, v=[-1.0])
        assert dataclasses.replace(cycle, v=[2.0, 5.0]).a.tolist() == [0.0, 3.0]
        with pytest.raises(ValueError):
            dataclasses.replace(cycle, a=[0.0])

    def test_cycles_and_results_compare_by_identity(self, records):
        cycle, result, _ = records
        assert cycle == cycle and cycle != DriveCycle(cycle.v)
        assert result != dataclasses.replace(result)
        assert hash(cycle) == object.__hash__(cycle) and hash(result) == object.__hash__(result)

    def test_glide_outcome_is_a_value(self, records):
        cycle = records[0]
        by_keyword = GlideOutcome(cycle=cycle, feasible=False)
        assert by_keyword.glide_speed_mps is None
        assert by_keyword == GlideOutcome(cycle, False) == GlideOutcome(cycle, False, None)
        assert hash(by_keyword) == hash(GlideOutcome(cycle, False))
        assert GlideOutcome(cycle, True, 7.5) != GlideOutcome(cycle, True, 7.0)
        assert GlideOutcome(cycle, True, 7.5) != GlideOutcome(DriveCycle(cycle.v), True, 7.5)
        with pytest.raises(TypeError):
            GlideOutcome(cycle)


class TestComputeVsp:
    def test_zero_speed_is_zero(self, tables):
        for st_ in SourceType:
            p = tables.params_for(st_)
            assert specific_power(p, 0.0, 3.0) == 0.0

    def test_reduces_to_rolling_term(self):
        p = VehicleParams(SourceType.LDV, A=1.0, B=0.0, C=0.0, M=1.0, f=1.0)
        assert specific_power(p, 1.0, 0.0) == pytest.approx(1.0, abs=0)

    def test_ldv_hand_evaluation(self, tables):
        # independent evaluation of the formula with explicit constants
        p = tables.params_for(SourceType.LDV)
        v, a = 10.0, 0.5
        expected = (0.156461 * 10.0 + 0.00200193 * 100.0 + 0.000492646 * 1000.0
                    + 1.4788 * 0.5 * 10.0) / 1.4788
        assert specific_power(p, v, a) == pytest.approx(expected, rel=1e-15)

    @given(v=st.floats(0.0, 60.0), a1=st.floats(-8.0, 8.0), a2=st.floats(-8.0, 8.0))
    def test_linear_in_acceleration(self, v, a1, a2, tables):
        p = tables.params_for(SourceType.LDT)
        lhs = specific_power(p, v, a2) - specific_power(p, v, a1)
        rhs = p.M * (a2 - a1) * v / p.f
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestClassifyOpmode:
    def test_standstill_is_idle(self):
        assert mode_of(0.0, 0.0) is OpMode.IDLE

    def test_low_speed_negative_vsp_is_coasting(self):
        assert mode_of(5.0, -1.0, a=-0.1) is OpMode.LOW_COAST

    def test_hard_braking_beats_everything(self):
        assert mode_of(20.0, -12.0, a=-1.0) is OpMode.BRAKING
        # braking precedence holds even inside the idle band
        assert mode_of(0.2, 0.0, a=-1.0) is OpMode.BRAKING

    def test_soft_braking_needs_three_seconds(self, tables):
        # Each speed step below is -0.6 m/s^2, -1.34 mph/s: soft, not hard braking.
        p = tables.params_for(SourceType.LDV)

        def last_mode(speeds):
            return aggregate_cycle(DriveCycle(speeds), p, tables.rates).modes[-1]

        assert last_mode([12.6, 12.0, 11.4, 10.8]) == OpMode.BRAKING
        assert last_mode([12.0, 12.0, 11.4, 10.8]) != OpMode.BRAKING
        assert last_mode([12.0, 11.4, 10.8]) != OpMode.BRAKING

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
        assert int(mode_of(v_mph * MPH, vsp)) == expected

    def test_grid_against_independent_transcription(self):
        v_mph, vsp = (g.ravel() for g in np.meshgrid(np.arange(0.0, 90.0, 0.7),
                                                     np.arange(-38.0, 42.0, 0.9)))
        got = classify_opmode_array(v_mph * MPH, vsp, np.zeros_like(vsp))
        for i in range(v_mph.size):
            assert got[i] == opmode_from_mph(float(v_mph[i]), 0.0, [], float(vsp[i]))

    @given(v=st.floats(0.0, 80.0), a=st.floats(-10.0, 10.0),
           vsp=st.floats(-60.0, 60.0))
    def test_totality(self, v, a, vsp):
        assert int(mode_of(v, vsp, a)) in VALID_OPMODE_IDS

    def test_array_classifier_with_history_matches_scalar(self):
        rng = np.random.default_rng(11)
        edges_mph = [1.0, 25.0, 50.0]
        edges_vsp = [0.0, 3.0, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0]
        v = np.concatenate((rng.uniform(0.0, 40.0, 4000), np.array(edges_mph) * MPH))
        vsp = np.concatenate((rng.uniform(-40.0, 45.0, 4000), edges_vsp))
        v, vsp = v[rng.permutation(v.size)], rng.choice(vsp, v.size)
        a = rng.choice([-1.0, -0.6, -0.2, 0.0, 0.5], v.size) * rng.uniform(0.5, 1.5, v.size)
        soft_history = rng.random(v.size) < 0.5
        # Each probe is third in a triple whose two lead seconds are soft
        # decelerations (-1.5 mph/s) where soft_history is set, and 0 elsewhere.
        lead = np.where(soft_history, -1.5 * MPH, 0.0)
        got = classify_opmode_array(np.repeat(v, 3), np.repeat(vsp, 3),
                                    np.column_stack((lead, lead, a)).ravel())[2::3]
        for i in range(v.size):
            prev2 = [-1.5, -1.5] if soft_history[i] else []
            assert got[i] == opmode_from_mph(float(v[i]) / MPH, float(a[i]) / MPH, prev2,
                                             float(vsp[i]))
        assert {0, 1, 11, 16, 21, 30, 33, 40} <= set(got.tolist())


class TestRates:
    def test_idle_row_verbatim(self, tables):
        row = tables.rates.per_second[SourceType.LDV].pairs[OpMode.IDLE][1]
        assert row == per_second_emissions(tables.rates.entries[(SourceType.LDV, 1)])

    def test_top_row_verbatim_ldt(self, tables):
        row = tables.rates.per_second[SourceType.LDT].pairs[OpMode.HIGH_VSP_30_UP][1]
        assert row == per_second_emissions(tables.rates.entries[(SourceType.LDT, 40)])

    def test_energy_monotone_with_power_bin(self, tables):
        for st_ in SourceType:
            e12 = tables.rates.entries[(st_, 12)].energy
            e16 = tables.rates.entries[(st_, 16)].energy
            assert e16 >= e12

    def test_per_second_zero(self):
        assert per_second_emissions(ZERO) == ZERO

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
        assert result.totals == in_order_sum([idle] * 10)
        assert result.ef is None
        assert result.modes.tolist() == [OpMode.IDLE] * 10

    def test_missing_entry_names_first_missing_mode(self, tables):
        from movestar.core import RateTable
        broken = dict(tables.rates.entries)
        for mode in (33, 40):
            broken.pop((SourceType.LDV, mode))
        # The table fails when built, so no cycle ever reaches a missing mode.
        with pytest.raises(IncompleteTable) as info:
            RateTable(entries=broken, units=dict(tables.rates.units))
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
        assert result.modes.tolist() == ref["modes"]
        for got, want in zip(result.totals.as_tuple(), ref["totals"]):
            assert got == pytest.approx(want, rel=1e-9)
        assert result.distance_m == pytest.approx(ref["distance_m"], rel=1e-12)

    def test_conservation_exact(self, fixture_cycle, tables):
        _, speeds = fixture_cycle
        p = tables.params_for(SourceType.LDT)
        result = aggregate_cycle(DriveCycle.from_speeds(speeds), p, tables.rates)
        assert in_order_sum(EmissionVector(*g) for g in result.grams.tolist()) == result.totals

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
                                  scaled_rates(tables.rates, 2.0))
        assert doubled.modes.tolist() == base.modes.tolist()
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
        assert not set(result.modes.tolist()) & {0, 1}

    def test_vsp_zero_whenever_v_zero_property(self, tables):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = VehicleParams(SourceType.LDV,
                              A=float(rng.uniform(0, 2)), B=float(rng.uniform(0, 0.1)),
                              C=float(rng.uniform(0, 0.01)), M=float(rng.uniform(0.5, 30)),
                              f=float(rng.uniform(0.5, 30)))
            assert specific_power(p, 0.0, float(rng.uniform(-5, 5))) == 0.0

    def test_reference_vsp_agrees(self, tables):
        p = tables.params_for(SourceType.LDV)
        ref_p = {"A": p.A, "B": p.B, "C": p.C, "M": p.M, "f": p.f}
        for v, a in [(0.0, 0.0), (3.3, 1.2), (17.9, -0.4), (31.0, 0.0)]:
            assert specific_power(p, v, a) == pytest.approx(
                vsp_si(v, a, ref_p), rel=1e-14)
