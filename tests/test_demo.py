"""Intersection demo: construction invariants and the directional claim."""

import dataclasses
import math
import pickle
import struct
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from movestar import demo
from movestar.core import MAX_SPEED_MPS, EmissionVector, OpMode, SourceType, aggregate_cycle
from movestar.demo import (
    DEPARTURE_TARGET_M,
    GLIDE_DECEL_MAX,
    GLIDE_FLOOR_MPS,
    GLIDE_MIN_FRACTION,
    MAX_CYCLE_S,
    RESTART_ACCEL_MAX,
    STOP_DECEL_MAX,
    SignalScenario,
    compare_scenarios,
    gen_baseline_trajectory,
    gen_smoothed_trajectory,
)
from movestar.errors import InfeasibleScenario, InvalidSample

from reference_demo import reference_smoothed_trajectory
from reference_pipeline import run_reference


def red_arrival_scenario(**overrides):
    # cruise arrival at t=20 lands on red; green onset follows 7 s later,
    # reachable with a shallow glide
    base = dict(approach_m=240.0, cruise_mps=12.0, green_s=25.0, red_s=30.0,
                offset_s=28.0)
    base.update(overrides)
    sc = SignalScenario(**base)
    assert sc.arrives_on_red
    return sc


def green_arrival_scenario():
    sc = SignalScenario(approach_m=150.0, cruise_mps=12.0, green_s=30.0,
                        red_s=30.0, offset_s=0.0)
    assert not sc.arrives_on_red
    return sc


def cycle_distance(cycle):
    return sum(cycle.v.tolist())


def random_red_arrival_scenarios(seed, count, require_glide=True):
    """Deterministic feasible red-arrival scenario family."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v_c = float(rng.uniform(8.0, 18.0))
        n = int(rng.integers(8, 22))
        sc = SignalScenario(
            approach_m=n * v_c,
            cruise_mps=v_c,
            green_s=float(rng.uniform(15.0, 40.0)),
            red_s=float(rng.uniform(15.0, 45.0)),
            offset_s=float(rng.uniform(0.0, 60.0)),
        )
        if not sc.arrives_on_red:
            continue
        if require_glide and not gen_smoothed_trajectory(sc).feasible:
            continue
        out.append(sc)
    return out


class TestScenario:
    def test_rejects_nonpositive_durations(self):
        with pytest.raises(InfeasibleScenario):
            SignalScenario(approach_m=100, cruise_mps=10, green_s=0, red_s=30,
                           offset_s=0)

    def test_rejects_idle_band_cruise(self):
        with pytest.raises(InfeasibleScenario):
            SignalScenario(approach_m=100, cruise_mps=0.3, green_s=10, red_s=10,
                           offset_s=0)

    @pytest.mark.parametrize("source_type", [1, "LDV", None])
    def test_rejects_a_source_type_that_is_not_one(self, source_type):
        with pytest.raises(InfeasibleScenario) as info:
            SignalScenario(approach_m=240.0, cruise_mps=12.0, green_s=25.0, red_s=30.0,
                           offset_s=28.0, source_type=source_type)
        assert str(info.value) == f"source type must be a SourceType, got {source_type!r}"

    @pytest.mark.parametrize("name, value", [
        ("approach_m", "240"), ("green_s", None), ("cruise_mps", 12 + 0j),
        ("red_s", Decimal("30")), ("offset_s", True),
    ])
    def test_rejects_a_number_that_is_not_a_real(self, name, value):
        with pytest.raises(InfeasibleScenario) as info:
            red_arrival_scenario(**{name: value})
        assert str(info.value) == f"{name} must be a real number, got {value!r}"

    def test_rejects_a_real_too_large_for_a_float(self):
        with pytest.raises(InfeasibleScenario, match="^distances, speeds and durations must be"):
            red_arrival_scenario(approach_m=10**400)

    @settings(max_examples=60, deadline=None)
    @given(approach=st.floats(1e-3, 1e5), cruise=st.floats(2.001, 300.0),
           green=st.floats(1e-3, 3e4), red=st.floats(1e-3, 3e4), offset=st.floats(-1e4, 1e4))
    def test_longest_cycle_bounds_both_cycles(self, approach, cruise, green, red, offset):
        kwargs = dict(approach_m=approach, cruise_mps=cruise, green_s=green, red_s=red,
                      offset_s=offset)
        bound = (approach + 250.0) / (0.55 * cruise) + cruise + green + red + 10.0
        if bound > MAX_CYCLE_S:
            with pytest.raises(InfeasibleScenario, match="limit"):
                SignalScenario(**kwargs)
            return
        sc = SignalScenario(**kwargs)
        assume(sc.cruise_seconds_to_bar >= (sc.stop_ramp_steps - 1) // 2)
        if cruise > MAX_SPEED_MPS:
            # every baseline cycle ends at cruise speed, which no cycle may exceed
            with pytest.raises(InvalidSample, match="m/s limit"):
                gen_baseline_trajectory(sc)
            return
        longest = max(len(gen_baseline_trajectory(sc)), len(gen_smoothed_trajectory(sc).cycle))
        assert longest <= sc.longest_cycle_s <= MAX_CYCLE_S

    def test_signal_phase(self):
        sc = SignalScenario(approach_m=100, cruise_mps=10, green_s=10, red_s=20,
                            offset_s=0)
        assert sc.is_green(0.0) and sc.is_green(9.9)
        assert not sc.is_green(10.0) and not sc.is_green(29.9)
        assert sc.is_green(30.0)
        assert sc.next_green_onset(12.0) == 30.0
        assert sc.next_green_onset(30.0) == 30.0


class TestBaseline:
    def test_red_arrival_contains_braking_and_idle(self, tables):
        cycle = gen_baseline_trajectory(red_arrival_scenario())
        modes = _modes(cycle, tables)
        assert OpMode.BRAKING in modes
        assert OpMode.IDLE in modes

    def test_green_arrival_constant_speed(self):
        cycle = gen_baseline_trajectory(green_arrival_scenario())
        assert set(cycle.v.tolist()) == {12.0}

    def test_distance_matches_scenario(self):
        for sc in (red_arrival_scenario(), green_arrival_scenario()):
            cycle = gen_baseline_trajectory(sc)
            assert cycle_distance(cycle) == pytest.approx(sc.total_distance_m, abs=1e-6)

    def test_acceleration_bounds(self):
        cycle = gen_baseline_trajectory(red_arrival_scenario())
        accels = cycle.a.tolist()
        assert min(accels) >= -STOP_DECEL_MAX - 1e-9
        assert max(accels) <= RESTART_ACCEL_MAX + 1e-9

    def test_too_short_approach_infeasible(self):
        with pytest.raises(InfeasibleScenario):
            gen_baseline_trajectory(red_arrival_scenario(approach_m=12.0,
                                                         cruise_mps=15.0,
                                                         offset_s=30.0))


class TestSmoothed:
    def test_no_braking_or_idle_when_feasible(self, tables):
        sc = red_arrival_scenario()
        out = gen_smoothed_trajectory(sc)
        assert out.feasible
        modes = _modes(out.cycle, tables)
        assert OpMode.BRAKING not in modes
        assert OpMode.IDLE not in modes

    def test_glide_decel_bound(self):
        out = gen_smoothed_trajectory(red_arrival_scenario())
        decels = [a for a in out.cycle.a.tolist() if a < 0]
        assert all(a >= -GLIDE_DECEL_MAX - 1e-9 for a in decels)

    def test_equal_distance_to_baseline(self):
        for sc in random_red_arrival_scenarios(seed=5, count=20):
            base = gen_baseline_trajectory(sc)
            out = gen_smoothed_trajectory(sc)
            assert abs(cycle_distance(base) - cycle_distance(out.cycle)) < 1e-6

    def test_green_arrival_identical_to_baseline(self):
        sc = green_arrival_scenario()
        base = gen_baseline_trajectory(sc)
        out = gen_smoothed_trajectory(sc)
        assert out.feasible
        assert out.cycle.speeds == base.speeds

    def test_infeasible_falls_back_flagged(self):
        # a red so long that no within-bounds glide can bridge it
        sc = red_arrival_scenario(green_s=5.0, red_s=200.0, offset_s=40.0)
        out = gen_smoothed_trajectory(sc)
        assert not out.feasible
        base = gen_baseline_trajectory(sc)
        assert out.cycle.speeds == base.speeds

    def test_generated_cycles_validate(self):
        for sc in random_red_arrival_scenarios(seed=6, count=10,
                                               require_glide=False):
            for cycle in (gen_baseline_trajectory(sc),
                          gen_smoothed_trajectory(sc).cycle):
                assert len(cycle) > 0
                assert cycle.v.min() >= 0.0
                assert len(cycle.a) == len(cycle.v) == len(cycle)


def _scenario_or_none(**kwargs):
    try:
        return SignalScenario(**kwargs)
    except InfeasibleScenario:
        return None


# Acceptance criterion 8's ranges: a whole number of cruise seconds to the bar.
CRITERION_8_SCENARIOS = st.builds(
    lambda v_c, n, **kw: _scenario_or_none(approach_m=n * v_c, cruise_mps=v_c, **kw),
    v_c=st.floats(8.0, 18.0), n=st.integers(8, 21), green_s=st.floats(15.0, 40.0),
    red_s=st.floats(15.0, 45.0), offset_s=st.floats(0.0, 60.0))
# The ranges of test_longest_cycle_bounds_both_cycles.
WIDE_SCENARIOS = st.builds(
    _scenario_or_none, approach_m=st.floats(1e-3, 1e5), cruise_mps=st.floats(2.001, 300.0),
    green_s=st.floats(1e-3, 3e4), red_s=st.floats(1e-3, 3e4), offset_s=st.floats(-1e4, 1e4))


def _frontier_scenario(v_c, n, shift, green_s, extra_red_s):
    """A red arrival whose green onset is `shift` (relative) from the one that
    a glide at the floor speed meets when its ramp decelerates at
    GLIDE_DECEL_MAX: where the planner's ramp-aware cap on the glide speed
    crosses the floor, so scenarios on either side of it return without a
    probe or sweep the probes."""
    v_floor = max(GLIDE_FLOOR_MPS, GLIDE_MIN_FRACTION * v_c)
    u = v_c - v_floor
    gap = (n * v_c + u / 2 - u * u / (2 * GLIDE_DECEL_MAX)) / v_floor * (1.0 + shift) - n
    if not gap > 0.0:
        return None
    period = green_s + gap + extra_red_s
    return _scenario_or_none(approach_m=n * v_c, cruise_mps=v_c, green_s=green_s,
                             red_s=gap + extra_red_s, offset_s=(period - gap - n) % period)


FRONTIER_SCENARIOS = st.builds(
    _frontier_scenario, v_c=st.floats(2.5, 40.0), n=st.integers(1, 60),
    shift=st.one_of(st.floats(-0.02, 0.002), st.floats(-1e-8, 1e-8)),
    green_s=st.floats(0.5, 60.0), extra_red_s=st.floats(0.0, 60.0))


GEOMETRY = ("period_s", "longest_cycle_s", "cruise_seconds_to_bar", "stop_ramp_steps",
            "launch_ramp_steps", "departure_cruise_seconds", "effective_approach_m",
            "effective_departure_m", "total_distance_m", "arrives_on_red")


def _geometry(approach_m, cruise_mps, green_s, red_s, offset_s):
    """Every derived attribute, written out again from the module constants."""
    period = green_s + red_s
    n = max(1, round(approach_m / cruise_mps))
    launch = max(1, math.ceil(cruise_mps / RESTART_ACCEL_MAX)) | 1
    half = (launch + 1) // 2
    departure = max(1, round(DEPARTURE_TARGET_M / cruise_mps) - half)
    return dict(
        period_s=period,
        longest_cycle_s=((approach_m + DEPARTURE_TARGET_M) / (GLIDE_MIN_FRACTION * cruise_mps)
                         + cruise_mps + period + 10.0),
        cruise_seconds_to_bar=n,
        stop_ramp_steps=max(1, math.ceil(cruise_mps / STOP_DECEL_MAX)) | 1,
        launch_ramp_steps=launch,
        departure_cruise_seconds=departure,
        effective_approach_m=n * cruise_mps,
        effective_departure_m=(half + departure) * cruise_mps,
        total_distance_m=n * cruise_mps + (half + departure) * cruise_mps,
        arrives_on_red=(n + offset_s) % period >= green_s)


def _arguments(sc):
    return (sc.approach_m, sc.cruise_mps, sc.green_s, sc.red_s, sc.offset_s)


class TestGeometry:
    """The geometry a scenario derives when built, against an independent
    statement of each formula."""

    @settings(max_examples=200, deadline=None)
    @given(sc=st.one_of(CRITERION_8_SCENARIOS, WIDE_SCENARIOS, FRONTIER_SCENARIOS)
           .filter(lambda sc: sc is not None), offset_s=st.floats(-1e4, 1e4))
    def test_attributes_match_their_formulas(self, sc, offset_s):
        want = _geometry(*_arguments(sc))
        assert {name: getattr(sc, name) for name in GEOMETRY} == want
        assert [type(getattr(sc, name)) for name in GEOMETRY] == list(map(type, want.values()))

        moved = dataclasses.replace(sc, offset_s=offset_s)
        assert moved.arrives_on_red is _geometry(*_arguments(moved))["arrives_on_red"]

        again = pickle.loads(pickle.dumps(sc))
        assert again == sc and {name: getattr(again, name) for name in GEOMETRY} == want

        args = _arguments(sc) + (sc.source_type,)
        assert [f.name for f in dataclasses.fields(SignalScenario)] == [
            "approach_m", "cruise_mps", "green_s", "red_s", "offset_s", "source_type"]
        assert dataclasses.astuple(sc) == args
        assert repr(sc) == ("SignalScenario(approach_m={!r}, cruise_mps={!r}, green_s={!r}, "
                            "red_s={!r}, offset_s={!r}, source_type={!r})".format(*args))
        assert sc == SignalScenario(*args) and hash(sc) == hash(args)

    def test_real_arguments_are_stored_as_floats(self, tables):
        """Fraction, int and numpy.float64 arguments give the float scenario."""
        args = dict(approach_m=Fraction(2401, 10), cruise_mps=12, green_s=np.float64(25.0),
                    red_s=Fraction(30), offset_s=28)
        sc = SignalScenario(**args)
        want = SignalScenario(**{name: float(value) for name, value in args.items()})
        assert [type(value) for value in _arguments(sc)] == [float] * 5
        assert _arguments(sc) == _arguments(want) == (240.1, 12.0, 25.0, 30.0, 28.0)
        assert {name: getattr(sc, name) for name in GEOMETRY} == _geometry(*_arguments(want))
        assert ([type(getattr(sc, name)) for name in GEOMETRY]
                == [type(getattr(want, name)) for name in GEOMETRY])
        assert (compare_scenarios(sc, tables).csv_lines()
                == compare_scenarios(want, tables).csv_lines())


def _plan(planner, sc):
    """What a planner returns, as bytes where floats must match bit for bit,
    or the class and message of what it raises."""
    try:
        out = planner(sc)
    except Exception as exc:
        return type(exc), str(exc)
    glide = out.glide_speed_mps
    return (out.feasible, type(glide), None if glide is None else struct.pack("<d", glide),
            out.cycle.v.tobytes())


class TestSmoothedMatchesReference:
    """The planner, which skips the surely early probes and tests each profile
    once, against the per-probe reference planner, which tries them all."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(sc=st.one_of(CRITERION_8_SCENARIOS, WIDE_SCENARIOS, FRONTIER_SCENARIOS)
           .filter(lambda sc: sc is not None))
    @example(sc=green_arrival_scenario())
    @example(sc=red_arrival_scenario())
    @example(sc=red_arrival_scenario(green_s=5.0, red_s=200.0, offset_s=40.0))
    # a 1 s green: the first probe that is not early at the bar comes too late
    @example(sc=SignalScenario(approach_m=400.0, cruise_mps=13.0, green_s=1.0, red_s=31.0,
                               offset_s=32.0))
    # one cruise second to the bar at 300 m/s: every probe decelerates for
    # longer than the approach, and the stop profile is too short as well
    @example(sc=SignalScenario(approach_m=300.0, cruise_mps=300.0, green_s=10.0, red_s=30.0,
                               offset_s=20.0))
    # the glide meets green onset exactly, at 5.307 m/s, below the 5.326 m/s
    # of its probe: a planner that skipped the early probes by probe speed
    # alone would start past this one
    @example(sc=SignalScenario(approach_m=770.0, cruise_mps=5.7, green_s=39.0, red_s=55.0,
                               offset_s=43.0))
    # green 6 s after the bar time of 10 s: the ramp-aware bound has no real
    # root, so no glide is late enough, though probes from the 125th on pass
    # the bound that ignores the ramp
    @example(sc=SignalScenario(approach_m=120.0, cruise_mps=12.0, green_s=10.0, red_s=25.0,
                               offset_s=19.0))
    # onsets on either side of the bound's double root: the first bound's
    # discriminant is below zero by rounding error only, the second's above it
    @example(sc=SignalScenario(approach_m=108.0, cruise_mps=12.0, green_s=10.0, red_s=25.0,
                               offset_s=23.665901105311768))
    @example(sc=SignalScenario(approach_m=108.0, cruise_mps=12.0, green_s=10.0, red_s=25.0,
                               offset_s=23.66590110531177))
    # the glide is kept at the first probe the ramp-aware cap allows, one
    # past the first that the bound ignoring the ramp allows
    @example(sc=SignalScenario(approach_m=357.0, cruise_mps=17.0, green_s=27.0, red_s=28.0,
                               offset_s=33.0))
    # a glide 0.04 m/s under the ramp-aware cap, and 0.014 m/s over the
    # floor: a bound that counted all k2 ramp seconds as slowing the
    # crossing, not k2 - 1, would rule it out
    @example(sc=SignalScenario(approach_m=152.0, cruise_mps=8.0, green_s=27.0, red_s=32.0,
                               offset_s=28.0))
    # green 5e-7 s after the bar time, closer than the bound's 1e-6 s margin
    @example(sc=SignalScenario(approach_m=240.0, cruise_mps=12.0, green_s=25.0, red_s=30.0,
                               offset_s=34.9999995))
    # the three longest probe scans of the benchmark's seed-5 sweep: 78, 69
    # and 66 probes, holding only 7, 8 and 11 distinct profiles
    @example(sc=SignalScenario(72.89504550742103, 8.099449500824559, 21.04613200080223,
                               20.242125448448494, 31.19551005589858, SourceType.LDV))
    @example(sc=SignalScenario(128.23817515621946, 9.86447501201688, 21.186709036423665,
                               29.890799253653, 32.615754397741945, SourceType.LDV))
    @example(sc=SignalScenario(159.09642634881973, 15.909642634881974, 33.72800010070775,
                               21.64628652685435, 44.03632509222807, SourceType.LDT))
    def test_same_outcome_bit_for_bit(self, sc):
        assert _plan(gen_smoothed_trajectory, sc) == _plan(reference_smoothed_trajectory, sc)


class TestComparison:
    def test_red_arrival_smoothed_wins(self, tables):
        report = compare_scenarios(red_arrival_scenario(), tables)
        assert report.glide_used
        assert report.smoothed.totals.energy < report.baseline.totals.energy
        assert report.smoothed.totals.co2 < report.baseline.totals.co2

    def test_green_arrival_deltas_zero(self, tables):
        report = compare_scenarios(green_arrival_scenario(), tables)
        assert report.delta_pct() == {name: 0.0 for name in report.delta_pct()}

    def test_delta_definition(self, tables):
        report = compare_scenarios(red_arrival_scenario(), tables)
        deltas = report.delta_pct()
        base = report.baseline.totals.energy
        smooth = report.smoothed.totals.energy
        assert deltas["energy"] == pytest.approx((smooth - base) / base * 100.0)

    def test_directional_over_random_family(self, tables):
        for sc in random_red_arrival_scenarios(seed=99, count=25):
            report = compare_scenarios(sc, tables)
            assert report.smoothed.totals.energy <= report.baseline.totals.energy
            assert report.smoothed.totals.co2 <= report.baseline.totals.co2

    def test_ldt_scenario_runs(self, tables):
        sc = red_arrival_scenario(source_type=SourceType.LDT)
        report = compare_scenarios(sc, tables)
        assert report.smoothed.totals.energy <= report.baseline.totals.energy

    @pytest.mark.parametrize("scenario, glide_used", [
        (green_arrival_scenario, True),
        (red_arrival_scenario, True),
        (lambda: red_arrival_scenario(green_s=5.0, red_s=200.0, offset_s=40.0), False),
    ], ids=["green", "feasible_red", "infeasible_red"])
    def test_builds_the_stop_profile_once(self, scenario, glide_used, tables, monkeypatch):
        sc = scenario()
        params = tables.params_for(sc.source_type)
        baseline = aggregate_cycle(gen_baseline_trajectory(sc), params, tables.rates)
        calls = []

        def counted(sc_):
            calls.append(sc_)
            return gen_baseline_trajectory(sc_)

        monkeypatch.setattr(demo, "gen_baseline_trajectory", counted)
        report = compare_scenarios(sc, tables)
        assert calls == [sc]
        assert report.glide_used is glide_used
        assert report.baseline.modes.tolist() == baseline.modes.tolist()
        assert report.baseline.totals == baseline.totals

    def test_zero_baseline_total(self, tables):
        """A species the baseline does not emit has delta 0 if the glide does
        not emit it either, else inf; `csv_lines` prints both."""
        report = compare_scenarios(red_arrival_scenario(), tables)
        zero = EmissionVector(0.0, 0.0, 0.0, 0.0, 0.0)
        report = dataclasses.replace(
            report, baseline=dataclasses.replace(report.baseline, totals=zero),
            smoothed=dataclasses.replace(report.smoothed, totals=zero._replace(co=1.5)))
        assert report.delta_pct() == {"energy": 0.0, "CO": math.inf, "HC": 0.0, "NOx": 0.0,
                                      "CO2": 0.0}
        assert report.csv_lines()[1:6] == [
            "energy,0.000000000,0.000000000,0.000000", "CO,0.000000000,1.500000000,inf",
            "HC,0.000000000,0.000000000,0.000000", "NOx,0.000000000,0.000000000,0.000000",
            "CO2,0.000000000,0.000000000,0.000000"]

    def test_csv_lines_shape(self, tables):
        lines = compare_scenarios(red_arrival_scenario(), tables).csv_lines()
        assert lines[0] == "species,baseline_total,smoothed_total,delta_pct"
        assert len(lines) == 1 + 5 + 3


def infeasible_red_scenario():
    # a 200 s red that no glide can bridge: the glide falls back to the stop
    return red_arrival_scenario(green_s=5.0, red_s=200.0, offset_s=40.0)


class TestSweepReuse:
    """Called in the sweep's order (baseline, then smoothed), a fallback glide
    is the very baseline cycle, so `aggregate_cycle` computes it once."""

    @pytest.mark.parametrize("scenario", [green_arrival_scenario, infeasible_red_scenario],
                             ids=["green", "infeasible_red"])
    def test_fallback_is_the_baseline_cycle(self, scenario):
        sc = scenario()
        base = gen_baseline_trajectory(sc)
        outcome = gen_smoothed_trajectory(sc)
        assert outcome.feasible is not sc.arrives_on_red
        assert outcome.cycle is base

    def test_feasible_glide_is_another_cycle(self):
        sc = red_arrival_scenario()
        base = gen_baseline_trajectory(sc)
        outcome = gen_smoothed_trajectory(sc)
        assert outcome.feasible
        assert outcome.cycle is not base
        assert outcome.cycle.v.tolist() != base.v.tolist()

    def test_keeps_no_scenario_or_cycle_alive(self):
        sc = infeasible_red_scenario()
        base = gen_baseline_trajectory(sc)
        refs = weakref.ref(sc), weakref.ref(base)
        del sc, base
        assert [ref() for ref in refs] == [None, None]

    def test_equal_scenario_gives_an_equal_cycle(self):
        sc, twin = infeasible_red_scenario(), infeasible_red_scenario()
        assert twin == sc and twin is not sc
        assert gen_baseline_trajectory(twin).v.tolist() == gen_baseline_trajectory(sc).v.tolist()

    def test_sweep_matches_the_reference(self, tables, params_path, rates_path):
        """Baseline, smoothed and both aggregates per scenario, as the
        signal_sweep workload calls them, on green, feasible and infeasible
        arrivals of both source types."""
        rng = np.random.default_rng(21)
        kinds = set()
        for i in range(60):
            v_c = float(rng.uniform(8.0, 18.0))
            sc = SignalScenario(approach_m=int(rng.integers(8, 22)) * v_c, cruise_mps=v_c,
                                green_s=float(rng.uniform(10.0, 40.0)),
                                red_s=float(rng.uniform(15.0, 60.0)),
                                offset_s=float(rng.uniform(0.0, 60.0)),
                                source_type=list(SourceType)[i % 2])
            params = tables.params_for(sc.source_type)
            base = gen_baseline_trajectory(sc)
            outcome = gen_smoothed_trajectory(sc)
            r_base = aggregate_cycle(base, params, tables.rates)
            r_glide = aggregate_cycle(outcome.cycle, params, tables.rates)
            assert (r_glide is r_base) is (outcome.cycle is base)
            for cycle, result in ((base, r_base), (outcome.cycle, r_glide)):
                ref = run_reference(cycle.v.tolist(), sc.source_type.value,
                                    params_path, rates_path)
                assert result.modes.tolist() == ref["modes"]
                assert list(result.totals.as_tuple()) == ref["totals"]
            kinds.add((sc.source_type, sc.arrives_on_red, outcome.feasible))
        assert kinds == {(veh, red, feasible) for veh in SourceType
                         for red, feasible in ((False, True), (True, True), (True, False))}


def _modes(cycle, tables):
    result = aggregate_cycle(cycle, tables.params_for(SourceType.LDV), tables.rates)
    return set(map(OpMode, result.modes.tolist()))
