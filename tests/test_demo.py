"""Intersection demo: construction invariants and the directional claim."""

import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from movestar import demo
from movestar.core import MAX_SPEED_MPS, OpMode, SourceType, aggregate_cycle
from movestar.demo import (
    GLIDE_DECEL_MAX,
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
    """The planner, which skips the surely early probes, against the per-probe
    reference planner, which tries them all."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(sc=st.one_of(CRITERION_8_SCENARIOS, WIDE_SCENARIOS).filter(lambda sc: sc is not None))
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

    def test_csv_lines_shape(self, tables):
        lines = compare_scenarios(red_arrival_scenario(), tables).csv_lines()
        assert lines[0] == "species,baseline_total,smoothed_total,delta_pct"
        assert len(lines) == 1 + 5 + 3


def _modes(cycle, tables):
    result = aggregate_cycle(cycle, tables.params_for(SourceType.LDV), tables.rates)
    return set(map(OpMode, result.modes.tolist()))
