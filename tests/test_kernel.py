"""The columnar batch kernel against the oracle, the ER writer and the session path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movestar import flatapi
from movestar.cli import write_er_csv
from movestar.core import (
    SPECIES_NAMES,
    DriveCycle,
    SecondRecord,
    SourceType,
    aggregate_cycle,
)
from movestar.errors import InvalidSample, NegativeSpeed
from movestar.session import session_create, session_finalize, session_step

from conftest import FIXTURE_CYCLES
from reference_pipeline import run_reference

GENTLE_DECEL = (-0.89, -0.45)    # m/s^2: between -2 and -1 mph/s


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
    """ER rows from the per-second records, one format call per value."""
    lines = ["t,opmode," + ",".join(SPECIES_NAMES)]
    for rec in result.per_second:
        values = ",".join(f"{x:.9f}" for x in rec.emissions.as_tuple())
        lines.append(f"{rec.t},{int(rec.opmode)},{values}")
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
            records = tuple(SecondRecord(t, *session_step(s, v)) for t, v in enumerate(speeds))
            batch = aggregate_cycle(DriveCycle.from_speeds(speeds),
                                    tables.params_for(veh), tables.rates)
            assert batch.per_second == records
            assert session_finalize(s).per_second == records

    def test_arrays_are_read_only(self, tables):
        cycle = DriveCycle.from_speeds([0.0, 3.0, 5.0])
        result = aggregate_cycle(cycle, tables.params_for(SourceType.LDV), tables.rates)
        for arr in (cycle.v, cycle.a, result.modes, result.grams):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestDriveCycleBoundary:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_speed_rejected(self, bad):
        with pytest.raises(InvalidSample):
            DriveCycle.from_speeds([1.0, bad, 2.0])

    def test_negative_speed_rejected(self):
        with pytest.raises(NegativeSpeed):
            DriveCycle.from_speeds([1.0, -0.5, float("nan")])

    def test_samples_built_from_arrays(self):
        cycle = DriveCycle.from_speeds([0.0, 2.0, 3.0])
        assert [(s.t, s.v, s.a) for s in cycle.samples] == [(0, 0.0, 0.0), (1, 2.0, 2.0),
                                                             (2, 3.0, 1.0)]

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
