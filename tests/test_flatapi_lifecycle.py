"""The flatapi lifecycle as a Hypothesis state machine.

Create, step (good and bad speeds), totals, finalize, destroy and stats run
in any order on live, destroyed and never-issued handles. The model replays
each handle's accepted speeds through `aggregate_cycle(DriveCycle(speeds))`
and every answer must equal it bit for bit, signed zeros included; the
counters of `stats()` must move by exactly the model's counts.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, rule

from movestar import flatapi
from movestar.core import MAX_SPEED_MPS, DriveCycle, SourceType, aggregate_cycle
from movestar.model import _HARD_DECEL_MPS2, _SOFT_DECEL_MPS2, _SPEED_CLASS_EDGES_MPS
from movestar.tables import load_default_tables

TABLES = load_default_tables()


def around(x):
    """`x` and the floats one ulp either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EDGE_SPEEDS = [v for x in _SPEED_CLASS_EDGES_MPS for v in around(x)] \
    + [0.0, -0.0, MAX_SPEED_MPS, math.nextafter(MAX_SPEED_MPS, -math.inf)]
GOOD_SPEEDS = st.one_of(st.sampled_from(EDGE_SPEEDS), st.floats(0.0, MAX_SPEED_MPS),
                        st.integers(0, 100))
BAD_SPEEDS = st.one_of(
    st.floats(max_value=-5e-324),
    st.sampled_from([math.nan, math.inf, -math.inf, math.nextafter(MAX_SPEED_MPS, math.inf),
                     1e300, None, "5"]),
)
# Accelerations at the braking thresholds and one ulp either side.
EDGE_ACCELS = [a for x in (_HARD_DECEL_MPS2, _SOFT_DECEL_MPS2) for a in around(x)]
# Handles flatapi never issues (it counts up from 1), unhashable ones included.
NEVER_ISSUED = st.sampled_from([0, -1, 10**15, 2**64, None, "1", 1.5, [1], {}, (1, [2])])


def same(got, want):
    """Equal element by element in type and value; -0.0 differs from 0.0."""
    assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


def is_good(speed):
    return isinstance(speed, (int, float)) and 0.0 <= speed <= MAX_SPEED_MPS


class FlatApiMachine(RuleBasedStateMachine):
    handles = Bundle("handles")

    def __init__(self):
        super().__init__()
        self.base = flatapi.stats()
        self.live = {}          # handle -> (source type, accepted speeds)
        self.steps = 0          # accepted steps, live and destroyed handles
        self.errors = [0, 0, 0, 0]

    def is_live(self, handle):
        try:
            return handle in self.live
        except TypeError:       # an unhashable handle
            return False

    def batch(self, handle):
        st_, speeds = self.live[handle]
        return aggregate_cycle(DriveCycle(speeds), TABLES.params_for(st_), TABLES.rates)

    def expect_error(self, got, status, tail):
        self.errors[status] += 1
        same(got, (status,) + tail)

    @initialize(target=handles, code=st.sampled_from([1, 2]))
    def first_handle(self, code):
        return self.create(code)

    @rule(target=handles, code=st.sampled_from([1, 2]))
    def create(self, code):
        status, handle = flatapi.create(code)
        assert status == flatapi.OK and handle not in self.live
        self.live[handle] = (SourceType.from_code(code), [])
        return handle

    @rule(code=st.sampled_from([0, 3, -1, "bus", None, 1.5]))
    def create_unknown_type(self, code):
        self.expect_error(flatapi.create(code), flatapi.ERR_TABLES, (0,))

    def step_and_check(self, handle, speed):
        got = flatapi.step(handle, speed)
        if not self.is_live(handle):
            return self.expect_error(got, flatapi.ERR_HANDLE, (-1,) + (0.0,) * 5)
        if not is_good(speed):
            return self.expect_error(got, flatapi.ERR_INPUT, (-1,) + (0.0,) * 5)
        self.live[handle][1].append(speed)
        self.steps += 1
        result = self.batch(handle)
        same(got, (flatapi.OK, result.modes.tolist()[-1], *result.grams[-1].tolist()))

    @rule(handle=st.one_of(handles, NEVER_ISSUED), speed=st.one_of(GOOD_SPEEDS, BAD_SPEEDS))
    def step(self, handle, speed):
        self.step_and_check(handle, speed)

    @rule(handle=handles, accel=st.sampled_from(EDGE_ACCELS))
    def step_at_a_braking_edge(self, handle, accel):
        """A speed whose step from the last accepted one is about `accel`."""
        speeds = self.live[handle][1] if self.is_live(handle) else []
        prev = float(speeds[-1]) if speeds else 0.0
        self.step_and_check(handle, prev + accel if prev + accel >= 0.0 else prev)

    @rule(handle=st.one_of(handles, NEVER_ISSUED))
    def totals(self, handle):
        got = flatapi.totals(handle)
        if not self.is_live(handle):
            return self.expect_error(got, flatapi.ERR_HANDLE, (0.0,) * 6)
        if not self.live[handle][1]:
            return same(got, (flatapi.OK,) + (-0.0,) * 6)
        result = self.batch(handle)
        same(got, (flatapi.OK, result.distance_m, *result.totals.as_tuple()))

    @rule(handle=st.one_of(handles, NEVER_ISSUED))
    def finalize(self, handle):
        got = flatapi.finalize(handle)
        if not self.is_live(handle):
            return self.expect_error(got, flatapi.ERR_HANDLE, (0.0, 0) + (0.0,) * 10)
        if not self.live[handle][1]:
            return self.expect_error(got, flatapi.ERR_INPUT, (0.0, 0) + (0.0,) * 10)
        result = self.batch(handle)
        ef = result.ef.as_tuple() if result.ef is not None else (0.0,) * 5
        same(got, (flatapi.OK, result.distance_m, int(result.ef is not None),
                   *result.totals.as_tuple(), *ef))

    @rule(handle=st.one_of(handles, NEVER_ISSUED))
    def destroy(self, handle):
        got = flatapi.destroy(handle)
        if not self.is_live(handle):
            return self.expect_error((got,), flatapi.ERR_HANDLE, ())
        del self.live[handle]
        same((got,), (flatapi.OK,))

    @rule()
    def stats(self):
        live, steps, *errors = self.base
        same(flatapi.stats(), (live + len(self.live), steps + self.steps,
                               *(e + n for e, n in zip(errors, self.errors[1:]))))

    def teardown(self):
        for handle in self.live:
            flatapi.destroy(handle)


TestFlatApiLifecycle = FlatApiMachine.TestCase
TestFlatApiLifecycle.settings = settings(max_examples=100, stateful_step_count=40,
                                         deadline=None)
