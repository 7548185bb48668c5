"""Single-intersection eco-glide demonstration.

Compares two trajectories through one signalized intersection with the same
start state and the same total travel distance:

  baseline: cruise, hard stop at the bar on red, idle, accelerate back;
  smoothed: one early deceleration to a constant glide speed timed to meet
            the green onset at the bar, then accelerate back.

Profiles are built directly on the 1 s grid. The stop-bar distance is
snapped to a whole number of cruise seconds and the glide speed is solved
in closed form from the distance balance, so both cycles cover the same
distance to float precision. The glide deceleration is capped safely below
the braking threshold and the glide speed floor sits above the idle band,
so a feasible smoothed cycle contains no braking or idle seconds.
"""

from __future__ import annotations

import bisect
import math
import numbers
import sys
import weakref
from dataclasses import dataclass

from .core import CycleResult, DriveCycle, aggregate_cycle
from .errors import InfeasibleScenario
from .model import SPECIES_NAMES, SourceType
from .tables import TableSet

DEPARTURE_TARGET_M = 250.0   # nominal post-intersection segment
STOP_DECEL_MAX = 3.0         # m/s^2, baseline braking bound
RESTART_ACCEL_MAX = 2.0      # m/s^2, baseline launch bound
GLIDE_DECEL_MAX = 0.4        # m/s^2, below the -1 mph/s soft-braking trigger
GLIDE_ACCEL_MAX = 1.5        # m/s^2
GLIDE_FLOOR_MPS = 2.0        # 4.5 mph, above the idle band
# Glides deeper than this fraction of cruise speed burn more fuel than a
# plain stop-and-wait (long hold at a powered bin vs. cheap idle), so the
# planner declines them and falls back to the conventional profile.
GLIDE_MIN_FRACTION = 0.55
# The glide planner probes _SWEEP_STEPS + 1 evenly spaced speeds, from cruise
# speed down to the glide floor, and keeps the first that meets the green.
_SWEEP_STEPS = 240
# Longest cycle a scenario may generate: one day. The demo builds both
# cycles second by second, so its time and memory grow with their length;
# an approach long enough to need more is not a single intersection.
MAX_CYCLE_S = 86_400


@dataclass(frozen=True)
class SignalScenario:
    """One approach to a fixed-time signal.

    Its geometry (`period_s`, `longest_cycle_s`, `cruise_seconds_to_bar`,
    the ramp and departure step counts, the effective distances and
    `arrives_on_red`) is derived once, when the scenario is built. Only the
    six arguments are fields, so `repr`, `==` and hash see them alone. The
    five numbers, finite reals but not bools, are stored as floats: the
    geometry is float arithmetic whatever real type was passed."""

    approach_m: float
    cruise_mps: float
    green_s: float
    red_s: float
    offset_s: float
    source_type: SourceType = SourceType.LDV

    def __post_init__(self):
        for name in ("approach_m", "cruise_mps", "green_s", "red_s", "offset_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InfeasibleScenario(f"{name} must be a real number, got {value!r}")
            if not abs(value) <= sys.float_info.max:    # NaN, inf or past every float
                raise InfeasibleScenario("distances, speeds and durations must be finite")
            self.__dict__[name] = float(value)
        if self.approach_m <= 0 or self.green_s <= 0 or self.red_s <= 0:
            raise InfeasibleScenario("durations and distances must be positive")
        if self.cruise_mps <= GLIDE_FLOOR_MPS:
            raise InfeasibleScenario(
                f"cruise speed must exceed {GLIDE_FLOOR_MPS} m/s")
        # longest_cycle_s bounds the length of either generated cycle, in
        # float arithmetic on the arguments alone. The baseline waits at most
        # one signal period and its ramps last under cruise/2 s each; the
        # glide covers the same distance and never drops below
        # GLIDE_MIN_FRACTION of cruise speed. The constant absorbs rounding
        # to whole seconds.
        v_c = self.cruise_mps
        period_s = self.green_s + self.red_s
        longest_cycle_s = ((self.approach_m + DEPARTURE_TARGET_M) / (GLIDE_MIN_FRACTION * v_c)
                           + v_c + period_s + 10.0)
        if longest_cycle_s > MAX_CYCLE_S:
            raise InfeasibleScenario(
                f"cycles of up to {longest_cycle_s:.6g} s exceed the {MAX_CYCLE_S} s limit")
        if not isinstance(self.source_type, SourceType):
            raise InfeasibleScenario(
                f"source type must be a SourceType, got {self.source_type!r}")
        # The approach is quantized to whole cruise seconds and ramp step
        # counts are forced odd so every phase distance is an exact multiple
        # of the cruise speed; both generated cycles then close to the same total.
        n = max(1, round(self.approach_m / v_c))
        launch = _odd_at_least(v_c / RESTART_ACCEL_MAX)
        half = (launch + 1) // 2
        departure = max(1, round(DEPARTURE_TARGET_M / v_c) - half)
        approach_m = n * v_c
        departure_m = (half + departure) * v_c
        # Frozen: set into `__dict__` directly, as `RateTable.__init__` does.
        self.__dict__.update(
            period_s=period_s, longest_cycle_s=longest_cycle_s,
            cruise_seconds_to_bar=n, stop_ramp_steps=_odd_at_least(v_c / STOP_DECEL_MAX),
            launch_ramp_steps=launch, departure_cruise_seconds=departure,
            effective_approach_m=approach_m, effective_departure_m=departure_m,
            total_distance_m=approach_m + departure_m)
        self.__dict__["arrives_on_red"] = not self.is_green(float(n))

    def is_green(self, t: float) -> bool:
        return (t + self.offset_s) % self.period_s < self.green_s

    def next_green_onset(self, t: float) -> float:
        """First green onset at or after time t (t itself if green starts there)."""
        phase = (t + self.offset_s) % self.period_s
        if phase == 0.0:
            return t
        return t + (self.period_s - phase)


@dataclass(frozen=True, init=False)
class GlideOutcome:
    cycle: DriveCycle
    feasible: bool
    glide_speed_mps: float | None = None

    def __init__(self, cycle: DriveCycle, feasible: bool, glide_speed_mps: float | None = None):
        self.__dict__.update(cycle=cycle, feasible=feasible, glide_speed_mps=glide_speed_mps)


def _odd_at_least(x: float) -> int:
    n = max(1, math.ceil(x))
    return n if n % 2 == 1 else n + 1


_last_baseline = ()  # weak references to the last scenario and its cycle


def gen_baseline_trajectory(sc: SignalScenario) -> DriveCycle:
    """Conventional-driver profile: stop on red, wait, relaunch.

    A green arrival produces a pure constant-speed cycle.

    One entry is kept weakly: a call with the last scenario (`is`) returns
    its cycle while that lives, so a glide's fallback is the caller's
    baseline. A thread race costs at most a miss, as the entry is read once.
    """
    global _last_baseline
    last = _last_baseline
    if last and last[0]() is sc:
        cycle = last[1]()
        if cycle is not None:
            return cycle
    v_c, n = sc.cruise_mps, sc.cruise_seconds_to_bar
    m, b = sc.launch_ramp_steps, sc.departure_cruise_seconds
    if not sc.arrives_on_red:
        speeds = [v_c] * (n + (m + 1) // 2 + b)
    else:
        k = sc.stop_ramp_steps
        a = n - (k - 1) // 2
        if a < 0:
            raise InfeasibleScenario(
                f"approach of {n} cruise seconds is too short to stop from {v_c} m/s")
        t_stop = a + k
        onset = sc.next_green_onset(float(n))
        wait = max(0, math.ceil(onset - t_stop))

        speeds = [v_c] * a
        speeds += [v_c * (k - i) / k for i in range(1, k + 1)]
        speeds += [0.0] * wait
        speeds += [v_c * j / m for j in range(1, m + 1)]
        speeds += [v_c] * b
    cycle = DriveCycle(speeds)
    _last_baseline = (weakref.ref(sc), weakref.ref(cycle))
    return cycle


def gen_smoothed_trajectory(sc: SignalScenario) -> GlideOutcome:
    """Eco-glide profile: one early slowdown timed to the green onset.

    Falls back to the `gen_baseline_trajectory(sc)` cycle (flagged) when no
    glide speed within the comfort bounds can meet the green window at the bar.
    """
    v_c, n = sc.cruise_mps, sc.cruise_seconds_to_bar
    if not sc.arrives_on_red:
        return GlideOutcome(cycle=gen_baseline_trajectory(sc), feasible=True,
                            glide_speed_mps=v_c)

    bar_m, total_m = sc.effective_approach_m, sc.total_distance_m
    onset = sc.next_green_onset(float(n))
    v_floor = max(GLIDE_FLOOR_MPS, GLIDE_MIN_FRACTION * v_c)

    # The tests below are those of the per-probe reference planner
    # (tests/reference_demo.py), with its bounds hoisted out of the loop and
    # its glide-speed solver inlined. `drop * alpha` stands for its
    # `drop * (k2 + 1) / 2.0`; halving is exact, so both round alike.
    ceil = math.ceil
    span = v_c - v_floor
    v_top, v_low = v_c - 1e-9, v_floor - 1e-9
    decel_cap, accel_cap = GLIDE_DECEL_MAX + 1e-9, GLIDE_ACCEL_MAX + 1e-9
    early, late = onset - 1e-9, onset + sc.green_s

    # Cap the glide speed of a glide that does not reach the bar early.
    # A kept glide has u = v_c - v_g > 0, computed exactly (v_g > v_c / 2),
    # and a ramp of k2 >= u / rate seconds, as its u / k2 passed decel_cap
    # after rounding. With v_c = v_g + u its crossing time is
    #   t_cross = bar_m / v_g - (k2 - 1) * u / (2 * v_g),
    # which falls as k2 grows, and it is at least t_lo. Putting k2 = u / rate
    # and multiplying by v_g gives h(u) <= 0 for the convex
    #   h(u) = u^2 / (2 * rate) - b * u + c,  b = t_lo + 1/2,  c = t_lo * v_c - bar_m,
    # so u lies between its roots, and v_g <= v_c - U for the smaller root
    # U = 2c / (b + sqrt(disc)), which does not cancel. With no real root no
    # glide is kept. The margins:
    # - t_lo is onset less 1e-6 s: the loop keeps t_cross >= onset - 1e-9,
    #   and t_cross errs by under 1e-9 s in cycles of at most MAX_CYCLE_S.
    # - rate is decel_cap plus 1e-9, far above the 2^-52 relative rounding
    #   of u / k2.
    # - disc errs by under 4 * 2^-53 of disc_scale, so only a disc below
    #   -1e-12 * disc_scale surely has no root; a higher one counts as >= 0.
    # - Where v_c - U >= v_low >= 0.55 * v_c, U errs by under 1e-7 * v_c
    #   near a double root (the square root of disc's error) and under 2e-10
    #   elsewhere; the relative 1e-6 and absolute 1e-9 on the cap cover both.
    t_lo = onset - 1e-6
    rate = decel_cap + 1e-9
    b = t_lo + 0.5
    c = t_lo * v_c - bar_m
    disc = b * b - 2.0 * c / rate
    disc_scale = b * b + 2.0 * (t_lo * v_c + bar_m) / rate
    v_cap = (v_c - 2.0 * c / (b + math.sqrt(max(disc, 0.0)))) * (1.0 + 1e-6) + 1e-9
    if disc < -1e-12 * disc_scale or v_cap < v_low:
        return GlideOutcome(cycle=gen_baseline_trajectory(sc), feasible=False)

    # Skip the probes that surely reach the bar before green onset:
    # - A kept glide speed is at least v_low and at most v_cap.
    # - It lies at most v_c / (2 * denom) below its probe speed, as b2 is
    #   rounded to the nearest cruise second. Here denom >= 1 + hold, and
    #   hold >= n - k2, as the ramp covers at most k2 * v_c of bar_m = n * v_c.
    # A probe whose every possible v_g exceeds v_cap is rejected. This bound
    # falls as the probe index grows, so the skipped probes come first.

    def may_meet_green(i: int) -> bool:
        v_probe = v_c - span * i / _SWEEP_STEPS
        k2 = max(1, ceil((v_c - v_probe) / GLIDE_DECEL_MAX))
        v_g_min = v_probe - v_c / (2 * max(2, 1 + n - k2)) - 1e-6 * v_c
        return max(v_low, v_g_min) <= v_cap

    first = bisect.bisect_left(range(_SWEEP_STEPS + 1), True, key=may_meet_green)
    # Probes with the same ramp lengths k2 and m2, hold and cruise-out
    # seconds b2 form one profile, tested once. A probe's speed matters only
    # until its profile is known: every test after that, and the cycle,
    # depend on the profile alone. Neighbouring probes share a profile in
    # runs, so a probe whose profile equals the last one tested (and
    # rejected) is skipped. A ramp length's terms are computed when it changes.
    tested = None
    k2_at = m2_at = 0
    for i in range(first, _SWEEP_STEPS + 1):
        v_probe = v_c - span * i / _SWEEP_STEPS
        if v_probe >= v_top:
            continue
        drop = v_c - v_probe
        k2 = ceil(drop / GLIDE_DECEL_MAX)    # drop > 1e-9, so k2 and m2 are at least 1
        if k2 != k2_at:
            k2_at, k2_v, alpha = k2, k2 * v_c, (k2 + 1) / 2.0
        dist_decel = k2_v - drop * alpha
        if dist_decel > bar_m:
            continue
        m2 = ceil(drop / GLIDE_ACCEL_MAX)
        if m2 != m2_at:
            m2_at, beta = m2, (m2 + 1) / 2.0
        # dist_decel <= bar_m here, so `or 1` is max(1, ceil(...)).
        hold = ceil((bar_m - dist_decel) / v_probe) or 1
        b2 = round((total_m - dist_decel - hold * v_probe - (m2 * v_probe + drop * beta)) / v_c)
        profile = (k2, m2, hold, b2)
        if b2 < 0 or profile == tested:
            continue
        tested = profile

        # The glide speed that makes the profile cover exactly total_m;
        # denom >= 2, as alpha >= 1, hold >= 1 and m2 >= beta.
        denom = alpha + hold + m2 - beta
        v_g = (total_m - v_c * (k2 - alpha + beta + b2)) / denom
        if not (v_low <= v_g < v_top):
            continue
        glide_drop = v_c - v_g
        if glide_drop / k2 > decel_cap or glide_drop / m2 > accel_cap:
            continue
        dist_decel = k2_v - glide_drop * alpha
        if dist_decel > bar_m or bar_m > dist_decel + hold * v_g + 1e-9:
            continue
        t_cross = k2 + (bar_m - dist_decel) / v_g
        if t_cross < early or t_cross >= late:
            continue

        speeds = [v_c - i2 * glide_drop / k2 for i2 in range(1, k2 + 1)]
        speeds += [v_g] * hold
        speeds += [v_g + j * glide_drop / m2 for j in range(1, m2 + 1)]
        speeds += [v_c] * b2
        return GlideOutcome(cycle=DriveCycle(speeds), feasible=True,
                            glide_speed_mps=v_g)

    return GlideOutcome(cycle=gen_baseline_trajectory(sc), feasible=False)


@dataclass(frozen=True)
class ScenarioComparison:
    """Per-species totals for both trajectories plus relative change."""

    scenario: SignalScenario
    baseline: CycleResult
    smoothed: CycleResult
    glide_used: bool
    glide_speed_mps: float | None

    def delta_pct(self) -> dict[str, float]:
        out = {}
        for name, base, smooth in zip(SPECIES_NAMES, self.baseline.totals,
                                      self.smoothed.totals):
            if base == 0.0:
                out[name] = 0.0 if smooth == 0.0 else math.inf
            else:
                out[name] = (smooth - base) / base * 100.0
        return out

    def csv_lines(self) -> list[str]:
        lines = ["species,baseline_total,smoothed_total,delta_pct"]
        deltas = self.delta_pct()
        for name, base, smooth in zip(SPECIES_NAMES, self.baseline.totals,
                                      self.smoothed.totals):
            lines.append(f"{name},{base:.9f},{smooth:.9f},{deltas[name]:.6f}")
        lines.append(f"distance_m,{self.baseline.distance_m:.6f},"
                     f"{self.smoothed.distance_m:.6f},")
        lines.append(f"duration_s,{len(self.baseline.modes)},"
                     f"{len(self.smoothed.modes)},")
        lines.append(f"glide_used,{int(self.glide_used)},"
                     f"{'' if self.glide_speed_mps is None else format(self.glide_speed_mps, '.6f')},")
        return lines


def compare_scenarios(sc: SignalScenario, tables: TableSet) -> ScenarioComparison:
    """Run both trajectories through the emission engine and compare.

    On a green arrival or an infeasible red the smoothed cycle is the
    baseline profile, so it is built and aggregated once for both sides."""
    params = tables.params_for(sc.source_type)
    outcome = gen_smoothed_trajectory(sc)
    smoothed = aggregate_cycle(outcome.cycle, params, tables.rates)
    if outcome.feasible and sc.arrives_on_red:
        baseline = aggregate_cycle(gen_baseline_trajectory(sc), params, tables.rates)
    else:
        baseline = smoothed
    return ScenarioComparison(scenario=sc, baseline=baseline, smoothed=smoothed,
                              glide_used=outcome.feasible,
                              glide_speed_mps=outcome.glide_speed_mps)


__all__ = [
    "SignalScenario", "GlideOutcome", "ScenarioComparison",
    "gen_baseline_trajectory", "gen_smoothed_trajectory", "compare_scenarios",
    "DEPARTURE_TARGET_M", "STOP_DECEL_MAX", "RESTART_ACCEL_MAX",
    "GLIDE_DECEL_MAX", "GLIDE_ACCEL_MAX", "GLIDE_FLOOR_MPS", "MAX_CYCLE_S",
]
