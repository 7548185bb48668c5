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
    """One approach to a fixed-time signal."""

    approach_m: float
    cruise_mps: float
    green_s: float
    red_s: float
    offset_s: float
    source_type: SourceType = SourceType.LDV

    def __post_init__(self):
        if not all(map(math.isfinite, (self.approach_m, self.cruise_mps, self.green_s,
                                       self.red_s, self.offset_s))):
            raise InfeasibleScenario("distances, speeds and durations must be finite")
        if self.approach_m <= 0 or self.green_s <= 0 or self.red_s <= 0:
            raise InfeasibleScenario("durations and distances must be positive")
        if self.cruise_mps <= GLIDE_FLOOR_MPS:
            raise InfeasibleScenario(
                f"cruise speed must exceed {GLIDE_FLOOR_MPS} m/s")
        if self.longest_cycle_s > MAX_CYCLE_S:
            raise InfeasibleScenario(
                f"cycles of up to {self.longest_cycle_s:.6g} s exceed the {MAX_CYCLE_S} s limit")

    @property
    def longest_cycle_s(self) -> float:
        """An upper bound on the length of either generated cycle, in float
        arithmetic on the arguments alone. The baseline waits at most one
        signal period and its ramps last under cruise/2 s each; the glide
        covers the same distance and never drops below GLIDE_MIN_FRACTION
        of cruise speed. The constant absorbs rounding to whole seconds."""
        return ((self.approach_m + DEPARTURE_TARGET_M) / (GLIDE_MIN_FRACTION * self.cruise_mps)
                + self.cruise_mps + self.period_s + 10.0)

    @property
    def period_s(self) -> float:
        return self.green_s + self.red_s

    def is_green(self, t: float) -> bool:
        return (t + self.offset_s) % self.period_s < self.green_s

    def next_green_onset(self, t: float) -> float:
        """First green onset at or after time t (t itself if green starts there)."""
        phase = (t + self.offset_s) % self.period_s
        if phase == 0.0:
            return t
        return t + (self.period_s - phase)

    # -- snapped geometry -------------------------------------------------
    # The approach is quantized to whole cruise seconds and ramp step counts
    # are forced odd so every phase distance is an exact multiple of the
    # cruise speed; both generated cycles then close to the same total.

    @property
    def cruise_seconds_to_bar(self) -> int:
        return max(1, round(self.approach_m / self.cruise_mps))

    @property
    def stop_ramp_steps(self) -> int:
        return _odd_at_least(self.cruise_mps / STOP_DECEL_MAX)

    @property
    def launch_ramp_steps(self) -> int:
        return _odd_at_least(self.cruise_mps / RESTART_ACCEL_MAX)

    @property
    def departure_cruise_seconds(self) -> int:
        half = (self.launch_ramp_steps + 1) // 2
        return max(1, round(DEPARTURE_TARGET_M / self.cruise_mps) - half)

    @property
    def effective_approach_m(self) -> float:
        return self.cruise_seconds_to_bar * self.cruise_mps

    @property
    def effective_departure_m(self) -> float:
        half = (self.launch_ramp_steps + 1) // 2
        return (half + self.departure_cruise_seconds) * self.cruise_mps

    @property
    def total_distance_m(self) -> float:
        return self.effective_approach_m + self.effective_departure_m

    @property
    def arrives_on_red(self) -> bool:
        return not self.is_green(float(self.cruise_seconds_to_bar))


@dataclass(frozen=True)
class GlideOutcome:
    cycle: DriveCycle
    feasible: bool
    glide_speed_mps: float | None = None


def _odd_at_least(x: float) -> int:
    n = max(1, math.ceil(x))
    return n if n % 2 == 1 else n + 1


def gen_baseline_trajectory(sc: SignalScenario) -> DriveCycle:
    """Conventional-driver profile: stop on red, wait, relaunch.

    A green arrival produces a pure constant-speed cycle.
    """
    # Each derived property is read once, into a local; `arrives_on_red`
    # would derive n again.
    v_c = sc.cruise_mps
    n = sc.cruise_seconds_to_bar
    m = sc.launch_ramp_steps
    b = sc.departure_cruise_seconds
    half_m = (m + 1) // 2

    if sc.is_green(float(n)):
        return DriveCycle.from_speeds([v_c] * (n + half_m + b))

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
    return DriveCycle.from_speeds(speeds)


def gen_smoothed_trajectory(sc: SignalScenario) -> GlideOutcome:
    """Eco-glide profile: one early slowdown timed to the green onset.

    Falls back to the baseline profile (flagged) when no glide speed within
    the comfort bounds can meet the green window at the bar.
    """
    # Each derived property is read once, into a local: bar_m and total_m
    # are `effective_approach_m` and `total_distance_m` from n.
    v_c = sc.cruise_mps
    n = sc.cruise_seconds_to_bar
    if sc.is_green(float(n)):
        return GlideOutcome(cycle=gen_baseline_trajectory(sc), feasible=True,
                            glide_speed_mps=v_c)

    bar_m = n * v_c
    total_m = bar_m + sc.effective_departure_m
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

    # Skip the probes that surely reach the bar before green onset:
    # - A glide crosses the bar within bar_m / v_g s, as its deceleration
    #   ramp averages at least v_g. So a glide that is not early has
    #   v_g <= v_cap.
    # - A kept glide speed is at least v_low.
    # - It lies at most v_c / (2 * denom) below its probe speed, as b2 is
    #   rounded to the nearest cruise second. Here denom >= 1 + hold, and
    #   hold >= n - k2, as the ramp covers at most k2 * v_c of bar_m = n * v_c.
    # A probe whose every possible v_g exceeds v_cap is rejected, and the
    # margins are far above rounding error. This bound falls as the probe
    # index grows, so the skipped probes come first.
    v_cap = bar_m / (onset - 1e-6) * (1.0 + 1e-6)

    def may_meet_green(i: int) -> bool:
        v_probe = v_c - span * i / _SWEEP_STEPS
        k2 = max(1, ceil((v_c - v_probe) / GLIDE_DECEL_MAX))
        v_g_min = v_probe - v_c / (2 * max(2, 1 + n - k2)) - 1e-6 * v_c
        return max(v_low, v_g_min) <= v_cap

    first = bisect.bisect_left(range(_SWEEP_STEPS + 1), True, key=may_meet_green)
    for i in range(first, _SWEEP_STEPS + 1):
        v_probe = v_c - span * i / _SWEEP_STEPS
        if v_probe >= v_top:
            continue
        drop = v_c - v_probe
        k2 = ceil(drop / GLIDE_DECEL_MAX)    # drop > 1e-9, so both are at least 1
        m2 = ceil(drop / GLIDE_ACCEL_MAX)
        alpha = (k2 + 1) / 2.0
        dist_decel = k2 * v_c - drop * alpha
        if dist_decel > bar_m:
            continue
        hold = max(1, ceil((bar_m - dist_decel) / v_probe))
        beta = (m2 + 1) / 2.0
        dist_accel = m2 * v_probe + drop * beta
        b2 = round((total_m - dist_decel - hold * v_probe - dist_accel) / v_c)
        if b2 < 0:
            continue

        # The glide speed that makes the profile cover exactly total_m;
        # denom >= 2, as alpha >= 1, hold >= 1 and m2 >= beta.
        denom = alpha + hold + m2 - beta
        v_g = (total_m - v_c * (k2 - alpha + beta + b2)) / denom
        if not (v_low <= v_g < v_top):
            continue
        glide_drop = v_c - v_g
        if glide_drop / k2 > decel_cap or glide_drop / m2 > accel_cap:
            continue
        dist_decel = k2 * v_c - glide_drop * alpha
        if dist_decel > bar_m or bar_m > dist_decel + hold * v_g + 1e-9:
            continue
        t_cross = k2 + (bar_m - dist_decel) / v_g
        if t_cross < early or t_cross >= late:
            continue

        speeds = [v_c - i2 * glide_drop / k2 for i2 in range(1, k2 + 1)]
        speeds += [v_g] * hold
        speeds += [v_g + j * glide_drop / m2 for j in range(1, m2 + 1)]
        speeds += [v_c] * b2
        return GlideOutcome(cycle=DriveCycle.from_speeds(speeds), feasible=True,
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
