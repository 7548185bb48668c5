"""Reference glide planner: the per-probe loop `demo.gen_smoothed_trajectory`
ran before it learned to skip the probes that surely reach the bar early.

Kept as the oracle for `tests/test_demo.py`. It tries every probe speed one
at a time, from just under cruise speed downwards, and builds the cycle of
the first one whose solved glide speed meets every bound.
"""

from __future__ import annotations

import math

from movestar.core import DriveCycle
from movestar.demo import (
    GLIDE_ACCEL_MAX,
    GLIDE_DECEL_MAX,
    GLIDE_FLOOR_MPS,
    GLIDE_MIN_FRACTION,
    GlideOutcome,
    SignalScenario,
    gen_baseline_trajectory,
)


def reference_smoothed_trajectory(sc: SignalScenario) -> GlideOutcome:
    """The eco-glide profile, or the flagged baseline when no probe fits."""
    if not sc.arrives_on_red:
        return GlideOutcome(cycle=gen_baseline_trajectory(sc), feasible=True,
                            glide_speed_mps=sc.cruise_mps)

    v_c = sc.cruise_mps
    n = sc.cruise_seconds_to_bar
    bar_m = sc.effective_approach_m
    total_m = sc.total_distance_m
    onset = sc.next_green_onset(float(n))
    v_floor = max(GLIDE_FLOOR_MPS, GLIDE_MIN_FRACTION * v_c)

    sweep_steps = 240
    for i in range(sweep_steps + 1):
        v_probe = v_c - (v_c - v_floor) * i / sweep_steps
        if v_probe >= v_c - 1e-9:
            continue
        k2 = max(1, math.ceil((v_c - v_probe) / GLIDE_DECEL_MAX))
        m2 = max(1, math.ceil((v_c - v_probe) / GLIDE_ACCEL_MAX))
        dist_decel = k2 * v_c - (v_c - v_probe) * (k2 + 1) / 2.0
        if dist_decel > bar_m:
            continue
        hold = max(1, math.ceil((bar_m - dist_decel) / v_probe))
        dist_accel = m2 * v_probe + (v_c - v_probe) * (m2 + 1) / 2.0
        b2 = round((total_m - dist_decel - hold * v_probe - dist_accel) / v_c)
        if b2 < 0:
            continue

        solved = _solve_glide_speed(total_m, v_c, k2, hold, m2, b2)
        if solved is None:
            continue
        v_g = solved
        if not (v_floor - 1e-9 <= v_g < v_c - 1e-9):
            continue
        if (v_c - v_g) / k2 > GLIDE_DECEL_MAX + 1e-9:
            continue
        if (v_c - v_g) / m2 > GLIDE_ACCEL_MAX + 1e-9:
            continue
        dist_decel = k2 * v_c - (v_c - v_g) * (k2 + 1) / 2.0
        if dist_decel > bar_m or bar_m > dist_decel + hold * v_g + 1e-9:
            continue
        t_cross = k2 + (bar_m - dist_decel) / v_g
        if t_cross < onset - 1e-9 or t_cross >= onset + sc.green_s:
            continue

        speeds = [v_c - i2 * (v_c - v_g) / k2 for i2 in range(1, k2 + 1)]
        speeds += [v_g] * hold
        speeds += [v_g + j * (v_c - v_g) / m2 for j in range(1, m2 + 1)]
        speeds += [v_c] * b2
        return GlideOutcome(cycle=DriveCycle.from_speeds(speeds), feasible=True,
                            glide_speed_mps=v_g)

    return GlideOutcome(cycle=gen_baseline_trajectory(sc), feasible=False)


def _solve_glide_speed(total_m: float, v_c: float, k2: int, hold: int,
                       m2: int, b2: int) -> float | None:
    """Glide speed making the smoothed profile cover exactly total_m."""
    alpha = (k2 + 1) / 2.0
    beta = (m2 + 1) / 2.0
    denom = alpha + hold + m2 - beta
    if denom <= 0:
        return None
    return (total_m - v_c * (k2 - alpha + beta + b2)) / denom
