"""Independent oracle for the speed -> emissions pipeline.

This is a deliberately plain, self-contained transcription of the published
pipeline semantics: classification happens in mph, tables are parsed here
with the csv module, and every stage is a straight loop. It exists so the
library can be checked against a second implementation that shares no code
with it beyond the CSV assets themselves.

Conventions transcribed (recorded in the asset headers as well):
  braking   a <= -2 mph/s, or a < -1 mph/s on 3 consecutive seconds;
            braking wins over idle
  idle      |v| < 1 mph
  classes   [1, 25) mph, [25, 50) mph, [50, inf) mph
  VSP bins  lower-inclusive, upper-exclusive; coasting below 0 in the two
            lower classes; everything below 6 kW/t in the top class
  VSP       (A*v + B*v^2 + C*v^3 + M*(a + 9.8*sin(theta))*v) / f   [SI]
"""

import csv
import math

MPH = 0.44704  # m/s per mph


def read_params(path):
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "source_type":
                continue
            out[row[0]] = {
                "A": float(row[1]), "B": float(row[2]), "C": float(row[3]),
                "M": float(row[4]), "f": float(row[5]),
            }
    return out


def read_rates(path):
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "source_type":
                continue
            out[(row[0], int(row[1]))] = [float(x) for x in row[2:7]]
    return out


def vsp_si(v, a, p, theta=0.0):
    return (p["A"] * v + p["B"] * v ** 2 + p["C"] * v ** 3
            + p["M"] * (a + 9.8 * math.sin(theta)) * v) / p["f"]


def opmode_from_mph(v_mph, a_mphps, prev2_mphps, vsp):
    """Mode for one second given mph-domain kinematics. prev2 = last two
    accelerations in mph/s, oldest first."""
    if a_mphps <= -2.0:
        return 0
    if len(prev2_mphps) == 2 and a_mphps < -1.0 \
            and prev2_mphps[0] < -1.0 and prev2_mphps[1] < -1.0:
        return 0
    if v_mph < 1.0:
        return 1
    if v_mph < 25.0:
        if vsp < 0.0:
            return 11
        if vsp < 3.0:
            return 12
        if vsp < 6.0:
            return 13
        if vsp < 9.0:
            return 14
        if vsp < 12.0:
            return 15
        return 16
    if v_mph < 50.0:
        if vsp < 0.0:
            return 21
        if vsp < 3.0:
            return 22
        if vsp < 6.0:
            return 23
        if vsp < 9.0:
            return 24
        if vsp < 12.0:
            return 25
        if vsp < 18.0:
            return 27
        if vsp < 24.0:
            return 28
        if vsp < 30.0:
            return 29
        return 30
    if vsp < 6.0:
        return 33
    if vsp < 12.0:
        return 35
    if vsp < 18.0:
        return 37
    if vsp < 24.0:
        return 38
    if vsp < 30.0:
        return 39
    return 40


def run_reference(speeds_mps, veh_token, params_path, rates_path):
    """Full pipeline on a 1 Hz m/s speed list.

    Returns dict with mode list, per-second 5-vectors, totals, distance in
    metres, and per-km factors (None at zero distance).
    """
    params = read_params(params_path)[veh_token]
    rates = read_rates(rates_path)

    accels = [0.0]
    for i in range(1, len(speeds_mps)):
        accels.append(speeds_mps[i] - speeds_mps[i - 1])

    modes = []
    per_second = []
    totals = [0.0] * 5
    distance = 0.0
    for i, v in enumerate(speeds_mps):
        a = accels[i]
        prev2 = [x / MPH for x in accels[max(0, i - 2):i]]
        mode = opmode_from_mph(v / MPH, a / MPH, prev2 if len(prev2) == 2 else [],
                               vsp_si(v, a, params))
        row = [x / 3600.0 for x in rates[(veh_token, mode)]]
        modes.append(mode)
        per_second.append(row)
        totals = [t + x for t, x in zip(totals, row)]
        distance += v
    ef = None
    if distance / 1000.0 != 0.0:
        ef = [t / (distance / 1000.0) for t in totals]
    return {"modes": modes, "per_second": per_second, "totals": totals,
            "distance_m": distance, "ef": ef}
