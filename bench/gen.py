"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size, so the same seed
gives the same bytes. The program under test only ever sees what these
functions return (trace files, speed lists, scenario parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Input sizes per workload. "full" is what the benchmark measures; "tiny"
# is for the benchmark's own self-tests.
#
# Where the sizes come from: the ingest trace has the ~195k rows and the
# fleet the 200 vehicles x 1500 ticks of the sizing probes in the issue that
# defined this benchmark. Fleet trips last 300 s to one hour, the simulated
# hour over which ROADMAP item 3 counts per-step retention; most trips
# outlive the 1500 ticks, so retained session records grow through a pass.
# No source gives the trip-length spread, the 1-in-200 s dropout rate
# (`make_ingest`) or the 1-in-10 totals poll (worker.POLL_EVERY): those are
# assumptions.
SIZES = {
    "full": dict(trip_seconds=30_000, ingest_seconds=19_500, fleet_vehicles=200,
                 fleet_ticks=1_500, fleet_trip_s=(300, 3_600), sweep_scenarios=1_000),
    "tiny": dict(trip_seconds=600, ingest_seconds=400, fleet_vehicles=8,
                 fleet_ticks=150, fleet_trip_s=(20, 80), sweep_scenarios=40),
}


def _reflected_walk(rng: np.random.Generator, n: int, step_sd: float,
                    top: float) -> np.ndarray:
    """Random walk folded into [0, top] (a triangle wave of the cumulative sum)."""
    y = np.mod(np.cumsum(rng.normal(0.0, step_sd, n)), 2.0 * top)
    return np.where(y <= top, y, 2.0 * top - y)


# ---------------------------------------------------------------------------
# trip_1hz: one long 1 Hz trip for `movestar run`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripInput:
    path: Path
    speeds: list[float]          # m/s exactly as written to the file


def make_trip(seed: int, seconds: int, path: Path) -> TripInput:
    """Reflected random walk in [0, 36] m/s, 1 Hz, written as `t,v` CSV."""
    rng = np.random.default_rng([seed, 1])
    text = [f"{v:.3f}" for v in _reflected_walk(rng, seconds, 0.9, 36.0)]
    path.write_text("t,v\n" + "".join(f"{i},{s}\n" for i, s in enumerate(text)),
                    encoding="utf-8")
    return TripInput(path=path, speeds=[float(s) for s in text])


# ---------------------------------------------------------------------------
# ingest_10hz: jittered 10 Hz GPS-style trace with short dropouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IngestInput:
    path: Path
    times: list[float]           # s, exactly as written
    speeds_kmh: list[float]      # km/h, exactly as written
    dropouts: int


def make_ingest(seed: int, seconds: int, path: Path, dropout_every_s: float = 200.0,
                max_dropout_s: float = 5.0) -> IngestInput:
    """10 Hz samples with +-30 ms timestamp jitter and speed noise.

    One dropout of 0.5..`max_dropout_s` seconds falls at a random point in
    each `dropout_every_s` segment, away from the segment ends, so no run of
    empty 1 s windows is longer than `max_dropout_s` and runs never merge.
    """
    rng = np.random.default_rng([seed, 2])
    n = seconds * 10
    t0 = 1000.0 + float(rng.integers(0, 1000))
    t = t0 + 0.1 * np.arange(n) + rng.uniform(-0.03, 0.03, n)
    v = _reflected_walk(rng, n, 1.0, 130.0) + rng.normal(0.0, 0.3, n)
    v = np.abs(v)
    keep = np.ones(n, dtype=bool)
    segments = int(seconds // dropout_every_s)
    for k in range(segments):
        lo = t0 + k * dropout_every_s + 10.0
        start = lo + rng.uniform(0.0, dropout_every_s - 20.0 - max_dropout_s)
        length = rng.uniform(0.5, max_dropout_s)
        keep &= ~((t >= start) & (t < start + length))
    t_text = [f"{x:.3f}" for x in t[keep]]
    v_text = [f"{x:.2f}" for x in v[keep]]
    path.write_text("time,speed_kmh\n" + "".join(f"{a},{b}\n" for a, b in zip(t_text, v_text)),
                    encoding="utf-8")
    return IngestInput(path=path, times=[float(x) for x in t_text],
                       speeds_kmh=[float(x) for x in v_text], dropouts=segments)


# ---------------------------------------------------------------------------
# fleet_stream: per-vehicle trips for a host stepping a fleet every second
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetInput:
    """Speeds per tick and vehicle slot, plus where each slot's trips end.

    `speeds[t][i]` is slot i's speed at tick t. A slot whose trip ends at
    tick t (`ends[t]` lists it) is finalized and destroyed after that tick's
    step, and a new vehicle takes the slot from tick t + 1. Trips still
    running after the last tick are not listed; the host closes them then.
    """

    speeds: list[list[float]]
    ends: list[list[int]]
    veh_codes: list[list[int]]   # vehicle type of each slot's successive trips
    trips: int

    def peak_live_steps(self) -> int:
        """Most session steps held by live vehicles at the end of any tick."""
        age = np.zeros(len(self.veh_codes), dtype=np.int64)
        peak = 0
        for ended in self.ends:
            age += 1
            peak = max(peak, int(age.sum()))
            age[ended] = 0
        return peak


def make_fleet(seed: int, vehicles: int, ticks: int,
               trip_s: tuple[int, int]) -> FleetInput:
    """Stop-and-go speeds in [0, 30] m/s; trip lengths spread evenly over `trip_s` s.

    Slot i's k-th trip has length lo + (hi - lo) * frac(phase_i + k * 0.618...),
    with one phase per 1/vehicles stratum in seeded order. Every seed then has
    the same mix of short and long trips, and so about the same churn and
    retained memory, while which slot gets which trip changes.
    """
    rng = np.random.default_rng([seed, 3])
    lo, hi = trip_s
    phase = (rng.permutation(vehicles) + rng.uniform(0.0, 1.0, vehicles)) / vehicles
    speeds = np.empty((ticks, vehicles))
    ends: list[list[int]] = [[] for _ in range(ticks)]
    veh_codes: list[list[int]] = []
    trips = 0
    for i in range(vehicles):
        codes = []
        t = 0
        while t < ticks:
            length = lo + round((phase[i] + len(codes) * 0.6180339887) % 1.0 * (hi - lo))
            seg = _reflected_walk(rng, length, 0.8, 30.0)[: ticks - t]
            speeds[t:t + len(seg), i] = seg
            codes.append(1 + int(rng.integers(0, 2)))
            trips += 1
            t += len(seg)
            if t < ticks:
                ends[t - 1].append(i)
        veh_codes.append(codes)
    return FleetInput(speeds=speeds.tolist(), ends=ends, veh_codes=veh_codes, trips=trips)


# ---------------------------------------------------------------------------
# signal_sweep: single-intersection approaches (acceptance criterion 8 ranges)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    approach_m: float
    cruise_mps: float
    green_s: float
    red_s: float
    offset_s: float
    veh: int


def make_scenarios(seed: int, count: int, red_per_100: int = 53) -> list[ScenarioSpec]:
    """Approaches with exactly `red_per_100` red arrivals in every 100.

    Speed, distance and signal timings are drawn from the acceptance
    criterion 8 ranges. The signal offset is then set so the vehicle reaches
    the bar at a uniformly drawn point of a red or a green phase: red and
    green arrivals differ in cost several times over, so a fixed share keeps
    the work of a pass about the same from seed to seed.
    """
    rng = np.random.default_rng([seed, 4])
    out = []
    for k in range(count):
        v_c = float(rng.uniform(8.0, 18.0))
        n = int(rng.integers(8, 22))
        green = float(rng.uniform(15.0, 40.0))
        red = float(rng.uniform(15.0, 45.0))
        period = green + red
        on_red = (k * red_per_100) % 100 < red_per_100
        phase = float(rng.uniform(green, period) if on_red else rng.uniform(0.0, green))
        out.append(ScenarioSpec(approach_m=n * v_c, cruise_mps=v_c, green_s=green, red_s=red,
                                offset_s=(phase - n) % period, veh=1 + k % 2))
    return out
