"""In-process half of the benchmark: one child process per call.

    python bench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
                           --size full|tiny --work DIR --out RESULT.json

With `--trace 0` it runs the in-process workloads (fleet_stream,
signal_sweep) for S seconds and reports each pass and each request. With
`--trace 1` it runs any workload in-process through the same public calls
the CLI makes, alternating untraced and traced passes, and reports the
per-layer metrics. `run.py` starts it with `PYTHONPATH=src` and reads the
result file; peak RSS is taken by the parent from the child's rusage.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np

import clock
import gen
import reference as ref
from spans import Tracer

from movestar import cli, core, cycleio, demo, flatapi, session, tables as tables_mod

POLL_EVERY = 10          # fleet host polls totals of one vehicle in ten per tick
SWEEP_BLOCK = 250        # scenarios timed between two calibration loops
FLEET_CALIBRATE_EVERY = 100   # fleet ticks timed between two calibration loops
CHECK_EVERY = 10         # one finished fleet trip in ten is checked against batch
RETAINED_VEHICLES = 50   # sessions measured under tracemalloc
RETAINED_STEPS = 400

# ---------------------------------------------------------------------------
# Public entry points the passes call; the traced run swaps in wrapped copies
# ---------------------------------------------------------------------------

def _resample(raw):
    return cycleio.resample_speeds_to_1hz(raw.times, raw.speeds_mps())


def _scenario(spec: gen.ScenarioSpec) -> demo.SignalScenario:
    return demo.SignalScenario(approach_m=spec.approach_m, cruise_mps=spec.cruise_mps,
                               green_s=spec.green_s, red_s=spec.red_s, offset_s=spec.offset_s,
                               source_type=core.SourceType.from_code(spec.veh))


CALLS = {
    "tables.load": tables_mod.load_tables_from_dir,
    "cycleio.parse_trace": cycleio.parse_trace,
    "cycleio.resample": _resample,
    "cycleio.write_cycle_csv": cycleio.write_cycle_csv,
    "core.from_speeds": core.DriveCycle.from_speeds,
    "core.aggregate_cycle": core.aggregate_cycle,
    "cli.write_er_csv": cli.write_er_csv,
    "cli.write_ef_csv": cli.write_ef_csv,
    "demo.gen_baseline": demo.gen_baseline_trajectory,
    "demo.gen_smoothed": demo.gen_smoothed_trajectory,
    "flatapi.create": flatapi.create,
    "flatapi.step": flatapi.step,
    "flatapi.totals": flatapi.totals,
    "flatapi.finalize": flatapi.finalize,
    "flatapi.destroy": flatapi.destroy,
    "session.create": session.session_create,
    "session.step": session.session_step,
    "session.finalize": session.session_finalize,
}


def api(tracer: Tracer | None) -> SimpleNamespace:
    """Namespace of entry points keyed by their span name with '.' -> '_'."""
    return SimpleNamespace(**{
        name.replace(".", "_"): fn if tracer is None else tracer.wrap(name, fn)
        for name, fn in CALLS.items()})


# ---------------------------------------------------------------------------
# Passes: one pass over a workload's fixed input
# ---------------------------------------------------------------------------

def trip_pass(a, path: Path, prefix: Path):
    """The calls `movestar run --veh 1` makes, in order."""
    tables = a.tables_load(tables_mod.resolve_tables_dir(None))
    raw = a.cycleio_parse_trace(path, "m/s")
    cycle = a.core_from_speeds(a.cycleio_resample(raw))
    result = a.core_aggregate_cycle(cycle, tables.params_for(core.SourceType.LDV), tables.rates)
    er, ef = Path(f"{prefix}_ER.csv"), Path(f"{prefix}_EF.csv")
    a.cli_write_er_csv(result, tables, er)
    a.cli_write_ef_csv(result, tables, ef)
    return len(raw), len(cycle), er, ef


def ingest_pass(a, path: Path, out: Path):
    """The calls `movestar convert --unit km/h` makes, in order."""
    raw = a.cycleio_parse_trace(path, "km/h")
    cycle = a.core_from_speeds(a.cycleio_resample(raw))
    a.cycleio_write_cycle_csv(cycle, out)
    return len(raw), len(cycle)


def fleet_pass(a, inp: gen.FleetInput, pass_no: int, calibrate_every: int = 0):
    """A host advancing every vehicle one second per tick through flatapi.

    With `calibrate_every`, the calibration loop (clock.py) runs before
    every that many ticks and once more at the end, outside the ticks'
    intervals. Returns a namespace of tick starts and ends, the opening and
    closing of the fleet as (start, end) pairs, loop times, non-OK statuses,
    calls made, and trips to check as (slot, first tick, end tick, vehicle
    code, finalize tuple).
    """
    create, step, totals = a.flatapi_create, a.flatapi_step, a.flatapi_totals
    finalize, destroy = a.flatapi_finalize, a.flatapi_destroy
    pc = time.perf_counter
    slots = len(inp.veh_codes)
    trip_no = [0] * slots
    first_tick = [0] * slots
    handles = []
    bad = 0
    opened = pc()
    for i in range(slots):
        status, h = create(inp.veh_codes[i][0])
        bad += status != flatapi.OK
        handles.append(h)
    opening = (opened, pc())
    calls = slots
    finished = []
    t_start, t_end, loops = [], [], []
    for t, row in enumerate(inp.speeds):
        if calibrate_every and t % calibrate_every == 0:
            loops.append(clock.loop_s())
        t0 = pc()
        for h, v in zip(handles, row):
            if step(h, v)[0]:
                bad += 1
        for i in inp.ends[t]:
            h = handles[i]
            res = finalize(h)
            bad += (res[0] != flatapi.OK) + (destroy(h) != flatapi.OK)
            if (len(finished) + pass_no) % CHECK_EVERY == 0:
                finished.append((i, first_tick[i], t + 1, inp.veh_codes[i][trip_no[i]], res))
            else:
                finished.append(None)
            trip_no[i] += 1
            first_tick[i] = t + 1
            status, handles[i] = create(inp.veh_codes[i][trip_no[i]])
            bad += status != flatapi.OK
        for h in handles[t % POLL_EVERY::POLL_EVERY]:
            if totals(h)[0]:
                bad += 1
        t_start.append(t0)
        t_end.append(pc())
    ticks = len(inp.speeds)
    closed = pc()
    for i, h in enumerate(handles):
        res = finalize(h)
        bad += (res[0] != flatapi.OK) + (destroy(h) != flatapi.OK)
        finished.append((i, first_tick[i], ticks, inp.veh_codes[i][trip_no[i]], res)
                        if (len(finished) + pass_no) % CHECK_EVERY == 0 else None)
    closing = (closed, pc())
    if calibrate_every:
        loops.append(clock.loop_s())
    churn = sum(len(e) for e in inp.ends)
    calls += slots * ticks + 3 * (churn + slots) + sum(
        len(range(t % POLL_EVERY, slots, POLL_EVERY)) for t in range(ticks))
    return SimpleNamespace(starts=t_start, ends=t_end, opening=opening, closing=closing,
                           loops=loops, bad=bad, calls=calls,
                           trips=[f for f in finished if f is not None])


def session_pass(a, inp: gen.FleetInput, tables) -> None:
    """The fleet loop of `fleet_pass`, stepping sessions directly."""
    create, step, finalize = a.session_create, a.session_step, a.session_finalize
    slots = len(inp.veh_codes)
    trip_no = [0] * slots
    sessions = [create(inp.veh_codes[i][0], tables) for i in range(slots)]
    for t, row in enumerate(inp.speeds):
        for s, v in zip(sessions, row):
            step(s, v)
        for i in inp.ends[t]:
            finalize(sessions[i])
            trip_no[i] += 1
            sessions[i] = create(inp.veh_codes[i][trip_no[i]], tables)
    for s in sessions:
        finalize(s)


def sweep_pass(a, scenarios, tables):
    """Baseline and glide trajectories of every scenario, each through aggregate_cycle.

    Returns (request starts, request ends, outputs); outputs holds one
    (scenario, glide feasible, baseline speeds, glide speeds, baseline
    result, glide result) per scenario for `check_sweep`, a result as
    (distance_m, totals...). These are flat tuples, which the collector
    stops tracking, so holding them adds nothing to later pauses.
    """
    pc = time.perf_counter
    t_start, t_end, outputs = [], [], []
    for sc in scenarios:
        t0 = pc()
        params = tables.params_for(sc.source_type)
        base = a.demo_gen_baseline(sc)
        outcome = a.demo_gen_smoothed(sc)
        r_base = a.core_aggregate_cycle(base, params, tables.rates)
        r_glide = a.core_aggregate_cycle(outcome.cycle, params, tables.rates)
        t1 = pc()
        t_start.append(t0)
        t_end.append(t1)
        outputs.append((sc, outcome.feasible, tuple(base.speeds), tuple(outcome.cycle.speeds),
                        (r_base.distance_m,) + r_base.totals.as_tuple(),
                        (r_glide.distance_m,) + r_glide.totals.as_tuple()))
    return t_start, t_end, outputs


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_sweep(outputs, rtables) -> tuple[int, int, int, int]:
    """(failed scenarios, vehicle-seconds, red arrivals, feasible glides among them).

    A scenario fails unless baseline and glide cover the same distance to
    1e-6 m and both results' distance and totals equal the reference's.
    """
    failed = seconds = red = glides = 0
    for sc, feasible, base, glide, r_base, r_glide in outputs:
        seconds += len(base) + len(glide)
        if sc.arrives_on_red:
            red += 1
            glides += feasible
        ok = abs(r_base[0] - r_glide[0]) < 1e-6
        veh = sc.source_type.code
        for speeds, got in ((base, r_base), (glide, r_glide)):
            ok &= got == ref.totals_tuple(speeds, veh, rtables)
        failed += not ok
    return failed, seconds, red, glides


def check_fleet_trips(inp: gen.FleetInput, trips, tables, rtables) -> int:
    """Mismatching trips: finalize must equal aggregate_cycle and the reference bit for bit."""
    bad = 0
    for slot, lo, hi, veh, res in trips:
        speeds = [inp.speeds[t][slot] for t in range(lo, hi)]
        st = core.SourceType.from_code(veh)
        batch = core.aggregate_cycle(core.DriveCycle.from_speeds(speeds),
                                     tables.params_for(st), tables.rates)
        ef = batch.ef.as_tuple() if batch.ef is not None else (0.0,) * 5
        want = (flatapi.OK, batch.distance_m, int(batch.ef is not None)) \
            + batch.totals.as_tuple() + ef
        bad += res != want or (res[1],) + res[3:8] != ref.totals_tuple(speeds, veh, rtables)
    return bad


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def freeze_setup() -> None:
    """Hide everything built so far (inputs, tables, modules) from the collector.

    Collector pauses in the passes then traverse what the program allocates,
    not the benchmark's own inputs: the fleet's 1500 input rows alone made
    a fleet pass about a tenth slower.
    """
    gc.collect()
    gc.freeze()


def load_tables():
    """The packaged tables, through the package and through the reference."""
    return tables_mod.load_default_tables(), ref.Tables(tables_mod.default_tables_dir())


def timed_fleet(seed, seconds, size):
    inp = gen.make_fleet(seed, size["fleet_vehicles"], size["fleet_ticks"], size["fleet_trip_s"])
    tables, rtables = load_tables()
    a = api(None)
    status, h = flatapi.create(1)          # loads the shared default tables
    flatapi.destroy(h)
    # Peak RSS before any vehicle steps: what the passes add on top of it
    # is mostly the live sessions' per-step records.
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    freeze_setup()
    walls, raw, ticks = [], [], []
    attempted = failed = 0
    for n in clock.budget(seconds, 2):
        p = fleet_pass(a, inp, n, FLEET_CALIBRATE_EVERY)
        # Ticks of block b are scaled by the loops before and after block b;
        # opening and closing the fleet by those of the first and last block.
        f = [clock.factor(x, y) for x, y in zip(p.loops, p.loops[1:])]
        lat = [e - s for s, e in zip(p.starts, p.ends)]
        scaled = [x * f[t // FLEET_CALIBRATE_EVERY] for t, x in enumerate(lat)]
        edges = (p.opening[1] - p.opening[0], p.closing[1] - p.closing[0])
        raw.append(sum(lat) + sum(edges))
        walls.append(sum(scaled) + edges[0] * f[0] + edges[1] * f[-1])
        ticks += scaled
        attempted += p.calls + len(p.trips)
        failed += p.bad + check_fleet_trips(inp, p.trips, tables, rtables)
    vs = len(inp.veh_codes) * len(inp.speeds)
    churn = sum(len(e) for e in inp.ends) / len(inp.speeds)
    return dict(walls=walls, raw_walls=raw, ticks=ticks, attempted=attempted, failed=failed,
                work=vs, rows=vs,
                rss_before_kb=rss_before_kb,
                info={"vehicles": len(inp.veh_codes), "ticks": len(inp.speeds),
                      "trips": inp.trips, "churn_per_tick": churn,
                      "totals_polled_per_tick": len(inp.veh_codes) / POLL_EVERY,
                      "peak_live_steps": inp.peak_live_steps()})


def timed_sweep(seed, seconds, size):
    specs = gen.make_scenarios(seed, size["sweep_scenarios"])
    scenarios = [_scenario(s) for s in specs]
    tables, rtables = load_tables()
    a = api(None)
    sweep_pass(a, scenarios[:20], tables)     # warm-up
    freeze_setup()
    walls, raw, ticks = [], [], []
    attempted = failed = 0
    for n in clock.budget(seconds, 2):
        raw.append(0.0)
        walls.append(0.0)
        vs = red = glides = 0
        # Calibrate per block: a whole pass is long enough for the machine's
        # speed to change inside it.
        for lo in range(0, len(scenarios), SWEEP_BLOCK):
            block = scenarios[lo:lo + SWEEP_BLOCK]
            (starts, ends, outputs), _, f = clock.timed(sweep_pass, a, block, tables)
            latencies = [e - s for s, e in zip(starts, ends)]
            raw[-1] += sum(latencies)
            walls[-1] += sum(latencies) * f
            ticks += [x * f for x in latencies]
            bad, b_vs, b_red, b_glides = check_sweep(outputs, rtables)
            vs, red, glides = vs + b_vs, red + b_red, glides + b_glides
            attempted += len(block)
            failed += bad
    return dict(walls=walls, raw_walls=raw, ticks=ticks, attempted=attempted, failed=failed,
                work=vs, rows=len(scenarios),
                info={"scenarios": len(scenarios), "vehicle_seconds": vs,
                      "red_arrival_share": red / len(scenarios),
                      "feasible_glides": glides, "red_arrivals": red})


def traced(workload, seed, seconds, size, work):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones.

    A pass is what the untraced run times as `wall_s`; its checks (and, for
    fleet_stream, the same fleet stepped through sessions directly) run
    after it, outside the pass span.
    """
    tables, rtables = load_tables()
    setup = Tracer()
    load = setup.wrap("tables.load", tables_mod.load_tables_from_dir)
    for _ in range(5):
        load(tables_mod.default_tables_dir())
    metrics = {"tables.load.ms": float(np.median(setup.analyse(()).durations("tables.load"))) * 1e3}
    plain = api(None)
    one, request, info = _traced_pass(workload, seed, size, work, tables, rtables, plain)

    attempted = failed = 0
    untraced, traced_walls, per_pass = [], [], []
    for n in clock.budget(seconds, 1):
        for tracer in (None, Tracer()):
            a = api(tracer)
            before = clock.loop_s()
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                res = one(a, n)
                t1 = time.perf_counter()
            f = clock.factor(before, clock.loop_s())
            (traced_walls if tracer else untraced).append((t1 - t0) * f)
            with tracer or contextlib.nullcontext():
                ops, bad = res["after"](a)
            attempted += ops
            failed += bad
        tracer.add("bench.pass", t0, t1)
        for s, e in zip(res.get("starts", ()), res.get("ends", ())):
            tracer.add(request, s, e)
        spans = tracer.analyse((request,))
        per_pass.append(layer_metrics(workload, spans, request, res))

    for key in per_pass[0]:
        metrics[key] = float(median(p[key] for p in per_pass))
    if workload == "fleet_stream":
        metrics["session.retained_bytes_per_step"] = retained_bytes_per_step(info["input"], tables)
    metrics.update(info.get("metrics", {}))
    facts = dict(traced_passes=len(per_pass))
    if workload == "fleet_stream":
        # Records the live sessions hold at the fleet's fullest tick.
        facts["retained_records_mb_at_peak"] = (info["input"].peak_live_steps()
                                                * metrics["session.retained_bytes_per_step"]
                                                / 2**20)
    # Pass times scaled like wall_s (clock.py), so that the overhead compares
    # like with like; span times are raw.
    metrics["trace.untraced_wall_s"] = float(median(untraced))
    metrics["trace.inproc_wall_s"] = float(median(traced_walls))
    metrics["trace.overhead_s"] = metrics["trace.inproc_wall_s"] - metrics["trace.untraced_wall_s"]
    spans_path = work / f"spans-{workload}.csv"
    spans.write_csv(spans_path)
    return dict(metrics=metrics, attempted=attempted, failed=failed,
                info=dict(spans=len(spans.dur), **facts),
                spans_file=str(spans_path))


def _traced_pass(workload, seed, size, work, tables, rtables, plain):
    """(pass function, name of its request spans, input facts).

    The in-process workloads hide their set-up from the collector as their
    timed runs do; the CLI workloads leave it visible, as the CLI does.
    The pass function takes the entry-point namespace and the pass number
    and returns a dict whose "after" entry runs the checks and returns
    (operations attempted, operations failed).
    """
    if workload == "trip_1hz":
        trip = gen.make_trip(seed, size["trip_seconds"], work / "trip.csv")
        er_body, ef_body = ref.er_body(trip.speeds, 1, rtables), ref.ef_body(trip.speeds, 1, rtables)
        windows = ref.window_stats(range(len(trip.speeds)))

        def one(a, n):
            rows, secs, er, ef = trip_pass(a, trip.path, work / "out")

            def after(a):
                return 1, int(not ref.check_trip_files(er, ef, er_body, ef_body))
            return dict(after=after, rows=rows, secs=secs, er_bytes=er.stat().st_size)
        return one, "bench.pass", {"metrics": _window_metrics(windows)}

    if workload == "ingest_10hz":
        ing = gen.make_ingest(seed, size["ingest_seconds"], work / "trace.csv")
        want = ref.cycle_csv(ref.resample_1hz(ing.times, ing.speeds_kmh))
        windows = ref.window_stats(ing.times)

        def one(a, n):
            rows, secs = ingest_pass(a, ing.path, work / "out.csv")

            def after(a):
                return 1, int(not ref.check_convert_file(work / "out.csv", want, windows[0]))
            return dict(after=after, rows=rows, secs=secs)
        return one, "bench.pass", {"metrics": _window_metrics(windows)}

    if workload == "fleet_stream":
        inp = gen.make_fleet(seed, size["fleet_vehicles"], size["fleet_ticks"], size["fleet_trip_s"])
        status, h = flatapi.create(1)          # loads the shared default tables
        flatapi.destroy(h)
        freeze_setup()                         # as the timed run does

        def one(a, n):
            p = fleet_pass(a, inp, n)

            def after(a):
                session_pass(a, inp, tables)
                return p.calls + len(p.trips), p.bad + check_fleet_trips(inp, p.trips, tables,
                                                                         rtables)
            return dict(after=after, starts=p.starts, ends=p.ends, errors=p.bad)
        return one, "bench.tick", {"input": inp}

    if workload == "signal_sweep":
        scenarios = [_scenario(s) for s in gen.make_scenarios(seed, size["sweep_scenarios"])]
        sweep_pass(plain, scenarios[:20], tables)
        freeze_setup()                         # as the timed run does

        def one(a, n):
            starts, ends, outputs = sweep_pass(a, scenarios, tables)
            res = dict(starts=starts, ends=ends)

            def after(a):
                bad, res["vs"], res["red"], res["glides"] = check_sweep(outputs, rtables)
                return len(scenarios), bad
            res["after"] = after
            return res
        return one, "bench.scenario", {}

    raise SystemExit(f"unknown workload {workload!r}")


def _window_metrics(windows) -> dict[str, float]:
    return {"cycleio.resample.windows": float(windows[0]),
            "cycleio.resample.interpolated_windows": float(windows[1]),
            "cycleio.resample.max_gap_s": float(windows[2])}


def layer_metrics(workload, spans, request, res) -> dict[str, float]:
    m: dict[str, float] = {}
    layers = spans.self_by_layer()
    for layer in ("cycleio", "core", "tables", "cli", "session", "flatapi", "demo", "bench"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    # Only the pauses inside the timed pass, not those of the checks after it.
    pauses = spans.durations_in("py.gc", "bench.pass")
    m["py.gc.pause_s"] = float(pauses.sum())
    m["py.gc.collections"] = float(len(pauses))
    # Share of the timed requests spent in package layers and collector
    # pauses rather than in the benchmark's own loop.
    req = spans.name == spans.names.index(request)
    m["trace.accounted_share"] = 1.0 - float(spans.self_time[req].sum() / spans.dur[req].sum())
    for name in ("cycleio.parse_trace", "cycleio.resample", "cycleio.write_cycle_csv",
                 "core.from_speeds", "core.aggregate_cycle", "cli.write_er_csv",
                 "cli.write_ef_csv", "demo.gen_baseline", "demo.gen_smoothed"):
        m[f"{name}.s"] = spans.total(name)
    m["core.aggregate_cycle.calls"] = float(spans.count("core.aggregate_cycle"))
    if workload in ("trip_1hz", "ingest_10hz"):
        rows, secs = res["rows"], res["secs"]
        m["cycleio.parse_trace.rows"] = float(rows)
        m["cycleio.parse_trace.us_per_row"] = m["cycleio.parse_trace.s"] / rows * 1e6
        m["cycleio.resample.us_per_row"] = m["cycleio.resample.s"] / rows * 1e6
        m["core.from_speeds.us_per_s"] = m["core.from_speeds.s"] / secs * 1e6
    if workload == "trip_1hz":
        m["core.aggregate_cycle.us_per_vehicle_s"] = m["core.aggregate_cycle.s"] / res["secs"] * 1e6
        m["cli.write_er_csv.bytes"] = float(res["er_bytes"])
        m["cli.write_er_csv.s_per_100k_rows"] = m["cli.write_er_csv.s"] / res["secs"] * 1e5
    if workload == "signal_sweep":
        m["core.aggregate_cycle.us_per_vehicle_s"] = m["core.aggregate_cycle.s"] / res["vs"] * 1e6
        m["demo.glide_feasible_ratio"] = res["glides"] / max(1, res["red"])
    if workload == "fleet_stream":
        for name in ("flatapi.step", "session.step"):
            d = spans.durations(name)
            m[f"{name}.us_p50"] = pct(d, 50) * 1e6
            m[f"{name}.us_p99"] = pct(d, 99) * 1e6
        m["flatapi.dispatch_us"] = m["flatapi.step.us_p50"] - m["session.step.us_p50"]
        for name in ("create", "finalize", "destroy", "totals"):
            m[f"flatapi.{name}.us"] = pct(spans.durations(f"flatapi.{name}"), 50) * 1e6
        m["flatapi.errors"] = float(res["errors"])
    return m


def retained_bytes_per_step(inp: gen.FleetInput, tables) -> float:
    """Bytes still allocated per session step after the steps, by tracemalloc."""
    steps = min(RETAINED_STEPS, len(inp.speeds))
    vehicles = min(RETAINED_VEHICLES, len(inp.veh_codes))
    speeds = [[inp.speeds[t][i] for t in range(steps)] for i in range(vehicles)]
    sessions = [session.session_create(1, tables) for _ in range(vehicles)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s, vs in zip(sessions, speeds):
            for v in vs:
                session.session_step(s, v)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / (vehicles * steps)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=sorted(gen.SIZES), default="full")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    size = gen.SIZES[args.size]
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds, size, args.work)
    elif args.workload == "fleet_stream":
        result = timed_fleet(args.seed, args.seconds, size)
    elif args.workload == "signal_sweep":
        result = timed_sweep(args.seed, args.seconds, size)
    else:
        print(f"worker: {args.workload} runs through the CLI, not in-process", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
