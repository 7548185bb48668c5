"""Seeded, layered benchmark for movestar.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The package is used from `src/` through
`PYTHONPATH`, not from an installed copy. Every program run is a child
process: the CLI for the batch workloads (trip_1hz, ingest_10hz), run as
`python -m movestar.cli` runs it, and `bench/worker.py` for the in-process
ones (fleet_stream, signal_sweep) and for every traced run. Children run
one at a time; each is reaped with `os.wait4`, whose rusage gives that
child's own peak RSS.

Times are scaled to a reference machine speed by a calibration loop run
next to the work in the same process (see clock.py); the summary lines
print the raw medians too.

With `--trace 0` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with `--trace 1` it holds every
per-layer metric (0 for layers the workload never calls), and the lines
before it compare the measured layer costs with the ROADMAP baseline table.
Inputs are made from `--seed` by `gen.py`, and every output is checked
against `reference.py`; a wrong output counts as a failed operation.

Spans of a workload's last traced pass are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import NamedTuple

import numpy as np

import clock
import gen
import reference as ref

WORKLOADS = ("trip_1hz", "ingest_10hz", "fleet_stream", "signal_sweep")
SETUP_REPEATS = 7
RUN_DEADLINE_S = 170.0   # every child is killed if the run would pass this

# Child programs run their work between two calibration loops (clock.py) and
# write the loop times to a file: argv is [bench dir, loop file, args...].
_BRACKET = """\
import sys
sys.path.insert(0, sys.argv.pop(1))
import clock
del sys.path[0]
loops = sys.argv.pop(1)
before = clock.loop_s()
code = 0
try:
{body}
except SystemExit as exc:
    code = exc.code
after = clock.loop_s()
with open(loops, "w") as fh:
    fh.write(f"{{before!r}} {{after!r}}")
sys.exit(code)
"""
# Fresh interpreter: import the package and load the default tables.
SETUP_CODE = _BRACKET.format(body="    import movestar\n    movestar.load_default_tables()")
# The CLI, run as `python -m movestar.cli` runs it.
CLI_CODE = _BRACKET.format(body="    import runpy\n    runpy.run_module("
                                "'movestar.cli', run_name='__main__', alter_sys=True)")

ROADMAP_BASELINE = [
    # (ROADMAP row, per-layer metric, ROADMAP figure, unit)
    ("parse_trace", "cycleio.parse_trace.us_per_row", 2.4, "us/row"),
    ("resample_speeds_to_1hz", "cycleio.resample.us_per_row", 0.3, "us/row"),
    ("DriveCycle.from_speeds", "core.from_speeds.us_per_s", 2.5, "us/s"),
    ("aggregate_cycle", "core.aggregate_cycle.us_per_vehicle_s", 10.0, "us/s"),
    ("write_er_csv", "cli.write_er_csv.s_per_100k_rows", 0.30, "s/100k rows"),
    ("EmissionSession.step", "session.step.us_p50", 13.0, "us"),
    ("flatapi.step", "flatapi.step.us_p50", 13.0, "us"),
    ("session retained memory", "session.retained_bytes_per_step", 370.0, "B/step"),
    ("table load", "tables.load.ms", 0.9, "ms"),
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Child(NamedTuple):
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stderr: str


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired()


class Context:
    def __init__(self, root: Path, work: Path, seed: int, seconds: float, size: str):
        self.root, self.work, self.seed, self.seconds = root, work, seed, seconds
        self.size_name, self.size = size, gen.SIZES[size]
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "MOVESTAR_TABLES")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.tables = ref.Tables(root / "src" / "movestar" / "data")

    def child(self, argv: list[str]) -> Child:
        """Run one child to completion; wall time and peak RSS are its own."""
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            previous = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                if isinstance(exc, _Expired):
                    raise BenchError(f"child {argv[:3]} did not finish in time") from None
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, usage.ru_maxrss, err_path.read_text(errors="replace"))

    def bracketed(self, code: str, args: list[str]) -> tuple[Child, float, float]:
        """Run `code` in a child: (child, wall time less the loops, scale factor).

        A child that dies before writing its loop times gets factor 1.
        """
        loops = self.work / "loops.txt"
        loops.unlink(missing_ok=True)
        c = self.child(["-c", code, str(self.root / "bench"), str(loops)] + args)
        try:
            before, after = map(float, loops.read_text().split())
        except (OSError, ValueError):
            return c, c.wall_s, 1.0
        return c, c.wall_s - before - after, clock.factor(before, after)

    def worker(self, workload: str, trace: int) -> tuple[dict, Child]:
        out = self.work / "worker.json"
        out.unlink(missing_ok=True)
        c = self.child([str(self.root / "bench" / "worker.py"), workload,
                        "--seed", str(self.seed), "--seconds", str(self.seconds),
                        "--trace", str(trace), "--size", self.size_name,
                        "--work", str(self.work), "--out", str(out)])
        if c.exit_code != 0 or not out.exists():
            raise BenchError(f"worker {workload} exited {c.exit_code}: {c.stderr.strip()[-2000:]}")
        return json.loads(out.read_text()), c


def setup_seconds(ctx: Context) -> tuple[list[float], list[float]]:
    """(scaled, raw) wall times of fresh interpreters importing movestar and
    loading the default tables."""
    ctx.bracketed(SETUP_CODE, [])       # the first start compiles the bytecode
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        c, wall, f = ctx.bracketed(SETUP_CODE, [])
        if c.exit_code != 0:
            raise BenchError(f"setup failed: {c.stderr.strip()[-2000:]}")
        scaled.append(wall * f)
        raw.append(wall)
    return scaled, raw


def end_to_end(r: dict, work: float, rows: float, setup) -> dict:
    """End-to-end metrics from scaled pass times, request latencies and set-up times."""
    wall = median(r["walls"])
    r["info"].update(raw_wall_s=median(r["raw_walls"]), raw_setup_s=median(setup[1]),
                     passes=len(r["walls"]), requests_timed=len(r["ticks"]))
    return {"setup_s": median(setup[0]), "wall_s": wall,
            "vehicle_s_per_s": work / wall, "raw_rows_per_s": rows / wall,
            "tick_p50_ms": float(np.percentile(r["ticks"], 50)) * 1e3,
            "tick_p99_ms": float(np.percentile(r["ticks"], 99)) * 1e3,
            "peak_rss_mb": median(r["rss"]) / 1024.0}


def cli_workload(ctx: Context, argv: list[str], outputs: list[Path], check) -> dict:
    """Invoke the CLI over and over for the run's seconds; check every invocation.

    An invocation is the workload's request, so its times are also the ticks.
    """
    walls, raw, rss = [], [], []
    failed = 0
    for _ in clock.budget(ctx.seconds, 2):
        for path in outputs:
            path.unlink(missing_ok=True)
        c, wall, f = ctx.bracketed(CLI_CODE, argv)
        walls.append(wall * f)
        raw.append(wall)
        rss.append(c.maxrss_kb)
        failed += c.exit_code != 0 or not check()
    return dict(walls=walls, raw_walls=raw, ticks=walls, rss=rss, attempted=len(walls),
                failed=failed)


def run_trip(ctx: Context) -> dict:
    trip = gen.make_trip(ctx.seed, ctx.size["trip_seconds"], ctx.work / "trip.csv")
    er_body = ref.er_body(trip.speeds, 1, ctx.tables)
    ef_body = ref.ef_body(trip.speeds, 1, ctx.tables)
    er, ef = ctx.work / "out_ER.csv", ctx.work / "out_EF.csv"

    def check():
        return ref.check_trip_files(er, ef, er_body, ef_body)
    setup = setup_seconds(ctx)
    r = cli_workload(ctx, ["run", "--cycle", str(trip.path), "--unit", "m/s", "--veh", "1",
                           "--out", str(ctx.work / "out")], [er, ef], check)
    n = len(trip.speeds)
    r["info"] = {"rows": n, "trip_seconds": n, "tick": "one `movestar run` invocation"}
    r["metrics"] = end_to_end(r, n, n, setup)
    return r


def run_ingest(ctx: Context) -> dict:
    ing = gen.make_ingest(ctx.seed, ctx.size["ingest_seconds"], ctx.work / "trace.csv")
    want = ref.cycle_csv(ref.resample_1hz(ing.times, ing.speeds_kmh))
    windows, empty, longest = ref.window_stats(ing.times)
    out = ctx.work / "out.csv"

    def check():
        return ref.check_convert_file(out, want, windows)
    setup = setup_seconds(ctx)
    r = cli_workload(ctx, ["convert", "--in", str(ing.path), "--out", str(out),
                           "--unit", "km/h"], [out], check)
    r["info"] = {"rows": len(ing.times), "trace_seconds": ctx.size["ingest_seconds"],
                 "dropouts": ing.dropouts, "windows": windows, "interpolated_windows": empty,
                 "max_gap_s": longest, "tick": "one `movestar convert` invocation"}
    r["metrics"] = end_to_end(r, windows, len(ing.times), setup)
    return r


def run_in_process(ctx: Context, workload: str) -> dict:
    setup = setup_seconds(ctx)
    res, c = ctx.worker(workload, 0)
    res["rss"] = [c.maxrss_kb]
    if workload == "fleet_stream":
        # Share of peak RSS the passes add on top of the process before them:
        # mostly the live sessions' per-step records.
        res["info"]["pass_share_of_peak_rss"] = 1.0 - res.pop("rss_before_kb") / c.maxrss_kb
    res["info"]["tick"] = ("one fleet tick (every vehicle stepped one second)"
                           if workload == "fleet_stream" else "one scenario")
    res["metrics"] = end_to_end(res, res["work"], res["rows"], setup)
    return res


def run_workload(ctx: Context, workload: str, trace: int) -> dict:
    if trace:
        res, _ = ctx.worker(workload, 1)
        res["info"]["spans_file"] = str(save_spans(ctx, Path(res.pop("spans_file")), workload))
        return res
    if workload == "trip_1hz":
        return run_trip(ctx)
    if workload == "ingest_10hz":
        return run_ingest(ctx)
    return run_in_process(ctx, workload)


def save_spans(ctx: Context, path: Path, workload: str) -> Path:
    dest = ctx.root / ".bench_out" / f"spans-{workload}.csv"
    dest.parent.mkdir(exist_ok=True)
    shutil.move(str(path), dest)
    return dest.relative_to(ctx.root)


def roadmap_table(workload: str, metrics: dict) -> list[str]:
    lines = [f"# {workload}: ROADMAP baseline table, measured in the traced run",
             f"# {'layer':<26}{'measured':>12}{'ROADMAP':>10}  {'unit':<12}ratio"]
    for label, key, figure, unit in ROADMAP_BASELINE:
        value = metrics.get(key, 0.0)
        if not value:
            continue
        ratio = value / figure
        note = "  disagrees" if not 0.67 <= ratio <= 1.5 else ""
        lines.append(f"# {label:<26}{value:>12.4g}{figure:>10.4g}  {unit:<12}{ratio:.2f}{note}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                   help="input size; 'tiny' is for the benchmark's self-tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "movestar" / "__init__.py").is_file():
        print("bench: run from the repository root; src/movestar is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            ctx = Context(root, work, args.seed, args.seconds, args.size)
            results[name] = run_workload(ctx, name, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    out_metrics = {}
    for name, r in results.items():
        print(f"# {name} seed={args.seed} trace={args.trace}: "
              + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in r["info"].items()))
        print(f"# {name} failed_ops_ratio {r['failed'] / r['attempted']:.6g} "
              f"({r['failed']} of {r['attempted']} operations)")
        for m in wanted:
            value = float(r["metrics"].get(m["name"], 0.0))
            print(f"# {name} {m['name']} {value:.6g} {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            out_metrics[key] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print("\n".join(roadmap_table(name, r["metrics"])))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
