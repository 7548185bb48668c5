"""End-to-end oracle: trace text through the three reference stages
(`reference_trace` -> `reference_resample` -> `reference_pipeline`) against
the bytes the CLI's `convert` and `run` write for the same file.

Each trace is drawn once and written either as plain ASCII, which numpy
reads by path, or with a `# µ` comment or a ` \\t` line, which send the same
values through the package's line reader.
"""

import contextlib
import csv
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from movestar import cycleio
from movestar.cli import main
from movestar.cycleio import MAX_GAP_S, SUPPORTED_UNITS
from movestar.errors import GapTooLarge
from movestar.model import SourceType

from reference_pipeline import run_reference
from reference_resample import reference_resample
from reference_trace import reference_parse_trace

# Lines that carry no data and keep a file from numpy's path reader: a
# non-ASCII comment and a whitespace-only line.
LINE_READ = {"path": None, "utf8": "# \xb5", "blank": " \t"}


@st.composite
def trace_files(draw):
    """(text, unit, route) of a sub-second trace with jitter and dropouts up
    to and past MAX_GAP_S, in `unit`, with `route`'s extra line, if any,
    after a drawn number of data rows (at least one)."""
    unit = draw(st.sampled_from(SUPPORTED_UNITS))
    period = draw(st.floats(0.05, 0.95))
    nominal = draw(st.floats(-100.0, 100.0))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        if rows and draw(st.integers(0, 5)) == 0:
            nominal += draw(st.floats(1.0, MAX_GAP_S + 3.0))
        t = nominal + draw(st.floats(-0.45, 0.45)) * period
        rows.append(f"{t!r},{draw(st.floats(0.0, 90.0))!r}")
        nominal += period
    route = draw(st.sampled_from(sorted(LINE_READ)))
    if LINE_READ[route] is not None:
        rows.insert(draw(st.integers(1, len(rows))), LINE_READ[route])
    if draw(st.booleans()):
        rows.insert(0, "t,v")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(row + ending for row in rows), unit, route


def species_columns(rates_path):
    """The species names of the rate table's header row, in its order."""
    with open(rates_path, newline="", encoding="utf-8") as fh:
        header = next(row for row in csv.reader(fh) if row and row[0] == "source_type")
    return header[2:7]


def fmt(x):
    return f"{x:.9f}"


def cli(argv):
    """The exit status and stderr text of `movestar ARGV`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


class TestCliMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(trace=trace_files(), veh=st.sampled_from(list(SourceType)))
    # three samples in one window: a sum times 1/3 rounds differently
    @example(trace=("0.0,0.1\n0.3,0.2\n# \xb5\n0.6,0.4\n1.0,1.0\n", "m/s", "utf8"),
             veh=SourceType.LDV)
    @example(trace=("t,v\r\n0.0,0.1\r\n0.3,0.2\r\n \t\r\n0.6,0.4\r\n1.0,1.0\r\n", "m/s",
                    "blank"), veh=SourceType.LDT)
    # a gap of exactly MAX_GAP_S empty windows, and one more
    @example(trace=(f"0.3,1.0\n{MAX_GAP_S + 1.2!r},7.0\n", "mph", "path"), veh=SourceType.LDV)
    @example(trace=(f"0.3,1.0\n \t\n{MAX_GAP_S + 2.2!r},7.0\n", "km/h", "blank"),
             veh=SourceType.LDT)
    def test_convert_and_run_bytes(self, tmp_path_factory, trace, veh, params_path,
                                   rates_path):
        text, unit, route = trace
        base = tmp_path_factory.getbasetemp()
        path = base / "e2e.csv"
        path.write_text(text, encoding="utf-8", newline="")
        data = path.read_bytes()
        assert (cycleio._skiprows(path, data) is None) == (route != "path")

        times, speeds = reference_parse_trace(path, unit)
        convert = ["convert", "--in", str(path), "--out", str(base / "e2e.1hz.csv"),
                   "--unit", unit]
        run = ["run", "--cycle", str(path), "--unit", unit, "--veh", str(veh.code),
               "--out", str(base / "e2e")]
        try:
            means = reference_resample(times, speeds, unit)
        except GapTooLarge as gap:
            assert cli(convert) == (1, f"error: trace: {gap}\n")
            assert cli(run) == (1, f"error: cycle: {gap}\n")
            return

        assert cli(convert) == (0, "")
        want = ["# unit: v=m/s", "t,v"] + [f"{t},{v!r}" for t, v in enumerate(means)]
        assert (base / "e2e.1hz.csv").read_bytes() == ("\n".join(want) + "\n").encode()

        assert cli(run) == (0, "")
        ref = run_reference(means, veh.value, params_path, rates_path)
        body = ["t,opmode," + ",".join(species_columns(rates_path))]
        body += [f"{t},{mode}," + ",".join(map(fmt, grams))
                 for t, (mode, grams) in enumerate(zip(ref["modes"], ref["per_second"]))]
        body.append("TOTAL,," + ",".join(map(fmt, ref["totals"])))
        er = (base / "e2e_ER.csv").read_text(encoding="utf-8").splitlines()
        assert er[-len(body):] == body
        assert all(line.startswith("#") for line in er[:-len(body)])

        ef = (base / "e2e_EF.csv").read_text(encoding="utf-8").splitlines()
        values = [line.split(",")[1] for line in ef[ef.index("species,value,unit_per_km") + 1:]]
        want_ef = ["undefined"] * 5 if ref["ef"] is None else list(map(fmt, ref["ef"]))
        assert values == want_ef + [fmt(ref["distance_m"] / 1000.0)]
