"""Byte gate: the CLI's outputs on the traces in `golden/` match the files
stored next to them, byte for byte.

The expected files are fixed data, not regenerated here; `golden/README.md`
says what each trace covers and how its outputs were made. Three twins of each
trace, which numpy cannot read by path, must give the same bytes through the
line reader.
"""

import codecs
from pathlib import Path

import pytest

from movestar import cycleio
from movestar.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Trace name -> (unit flag, vehicle code).
CASES = {
    "ldv_modes": ("m/s", 1),
    "ldt_modes": ("m/s", 2),
    "sub_ms": ("m/s", 1),
    "sub_mph": ("mph", 2),
    "sub_kmh": ("km/h", 1),
}
OUTPUTS = ("_ER.csv", "_EF.csv", ".factors.txt", ".convert.csv")
# Twins of a trace's lines that keep it from numpy's path reader: a non-ASCII
# comment first, a whitespace-only line mid-file, or a UTF-8 byte-order mark.
TWINS = {
    "utf8": lambda lines: [b"# \xc2\xb5\n"] + lines,
    "bom": lambda lines: [codecs.BOM_UTF8] + lines,
    "blank": lambda lines: lines[:len(lines) // 2] + [b" \t\n"] + lines[len(lines) // 2:],
}


def produce(trace: Path, output: str, out_dir: Path, capsys) -> bytes:
    """The bytes the CLI writes for one output of a golden trace or its twin."""
    name = trace.stem
    unit, veh = CASES[name]
    trace = str(trace)
    target = out_dir / f"{name}{output}"
    if output in ("_ER.csv", "_EF.csv"):
        status = main(["run", "--cycle", trace, "--unit", unit, "--veh", str(veh),
                       "--out", str(out_dir / name)])
    elif output == ".convert.csv":
        status = main(["convert", "--in", trace, "--out", str(target), "--unit", unit])
    else:
        capsys.readouterr()
        status = main(["factors", "--cycle", trace, "--unit", unit, "--veh", str(veh)])
        target.write_text(capsys.readouterr().out, encoding="utf-8")
    assert status == 0
    return target.read_bytes()


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_bytes(name, output, tmp_path, capsys):
    assert (produce(GOLDEN / f"{name}.csv", output, tmp_path, capsys)
            == (GOLDEN / f"{name}{output}").read_bytes())


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("twin", sorted(TWINS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_line_read_twin_output_bytes(name, twin, output, tmp_path, capsys):
    lines = (GOLDEN / f"{name}.csv").read_bytes().splitlines(keepends=True)
    trace = tmp_path / f"{name}.csv"
    trace.write_bytes(b"".join(TWINS[twin](lines)))
    assert cycleio._skiprows(trace, trace.read_bytes()) is None
    assert produce(trace, output, tmp_path, capsys) == (GOLDEN / f"{name}{output}").read_bytes()
