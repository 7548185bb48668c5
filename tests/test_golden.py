"""Byte gate: the CLI's outputs on the traces in `golden/` match the files
stored next to them, byte for byte.

The expected files are fixed data, not regenerated here; `golden/README.md`
says what each trace covers and how its outputs were made.
"""

from pathlib import Path

import pytest

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


def produce(name: str, output: str, out_dir: Path, capsys) -> bytes:
    """The bytes the CLI writes for one output of one golden trace."""
    unit, veh = CASES[name]
    trace = str(GOLDEN / f"{name}.csv")
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
    assert produce(name, output, tmp_path, capsys) == (GOLDEN / f"{name}{output}").read_bytes()
