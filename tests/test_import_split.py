"""The streaming path never loads numpy; the kernel's names load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import movestar
from movestar import core
from movestar.core import DriveCycle, SourceType

SRC = Path(movestar.__file__).resolve().parent.parent

STREAMING = """\
import sys
import movestar
from movestar import flatapi

tables = movestar.load_default_tables()
status, handle = flatapi.create(1)
assert status == flatapi.OK
assert flatapi.step(handle, 5.0)[:2] == (0, 12)
assert flatapi.step(handle, None)[0] == flatapi.ERR_INPUT
assert flatapi.totals(handle)[:2] == (0, 5.0)
assert flatapi.finalize(handle)[:3] == (0, 5.0, 1)
assert flatapi.destroy(handle) == flatapi.OK
assert flatapi.stats() == (0, 1, 1, 0, 0)
session = movestar.EmissionSession(tables.params_for(movestar.SourceType.LDT), tables.rates)
for v in (0.0, 3.0, 7.5, 7.0):
    session.step(v)
assert session.running_totals.energy > 0.0
"""


def run_child(code: str, *flags: str) -> str:
    # The caller's environment, so that PYTHONDONTWRITEBYTECODE still holds,
    # without a table directory that would override the packaged one.
    env = {k: v for k, v in os.environ.items() if k != "MOVESTAR_TABLES"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_streaming_lifecycle_never_loads_numpy():
    out = run_child(STREAMING + "import json\nprint(json.dumps(sorted(m for m in sys.modules"
                                " if m.startswith(('numpy', 'movestar.')))))\n")
    assert json.loads(out) == ["movestar.errors", "movestar.flatapi", "movestar.model",
                               "movestar.session", "movestar.tables"]


def test_kernel_names_resolve_on_first_use():
    out = run_child(STREAMING + """\
assert "aggregate_cycle" in dir(movestar) and "numpy" not in sys.modules
aggregate_cycle = movestar.aggregate_cycle
import movestar.core
assert aggregate_cycle is movestar.core.aggregate_cycle and "numpy" in sys.modules
import json
print(json.dumps(sorted(m for m in sys.modules if m.startswith("movestar."))))
""")
    assert json.loads(out) == ["movestar.core", "movestar.errors", "movestar.flatapi",
                               "movestar.model", "movestar.session", "movestar.tables"]


def test_lazy_kernel_matches_the_core_kernel(tables):
    cycle = DriveCycle([0.0, 3.0, 7.5, 7.0, 4.0, 0.0])
    params = tables.params_for(SourceType.LDV)
    got = movestar.aggregate_cycle(cycle, params, tables.rates)
    want = core.aggregate_cycle(cycle, params, tables.rates)
    assert got.modes.tolist() == want.modes.tolist()
    assert got.grams.tolist() == want.grams.tolist()
    assert (got.totals, got.distance_m, got.ef) == (want.totals, want.distance_m, want.ef)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'KinematicSample'"):
        movestar.KinematicSample


# Children that record `sys.modules` before importing the package, then print
# the names they added as JSON.
RECORDED = """\
import sys
before = set(sys.modules)
{body}
import json
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def added_modules(body: str, *flags: str) -> list[str]:
    return json.loads(run_child(RECORDED.format(body=body), *flags))


def test_package_import_and_table_load_load_only_the_model():
    added = added_modules("import movestar\nmovestar.load_default_tables()")
    assert [m for m in added if m.startswith("movestar.")] == [
        "movestar.errors", "movestar.model", "movestar.tables"]


def test_streaming_lifecycle_loads_no_dataclasses_inspect_or_numpy():
    added = added_modules(STREAMING)
    assert "movestar.session" in added and "movestar.flatapi" in added
    assert [m for m in added if m in ("dataclasses", "inspect")
            or m.split(".")[0] == "numpy"] == []


def test_streaming_lifecycle_loads_no_resource_machinery_without_site():
    # `python -S`: no `.pth` file has loaded `importlib.resources` already.
    added = added_modules(STREAMING, "-S")
    assert "movestar.flatapi" in added
    assert [m for m in added if m in ("importlib.resources", "zipfile", "tempfile")] == []


@pytest.mark.parametrize("name", ["EmissionSession", "session_create", "session_finalize",
                                  "session_step"])
def test_session_names_resolve_to_the_session_module(name):
    from movestar import session
    assert getattr(movestar, name) is getattr(session, name)
    assert name in movestar.__all__ and name in dir(movestar)


def test_validate_tables_loads_no_numpy_kernel_or_trace_io():
    added = added_modules("import contextlib, io\nfrom movestar import cli\n"
                          "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                          "    assert cli.main(['validate-tables']) == cli.EXIT_OK\n"
                          "assert out.getvalue().startswith('tables OK: ')")
    assert [m for m in added if m.split(".")[0] == "numpy"
            or m in ("movestar.core", "movestar.cycleio", "movestar.demo")] == []
