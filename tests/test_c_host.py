"""A host simulator written in C embeds CPython and drives `flatapi`.

`tests/c_host/host.c` is built with `python3-config --embed` into tmp_path.
Its output must equal, byte for byte, that of `tests/c_host/host.py`, which
makes the same calls from Python: every status, mode, gram, total and
factor printed with %.17g, so equal text means bit-identical values."""

import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import movestar

HOST = Path(__file__).parent / "c_host"
SRC = str(Path(movestar.__file__).resolve().parents[1])
# Vehicle codes: two cars and two trucks, a code that `create` refuses
# (handle 0), and one car that is never stepped, so `finalize` reports an
# empty session.
CODES = ["1", "2", "1", "3", "2", "1"]
BAD_SPEEDS = ["-1", "nan", "inf", "-inf", "100.5", "1e300"]


def _python_config():
    """The running interpreter's python-config, else the first python3-config on PATH."""
    beside = Path(sys.executable).with_name(f"python{sys.version_info[0]}.{sys.version_info[1]}-config")
    return str(beside) if beside.is_file() else shutil.which("python3-config")


@pytest.fixture(scope="module")
def host(tmp_path_factory):
    gcc, config = shutil.which("gcc"), _python_config()
    if gcc is None or config is None:
        pytest.skip(f"no C compiler or python3-config found (gcc={gcc}, python3-config="
                    f"{config}); this test runs wherever both are, as on CI's Ubuntu runners")
    flags = subprocess.run([config, "--embed", "--cflags", "--ldflags"], check=True,
                           capture_output=True, text=True).stdout
    exe = tmp_path_factory.mktemp("c_host") / "host"
    subprocess.run([gcc, str(HOST / "host.c"), "-o", str(exe), *shlex.split(flags)],
                   check=True, capture_output=True, text=True)
    return exe


def _speeds():
    """60 ticks of random-walk speeds for the first five vehicles (the refused
    code's included), with a bad speed for a live vehicle now and then, and
    some short lines on which vehicles 3 and 4 sit the tick out."""
    rng = random.Random(2024)
    v = [0.0] * 5
    lines = []
    for tick in range(60):
        for k in range(5):
            v[k] = min(35.0, max(0.0, v[k] + rng.uniform(-3.5, 2.5)))
        words = [repr(x) for x in v]
        if tick % 7 == 3:
            words[(0, 1, 2, 4)[tick % 4]] = BAD_SPEEDS[tick % len(BAD_SPEEDS)]
        elif rng.random() < 0.25:
            del words[3:]
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def _run(command, speeds):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(command + CODES, input=speeds, capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_c_host_matches_python_bit_for_bit(host):
    speeds = _speeds()
    want = _run([sys.executable, str(HOST / "host.py")], speeds)
    assert _run([str(host)], speeds) == want
    lines = want.splitlines()
    # Every status code was exercised: bad speeds (1), the refused code (2),
    # the empty session (1), and every call on a released or unknown handle (3).
    assert "create 3 2 0" in lines and "finalize 5 1 0 0 0 0 0 0 0 0 0 0 0 0" in lines
    assert "step 3 3 -1 0 0 0 0 0" in lines and "destroy 0 3" in lines
    bad_steps = sum(word in BAD_SPEEDS for word in speeds.split())
    assert bad_steps == 9
    assert sum(line.startswith("step ") and line.split()[2] == "1" for line in lines) == bad_steps
    assert sum(line.startswith("finalize ") and line.split()[2] == "0" for line in lines) == 4
