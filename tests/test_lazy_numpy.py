"""No command loads numpy: the exact subcommands never touched it, and
the numeric ones (the spinor exponential, verify's exp-action claim)
run on plain lists of complex.  numpy serves the tests as an oracle
only.

Each case runs in a fresh interpreter, since this test process has
numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import octo_so8

SRC = str(Path(octo_so8.__file__).resolve().parents[1])

# Runs the commands given as JSON argv lists through cli.main, quietly,
# and prints whether numpy was imported at each step.
PROBE = """
import contextlib, io, json, sys
steps = {}
import octo_so8
steps["import octo_so8"] = "numpy" in sys.modules
octo_so8.load_fixtures()
steps["load_fixtures()"] = "numpy" in sys.modules
from octo_so8.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc == 0, (argv, rc)
    steps[" ".join(argv)] = "numpy" in sys.modules
print(json.dumps(steps))
"""


def numpy_loaded(*commands) -> dict:
    """{step: numpy in sys.modules after it} from one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OCTO_SO8_FIXTURES", None)
    p = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


def test_exact_paths_never_load_numpy():
    steps = numpy_loaded(
        ["rotate", "5", "6"],
        ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"],
        ["tables"], ["gram"], ["dump-beta", "3"])
    assert len(steps) == 7
    assert not any(steps.values()), steps


@pytest.mark.parametrize("argv", [
    ["spinor", "--f=0,0,0,0,0,0,0,1"],
    ["verify"],
])
def test_numeric_paths_never_load_numpy(argv):
    steps = numpy_loaded(argv)
    assert steps == {"import octo_so8": False, "load_fixtures()": False,
                     " ".join(argv): False}


def test_no_command_loads_numpy():
    f = "--f=0.3,-0.2,0.7,0.1,0,-0.5,0.4,0.9"
    commands = [["rotate", "5", "6"],
                ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"],
                ["tables"], ["gram"], ["dump-beta", "3"]]
    for reading in ("sigma", "tensor"):
        var = ["--beta-variant", reading]
        commands += [["spinor", f] + var, ["spinor", f, "--split"] + var,
                     ["verify"] + var]
    steps = numpy_loaded(*commands)
    assert len(steps) == 2 + len(commands)
    assert not any(steps.values()), steps
