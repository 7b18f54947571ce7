"""What each command imports.  No command loads numpy: the exact
subcommands never touched it, and the numeric ones (the spinor
exponential, verify's exp-action claim) run on plain lists of complex.
numpy serves the tests as an oracle only.  Nothing loads
``dataclasses`` (the records are NamedTuples) or ``fractions`` (every
exact scalar is a CRational built from ints).  No command loads
``hashlib``, which maps OpenSSL, or the ``json`` package: digests come
from the interpreter's own SHA-256 module, which only ``verify`` loads,
and JSON strings from ``_json``.

Each case runs in a fresh interpreter, since this test process has
all these modules loaded already."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import octo_so8

SRC = str(Path(octo_so8.__file__).resolve().parents[1])
SHA256 = ("_sha2", "_sha256")     # Python 3.12 on, and before it
HASHES = SHA256 + ("hashlib", "_hashlib")
WATCHED = ("numpy", "dataclasses", "fractions", "json") + HASHES

# Imports the CLI, then runs the commands given as a literal list of
# argv lists through cli.main, quietly, and prints which watched modules
# were imported after each step.  It imports no watched module itself.
PROBE = """
import ast, contextlib, io, sys
watched = ast.literal_eval(sys.argv[2])
def loaded():
    return [m for m in watched if m in sys.modules]
steps = {}
import octo_so8.cli
steps["import octo_so8.cli"] = loaded()
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = octo_so8.cli.main(argv)
    assert rc == 0, (argv, rc)
    steps[" ".join(argv)] = loaded()
print(repr(steps))
"""

F = "--f=0.3,-0.2,0.7,0.1,0,-0.5,0.4,0.9"
# Commands that read no fixture file, and those that do.  spinor
# --split reads the two files of Y, tables reads table2.txt and rotate
# 5 6 eq14_map.txt, and none of them digests a file: only verify does.
NO_FIXTURES = [["spinor", F], ["spinor", F, "--split"],
               ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"],
               ["rotate", "3", "7"], ["gram"], ["dump-beta", "3"]]
READ_FIXTURES = [["rotate", "5", "6"], ["tables"], ["verify"]]


def modules_loaded(*commands) -> dict:
    """{step: the WATCHED modules in sys.modules after it} from one
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OCTO_SO8_FIXTURES", None)
    p = subprocess.run([sys.executable, "-c", PROBE, repr(commands),
                        repr(WATCHED)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    return ast.literal_eval(p.stdout)


def loading(steps: dict, module: str) -> list:
    return [step for step, mods in steps.items() if module in mods]


@pytest.fixture(scope="module")
def every_command() -> dict:
    commands = [["rotate", "5", "6"],
                ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"],
                ["rotate", "3", "7"], ["tables"], ["gram"], ["dump-beta", "3"]]
    for reading in ("sigma", "tensor"):
        var = ["--beta-variant", reading]
        commands += [["spinor", F] + var, ["spinor", F, "--split"] + var,
                     ["verify"] + var,
                     ["verify", "--format", "json"] + var]
    commands += [["tables", "--format", "json"],
                 ["spinor", F, "--split", "--format", "json"]]
    steps = modules_loaded(*commands)
    assert len(steps) == 1 + len(commands)
    return steps


def test_exact_paths_never_load_numpy():
    steps = modules_loaded(
        ["rotate", "5", "6"],
        ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"],
        ["tables"], ["gram"], ["dump-beta", "3"])
    assert len(steps) == 6
    assert not loading(steps, "numpy"), steps


@pytest.mark.parametrize("argv", [
    ["spinor", "--f=0,0,0,0,0,0,0,1"],
    ["verify"],
])
def test_numeric_paths_never_load_numpy(argv):
    steps = modules_loaded(argv)
    assert list(steps) == ["import octo_so8.cli", " ".join(argv)]
    assert not loading(steps, "numpy"), steps


def test_no_command_loads_numpy(every_command):
    assert not loading(every_command, "numpy"), every_command


def test_no_command_loads_dataclasses(every_command):
    assert not loading(every_command, "dataclasses"), every_command


def test_no_command_loads_fractions(every_command):
    assert not loading(every_command, "fractions"), every_command


@pytest.mark.parametrize("module", ["hashlib", "_hashlib", "json"])
def test_no_command_loads_openssl_or_json(every_command, module):
    assert not loading(every_command, module), every_command


@pytest.mark.parametrize("reader", READ_FIXTURES,
                         ids=["rotate-5-6", "tables", "verify"])
def test_sha256_loads_only_with_verify(reader):
    steps = modules_loaded(*NO_FIXTURES, reader)
    hashing = {step: set(mods) & set(HASHES) for step, mods in steps.items()
               if set(mods) & set(HASHES)}
    if reader == ["verify"]:
        assert hashing in ({"verify": {"_sha2"}}, {"verify": {"_sha256"}})
    else:
        assert hashing == {}, steps
