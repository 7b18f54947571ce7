"""Check that the command-line bytes do not depend on the interpreter.

Runs, under the Python that runs this file, the four ``verify`` goldens
(``tests/golden/verify-<reading>.<format>``, compared byte for byte)
and every argv of the ``spinor``, ``rotate`` and audit digest grids
(``tests/golden/*-grid.json``, each argv against the sha256 of its exit
code, stdout and stderr, as ``test_golden.cli_digest`` takes it).  It
runs all of them twice in one process, so that a cache which carries
state from one call into the next shows as a difference on the second
pass.  It uses only the standard library, so it runs on a CPython
without the test dependencies, and it is not part of the test suite:

    python3.12 tests/cross_version.py

Prints one summary line per pass and golden file, then each argv whose
bytes differ; exits 0 when everything matches on both passes and 1
otherwise.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
sys.path.insert(0, str(TESTS.parent / "src"))

from octo_so8.cli import main  # noqa: E402  (after the path is set)

VERIFY = tuple((f"verify-{reading}.{fmt}",
                ["verify", "--beta-variant", reading, "--format", fmt])
               for reading in ("sigma", "tensor") for fmt in ("md", "json"))
GRIDS = ("spinor-grid.json", "rotate-grid.json", "audit-grid.json")
PASSES = 2


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def digest(argv) -> str:
    blob = json.dumps(list(run(argv)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def grid(name) -> dict:
    """argv (a list) keyed by its grid entry, with the entry's digest."""
    want = json.loads((GOLDEN / name).read_text("utf-8"))
    return {key: (key.split(" "), value) for key, value in want.items()}


def check() -> list:
    """(file, entries checked, entries differing) per golden file."""
    results = []
    for name, argv in VERIFY:
        rc, out, err = run(argv)
        same = (rc, err) == (0, "") and \
            out.encode("utf-8") == (GOLDEN / name).read_bytes()
        results.append((name, 1, [] if same else [" ".join(argv)]))
    for name in GRIDS:
        entries = grid(name)
        results.append((name, len(entries),
                        [key for key, (argv, want) in entries.items()
                         if digest(argv) != want]))
    return results


def main_entry() -> int:
    print(f"CPython {platform.python_version()}")
    failed = 0
    for n in range(1, PASSES + 1):
        for name, checked, differ in check():
            print(f"pass {n}, {name}: {checked - len(differ)} of {checked}"
                  " match")
            for key in differ:
                print(f"  differs: {key}")
            failed += len(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_entry())
