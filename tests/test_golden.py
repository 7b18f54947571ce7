"""The ``verify`` report, pinned byte for byte by committed golden files,
and ``rotate``, ``spinor`` and the audit commands (``tables``, ``gram``,
``dump-beta``), pinned by digest over grids of inputs.

``tests/golden/verify-<reading>.<format>`` is the standard output of
``octo-so8 verify --beta-variant <reading> --format <format>``.  The one
exception to byte equality is the float fields of the ``exp-action``
claim: they are compared within that claim's own ``tolerance_bound``,
and everything else, the rest of that claim included, must match
exactly.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from octo_so8.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXP_FLOATS = ("diagonal_oracle_max_error", "hermiticity_defect",
              "unitarity_defect")
MD_EXP_BLOCK = re.compile(r"(### exp-action\n.*?```json\n)(.*?)(\n```)", re.S)


def _pin_exp_floats(got: dict, want: dict) -> dict:
    """got with want's exp-action floats, after checking each is within
    want's tolerance_bound of want's value."""
    bound = want["tolerance_bound"]
    for key in EXP_FLOATS:
        assert abs(got[key] - want[key]) <= bound, (key, got[key], want[key])
    return {k: want[k] if k in EXP_FLOATS else v for k, v in got.items()}


def _pin_json(got: str, want: str) -> str:
    got_doc, want_doc = json.loads(got), json.loads(want)
    for g, w in zip(got_doc["claims"], want_doc["claims"]):
        if g["id"] == w["id"] == "exp-action":
            g["details"] = _pin_exp_floats(g["details"], w["details"])
    return json.dumps(got_doc, indent=2) + "\n"


def _pin_md(got: str, want: str) -> str:
    g, w = MD_EXP_BLOCK.search(got), MD_EXP_BLOCK.search(want)
    assert g and w, "exp-action details block not found"
    pinned = _pin_exp_floats(json.loads(g.group(2)), json.loads(w.group(2)))
    return got[:g.start(2)] + json.dumps(pinned, indent=2) + got[g.end(2):]


@pytest.mark.parametrize("fmt", ["md", "json"])
@pytest.mark.parametrize("reading", ["sigma", "tensor"])
def test_verify_matches_golden(reading, fmt, capsys):
    want = (GOLDEN / f"verify-{reading}.{fmt}").read_bytes().decode("utf-8")
    assert main(["verify", "--beta-variant", reading, "--format", fmt]) == 0
    got = capsys.readouterr().out
    if got != want:
        got = (_pin_json if fmt == "json" else _pin_md)(got, want)
    assert got.encode("utf-8") == want.encode("utf-8")


def test_float_pinning_rejects_drift_beyond_bound():
    want = json.loads((GOLDEN / "verify-sigma.json").read_text("utf-8"))
    exp = next(c for c in want["claims"] if c["id"] == "exp-action")
    drifted = dict(exp["details"])
    drifted["hermiticity_defect"] += 2 * drifted["tolerance_bound"]
    with pytest.raises(AssertionError):
        _pin_exp_floats(drifted, exp["details"])


# ---------------------------------------------------------------------------
# rotate, spinor and the audit commands, pinned by digest
#
# tests/golden/rotate-grid.json, spinor-grid.json and audit-grid.json
# map each argv of their grid (joined by spaces) to the sha256 of its
# exit code, stdout and stderr.  Rewrite all three with
# ``PYTHONPATH=src python tests/test_golden.py`` only when a change to
# those bytes is intended and recorded.

ROTATE_GRID = GOLDEN / "rotate-grid.json"
GRID_F = "--f=1,-1/2,3/4,0,2,-3,1/8,5"
GRID_MODES = (["--format", "md"], ["--format", "json"],
              ["--theta=1/4", GRID_F, "--format", "md"],
              ["--theta=1", GRID_F, "--format", "md"],
              ["--theta=3/8", GRID_F, "--format", "json"])
SPINOR_GRID = GOLDEN / "spinor-grid.json"
# the last f overflows e^X under both readings
SPINOR_F = ("0,0,0,0,0,0,0,0", "0.25,0,0,0,0,0,0,-0.5",
            "0.3,-0.2,0.7,0.1,0,-0.5,0.4,0.9",
            "1.5,-2.25,0.75,3,-0.125,2,-1,0.5",
            "-3.7,1.9,-0.42,2.6,4.1,-1.3,0.07,-2.2",
            "1000,0,0,0,0,0,0,0")
AUDIT_GRID = GOLDEN / "audit-grid.json"


def rotate_grid() -> list:
    return [["rotate", str(k), str(l), "--beta-variant", reading] + mode
            for reading in ("sigma", "tensor")
            for k in range(1, 9) for l in range(k + 1, 9)
            for mode in GRID_MODES]


def spinor_grid() -> list:
    return [["spinor", "--beta-variant", reading, f"--f={f}"] + split
            + ["--format", fmt]
            for reading in ("sigma", "tensor") for split in ([], ["--split"])
            for fmt in ("md", "json") for f in SPINOR_F]


def audit_grid() -> list:
    return [cmd + ["--beta-variant", reading, "--format", fmt]
            for cmd in [["tables"], ["gram"]]
            + [["dump-beta", str(a)] for a in range(1, 9)]
            for reading in ("sigma", "tensor") for fmt in ("md", "json")]


def cli_digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    blob = json.dumps([rc, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_grid(path, argvs):
    want = json.loads(path.read_text("utf-8"))
    assert sorted(want) == sorted(" ".join(argv) for argv in argvs)
    for argv in argvs:
        key = " ".join(argv)
        assert cli_digest(argv) == want[key], f"bytes differ for: {key}"


def test_rotate_grid_matches_digests():
    check_grid(ROTATE_GRID, rotate_grid())


def test_spinor_grid_matches_digests():
    check_grid(SPINOR_GRID, spinor_grid())


def test_audit_grid_matches_digests():
    check_grid(AUDIT_GRID, audit_grid())


def test_spinor_grid_exits():
    # every spinor of the grid succeeds but the overflowing f, which
    # exits 2 naming --f
    for argv in spinor_grid():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if argv[3] == f"--f={SPINOR_F[-1]}":
            assert (rc, out.getvalue()) == (2, "")
            assert err.getvalue().startswith(f"error: {argv[3]}: ")
        else:
            assert (rc, err.getvalue()) == (0, "")


if __name__ == "__main__":
    for path, grid in ((ROTATE_GRID, rotate_grid), (SPINOR_GRID, spinor_grid),
                       (AUDIT_GRID, audit_grid)):
        path.write_text(json.dumps(
            {" ".join(argv): cli_digest(argv) for argv in grid()},
            indent=1) + "\n", encoding="utf-8")
