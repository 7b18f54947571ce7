"""The ``verify`` report, pinned byte for byte by committed golden files;
``rotate``, ``spinor`` and the audit commands (``tables``, ``gram``,
``dump-beta``), pinned by digest over grids of inputs; and the token
language of scalars, linear forms and theta-affine cells, pinned by a
grid of accepted renderings and rejection messages.

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
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

import cross_version
from octo_so8 import parse_cdyadic, parse_dyadic, parse_linear_form
from octo_so8.cli import main
from octo_so8.fixtures import FIXTURE_FILES
from octo_so8.symbolic import parse_theta_affine

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
# exit code, stdout and stderr.  Rewrite one of them, or the token grid
# below, with ``PYTHONPATH=src python tests/test_golden.py NAME ...``
# (NAME one of rotate, spinor, audit, token) only when a change to those
# bytes is intended and recorded; the grids not named stay as they are.

ROTATE_GRID = GOLDEN / "rotate-grid.json"
GRID_F = "--f=1,-1/2,3/4,0,2,-3,1/8,5"
GRID_MODES = (["--format", "md"], ["--format", "json"],
              ["--theta=1/4", GRID_F, "--format", "md"],
              ["--theta=1", GRID_F, "--format", "md"],
              ["--theta=3/8", GRID_F, "--format", "json"])
SPINOR_GRID = GOLDEN / "spinor-grid.json"
# e^X with X = t beta_1, a Hermitian code squaring to I, has entries
# cosh t and +-sinh t, so it overflows binary64 from t = ln(2 DBL_MAX),
# about 710.5: f_1 = 710 succeeds, and 711, 720 and 1000 overflow under
# both readings.  The fixture Y at f_1 = 710 is not Hermitian, and e^Y
# overflows, so with --split 710 fails too.
SPINOR_F = ("0,0,0,0,0,0,0,0", "0.25,0,0,0,0,0,0,-0.5",
            "0.3,-0.2,0.7,0.1,0,-0.5,0.4,0.9",
            "1.5,-2.25,0.75,3,-0.125,2,-1,0.5",
            "-3.7,1.9,-0.42,2.6,4.1,-1.3,0.07,-2.2",
            "710,0,0,0,0,0,0,0", "711,0,0,0,0,0,0,0", "720,0,0,0,0,0,0,0",
            "1000,0,0,0,0,0,0,0")
SPINOR_OVERFLOW_F = SPINOR_F[-3:]
SPLIT_OVERFLOW_F = SPINOR_F[-4:]
AUDIT_GRID = GOLDEN / "audit-grid.json"


def rotate_grid() -> list:
    # every ordered plane: (l, k) is a plane of its own, N_lk = -N_kl
    return [["rotate", str(k), str(l), "--beta-variant", reading] + mode
            for reading in ("sigma", "tensor")
            for k in range(1, 9) for l in range(1, 9) if k != l
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


def test_cross_version_check_reads_the_same_grids():
    # tests/cross_version.py takes each argv back from its grid key and
    # digests it as cli_digest does
    for name, build in (("spinor-grid.json", spinor_grid),
                        ("rotate-grid.json", rotate_grid),
                        ("audit-grid.json", audit_grid)):
        argvs = [argv for argv, _ in cross_version.grid(name).values()]
        assert sorted(argvs) == sorted(build())
    for argv in (spinor_grid()[1], rotate_grid()[2], audit_grid()[5]):
        assert cross_version.digest(argv) == cli_digest(argv)


def test_spinor_grid_exits():
    # every spinor of the grid succeeds but those of an overflowing f,
    # which exit 2 naming --f
    for argv in spinor_grid():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        overflowing = SPLIT_OVERFLOW_F if "--split" in argv else \
            SPINOR_OVERFLOW_F
        if argv[3] in {f"--f={f}" for f in overflowing}:
            assert (rc, out.getvalue()) == (2, "")
            assert err.getvalue().startswith(f"error: {argv[3]}: ")
        else:
            assert (rc, err.getvalue()) == (0, "")


# ---------------------------------------------------------------------------
# the token language, pinned by value and by message
#
# tests/golden/token-grid.json maps "<reader> <token>" to "= <canonical
# rendering>" for an accepted token and "! <exception>: <message>" for a
# rejected one, under each of the four readers; "cli <argv>" and
# "fixture <file> <line> <col> <token>" to the exit code and stderr of
# a command that reads the token from a flag or from a fixture cell.
# Strings over 160 characters are clipped around their length and
# sha256, so that the huge-number tokens stay readable.

TOKEN_GRID = GOLDEN / "token-grid.json"
HUGE = "1" + "0" * 5000          # over the interpreter's 4,300-digit limit
BIG = "9" * 4300                 # at the limit
TOKENS = (
    # canonical and non-canonical scalars
    "0", "1", "-1", "+1", "3", "00", "007", "0/1", "2/4", "1/1", "-12/16",
    "1/2", "-1/2", "+1/2", "i", "-i", "+i", "2i", "0i", "1/2i", "-3/4i",
    "1+i", "1-i", "-1/2+1/2i", "3/4-5/8i", "i+1", "-i-1", "+1+i", "0+0i",
    " 1/4 ", "\t-i\n", "1 +i", "1\n+i", "1/2\n-i", "\u0663", "1/\u0664",
    "1+2", "i+i", "1/2+1/4", "2i-i", "0i+0i", BIG, "-" + BIG + "i",
    # malformed scalars
    "", " ", "\n", "x", "1.5", "1e3", "0x10", "1_0", "1/3", "1/0", "1/00",
    "1/03", "3/6", "-1/-2", "1//2", "1/2/4", "/2", "1/", "i/2", "1/2i/2",
    "ii", "i2", "2ii", "1i2", "+", "-", "--1", "+-1", "1+", "1-", "1++2",
    "1+-i", "-+i", HUGE, "-1/" + HUGE, "1/" + HUGE + "i", BIG + "9",
    # parentheses
    "(1)", "(1", "1)", ")(", "(1+i)", "(1+i)i", "((1))", "(1)(2)", "()",
    "( )", "(-)", "(--1)", "(1+)", "(1+2)", "(i*2)", "(()", "(()))",
    "(1(2))", "(1+(2))",
    # linear forms
    "f0", "f1", "f8", "f9", "F1", "-f1", "+f1", "f 1", "f1 + f2",
    "2*f2-2*i*f4", "-f4-i*f2", "i*f8", "i*i*f1", "(1+i)*f3", "f3*(1+i)",
    "(1/2-1/4i)*f2+1", "2*(i)*f1", "(-1)*f1", "f1*2", "1/2*f1", "f1+f1",
    "f1-f1", "f1+f2+f3+f4+f5+f6+f7+f8", "3-f2+i", "(1+i)*(1-i)",
    "(1+i)*(1-i)*f7", "f1*(1/3)", HUGE + "*f1", "f1*" + BIG,
    # malformed forms
    "f1*f2", "f1*f1", "2f1", "f1f2", "*f1", "f1*", "f1**f2", "-*f1",
    "f1*+f2", "2*-f1", "(f1)", "(f1)*2", "f1*(", "(f1*f2)", "f1*(1",
    "f1+(1+i", "f1+)", ")f1", "f1(2)", "f1()", "(2)f1", "x+--f1", "x+(",
    "f1**f2+--", "1/3*f1+f1*f2", "f1*f2*x", "x*f1*f2", "f1+f2*f3",
    # theta-affine cells
    "theta", "-theta", "+theta", "2*theta", "theta*2", "1-2*theta",
    "theta-1/2", "i*theta", "(1-i)*theta", "theta*theta", "theta+theta",
    "theta+f1", "thetas", "th", "(theta)", "1/2*theta*i", "f1*theta",
)
READERS = {
    "cdyadic": lambda t: str(parse_cdyadic(t)),
    "dyadic": lambda t: str(parse_dyadic(t)),
    "form": lambda t: str(parse_linear_form(t)),
    "theta": lambda t: "{}; {}*theta".format(*parse_theta_affine(t)),
}
F7 = "1,-1/2,3/4,0,2,-3,1/8,"
CLI_ARGVS = [["rotate", "1", "2", f"--theta={t}", "--format", "json"]
             for t in ("1/4", " -1/2 ", "", "1/3", "x", "1+i", "--1", "(1)",
                       "f1", HUGE)] + [
    ["rotate", "1", "2", "--theta=1/4", f"--f={f}", "--format", "json"]
    for f in ("1,2,3", F7 + "5", F7 + " 5 ", F7, F7 + "1/3", F7 + "i",
              F7 + "1e3", F7 + HUGE)] + [
    ["spinor", f"--f={f}", "--format", "json"]
    for f in ("0,0,0,0,0,0,0,1/2", "0,0,0,0,0,0,0,1/3", "0,0,0,0,0,0,0,x",
              "0,0,0,0,0,0,0,0.25", "0,0,0,0,0,0,0,1/" + HUGE)]
# (file, 1-indexed line, 1-indexed column, token) written into a copy
# of the bundled fixtures read by ``verify --fixtures``
FIXTURE_CELLS = [("eq6_X.txt", 1, 1, t) for t in ("x", "1/3", "f1*f2", HUGE)] + [
    ("eq12_R12.txt", 3, 5, "f1"), ("eq12_R12.txt", 8, 8, "theta*theta"),
    ("eq13_delta.txt", 2, 7, "(1"), ("eq21_Y2.txt", 5, 1, "--f1"),
    ("eq23_C.txt", 4, 4, "f1*"), ("eq24_D.txt", 2, 2, "f1+"),
    ("eq14_map.txt", 3, 2, "f9"), ("eq14_map.txt", 8, 2, "1" + HUGE)]


def _clip(s: str) -> str:
    if len(s) <= 160:
        return s
    digest = hashlib.sha256(s.encode("utf-8")).hexdigest()[:16]
    return f"{s[:60]}<...{len(s)} chars, sha256 {digest}...>{s[-60:]}"


def _outcome(read, tok: str) -> str:
    try:
        return "= " + _clip(read(tok))
    except Exception as exc:   # the type is part of what is pinned
        return f"! {type(exc).__name__}: {_clip(str(exc))}"


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    stdout = out.getvalue()
    shown = hashlib.sha256(stdout.encode("utf-8")).hexdigest() if stdout else ""
    return f"{rc} [{shown}] {_clip(err.getvalue())}"


def _with_cell(directory: Path, name: str, line: int, col: int, tok: str):
    """Write the bundled ``name`` into directory with one cell replaced."""
    rows = (resources.files("octo_so8") / "data" / name).read_text(
        "utf-8").split("\n")
    cells = rows[line - 1].split()
    cells[col - 1] = tok
    rows[line - 1] = " ".join(cells)
    (directory / name).write_text("\n".join(rows), encoding="utf-8")


def token_grid() -> dict:
    grid = {f"{name} {_clip(tok)}": _outcome(read, tok)
            for name, read in READERS.items() for tok in TOKENS}
    grid.update({"cli " + _clip(" ".join(argv)): _run(argv)
                 for argv in CLI_ARGVS})
    data = resources.files("octo_so8") / "data"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in FIXTURE_FILES:
            (root / name).write_bytes((data / name).read_bytes())
        for name, line, col, tok in FIXTURE_CELLS:
            _with_cell(root, name, line, col, tok)
            key = f"fixture {name} {line} {col} {_clip(tok)}"
            grid[key] = _run(["verify", "--fixtures", tmp])
            (root / name).write_bytes((data / name).read_bytes())
    return grid


def test_token_grid_matches():
    want = json.loads(TOKEN_GRID.read_text("utf-8"))
    got = token_grid()
    assert sorted(got) == sorted(want)
    differ = {k: (want[k], got[k]) for k in want if got[k] != want[k]}
    assert not differ


def test_token_grid_covers_every_message():
    # each message format raised in exact.py and symbolic.py, and each
    # prefix the CLI puts on it, shows in the grid at least once
    values = "\n".join(json.loads(TOKEN_GRID.read_text("utf-8")).values())
    for needle in ("empty scalar token", "bad scalar token",
                   "bad scalar atom", "is not a power of two",
                   "duplicate real part", "duplicate imaginary part",
                   "expected a real dyadic", "empty expression",
                   "unbalanced '('", "unbalanced ')'", "consecutive signs",
                   "dangling sign", "empty factor", "two symbols in one term",
                   "error: --theta=", "error: --f=", "column 1: ",
                   "eq14_map.txt:3: "):
        assert needle in values, needle


def _digests(grid):
    return lambda: {" ".join(argv): cli_digest(argv) for argv in grid()}


# name: (file, builder) for regenerate
GRIDS = {"rotate": (ROTATE_GRID, _digests(rotate_grid)),
         "spinor": (SPINOR_GRID, _digests(spinor_grid)),
         "audit": (AUDIT_GRID, _digests(audit_grid)),
         "token": (TOKEN_GRID, token_grid)}


def regenerate(names) -> int:
    """Rewrite the named grids from this tree and no other; with no
    name, or one not in GRIDS, print usage and write nothing."""
    if not names or not set(names) <= GRIDS.keys():
        print(f"usage: python tests/test_golden.py {'|'.join(GRIDS)} ...\n"
              "rewrites only the named golden grids", file=sys.stderr)
        return 2
    for name in names:
        path, build = GRIDS[name]
        path.write_text(json.dumps(build(), indent=1, ensure_ascii=False)
                        + "\n", encoding="utf-8")
    return 0


@pytest.fixture
def scratch_grids(tmp_path, monkeypatch):
    """GRIDS pointed at files under tmp_path, each built as {name: "é"}."""
    for name in list(GRIDS):
        monkeypatch.setitem(GRIDS, name,
                            (tmp_path / name, lambda n=name: {n: "é"}))
    return tmp_path


@pytest.mark.parametrize("names", [[], ["token", "verify"], ["Rotate"]])
def test_regenerate_without_a_grid_name_writes_nothing(names, scratch_grids,
                                                        capsys):
    assert regenerate(names) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "usage: python tests/test_golden.py rotate|spinor|audit|token ...")
    assert not any(scratch_grids.iterdir())


def test_regenerate_writes_only_the_named_grids(scratch_grids):
    assert regenerate(["token", "audit"]) == 0
    assert sorted(p.name for p in scratch_grids.iterdir()) == ["audit",
                                                              "token"]
    assert (scratch_grids / "token").read_text("utf-8") == (
        '{\n "token": "é"\n}\n')


def test_running_the_file_without_a_name_writes_nothing():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    before = {path: path.read_bytes() for path in GOLDEN.iterdir()}
    run = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("usage: ")
    assert {path: path.read_bytes() for path in GOLDEN.iterdir()} == before


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
