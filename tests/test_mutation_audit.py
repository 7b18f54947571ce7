"""Every transcribed cell is checked, and every token is validated.

For each value token of each bundled fixture, a flip of its sign must
change the ``verify`` report under at least one generator reading; for
the seven 8x8 grid fixtures the change must name the flipped cell.  For
each token position, a malformed token must stop the fixture load with
an error that names the file and line.

Only the claims that read the edited file are re-run, through the fixed
map ``FILES``; ``test_file_map_covers_every_reader`` checks that map
against full reports.
"""

import contextlib
import io
from importlib import resources

import pytest

from octo_so8 import FixtureError, beta_set, load_fixtures, run_all
from octo_so8.claims import CLAIMS, context
from octo_so8.cli import main
from octo_so8.fixtures import (FIXTURE_FILES, parse_form_matrix,
                               parse_map_lines, parse_signed_grid,
                               parse_term_lines, parse_theta_grid)

READINGS = ("sigma", "tensor")
CHECKERS = {c.id: c.checker for c in CLAIMS}

# file -> (its FixtureStore fields from its text, the claims reading them)
FILES = {
    "table1.txt": (lambda t: {"table1": parse_signed_grid(t, "table1.txt", "E")},
                   ("table1-self-consistency",)),
    "table2.txt": (lambda t: {"table2": parse_signed_grid(t, "table2.txt", "e")},
                   ("table-48-16", "table2-fixture")),
    "eq2_sigma.txt": (lambda t: {"eq2": parse_term_lines(t, "eq2_sigma.txt")},
                      ("eq2-fixture",)),
    "eq6_X.txt": (lambda t: {"eq6": parse_form_matrix(t, "eq6_X.txt")},
                  ("eq6-fixture", "eq8-eq9-blocks")),
    "eq12_R12.txt": (lambda t: dict(zip(
        ("eq12_const", "eq12_theta"), parse_theta_grid(t, "eq12_R12.txt"))),
        ("eq12-fixture",)),
    "eq13_delta.txt": (lambda t: {"eq13": parse_form_matrix(t, "eq13_delta.txt")},
                       ("eq13-increment",)),
    "eq14_map.txt": (lambda t: {"eq14": parse_map_lines(t, "eq14_map.txt")},
                     ("eq14-map",)),
    "eq21_Y1.txt": (lambda t: {"eq21_y1": parse_form_matrix(t, "eq21_Y1.txt")},
                    ("eq22-blocks",)),
    "eq21_Y2.txt": (lambda t: {"eq21_y2": parse_form_matrix(t, "eq21_Y2.txt")},
                    ("eq22-blocks",)),
    "eq23_C.txt": (lambda t: {"eq23_c": parse_form_matrix(t, "eq23_C.txt", 4)},
                   ("eq22-blocks",)),
    "eq24_D.txt": (lambda t: {"eq24_d": parse_form_matrix(t, "eq24_D.txt", 4)},
                   ("eq22-blocks",)),
}

# the 8x8 grids: the claim whose cell records must name a flipped cell,
# and the index of the first row and column in those records
NAMING = {
    "table1.txt": ("table1-self-consistency", 0),
    "table2.txt": ("table2-fixture", 0),
    "eq6_X.txt": ("eq6-fixture", 1),
    "eq12_R12.txt": ("eq12-fixture", 1),
    "eq13_delta.txt": ("eq13-increment", 1),
    "eq21_Y1.txt": ("eq22-blocks", 1),
    "eq21_Y2.txt": ("eq22-blocks", 1),
}

# Cells the unmutated report already names, whose flip clears that
# record instead of adding one: (file, row, col) in NAMING's indices.
# table1.txt (6,5) is the one sign-flipped cell of
# table1-self-consistency at baseline.
CLEARED = [("table1.txt", 6, 5)]

# Each is malformed at every token position of every fixture.
BAD_TOKENS = ("x", "1/3", "--f1", "(f1", "f1)", "f1*", "f1*f2", "f1+")


def _text(name: str) -> str:
    return (resources.files("octo_so8") / "data" / name).read_text("utf-8")


def _positions(name: str):
    """(lineno, row, col, token) for each token of the file: lineno is
    the real file line, row the index among non-blank lines and col the
    0-based token index."""
    rows = [(k, ln) for k, ln in enumerate(_text(name).split("\n"), start=1)
            if ln.strip()]
    for row, (lineno, line) in enumerate(rows):
        for col, tok in enumerate(line.split()):
            yield lineno, row, col, tok


def _replace(name: str, lineno: int, col: int, tok: str) -> str:
    lines = _text(name).split("\n")
    cells = lines[lineno - 1].split()
    cells[col] = tok
    lines[lineno - 1] = " ".join(cells)
    return "\n".join(lines)


def _flip_form(tok: str, zero: str) -> str:
    """-tok written without parentheses; 0 becomes ``zero``."""
    if tok == "0":
        return zero
    swapped = tok.translate(str.maketrans("+-", "-+"))
    return swapped if tok[0] in "+-" else "-" + swapped


def _flipped(name: str, col: int, tok: str):
    """The sign flip of a value token, or None for a label.  An eq2
    prefactor has no sign; its flip swaps i and 1."""
    if name in ("eq2_sigma.txt", "eq14_map.txt") and col == 0:
        return None
    if name in ("table1.txt", "table2.txt") or name == "eq2_sigma.txt" and col > 1:
        return tok[1:] if tok[0] == "-" else "-" + tok
    if name == "eq2_sigma.txt":
        return {"i": "1", "1": "i"}[tok]
    return _flip_form(tok, "theta" if name == "eq12_R12.txt" else "f1")


def _results(fx, reading: str, claim_ids) -> dict:
    ctx = context(beta_set(reading))
    return {cid: CHECKERS[cid](fx, ctx) for cid in claim_ids}


def _records(obj):
    """Every dict with "row" and "col" keys inside obj."""
    if isinstance(obj, dict):
        if "row" in obj and "col" in obj:
            yield obj
        for v in obj.values():
            yield from _records(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _records(v)


def _naming(results: dict, claim: str, cell) -> list:
    return [r for r in _records(results[claim][1])
            if (r["row"], r["col"]) == cell]


@pytest.fixture(scope="module")
def base():
    fx = load_fixtures()
    return fx, {reading: _results(fx, reading, CHECKERS) for reading in READINGS}


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_every_sign_flip_shows_in_the_report(name, base):
    fx, want = base
    parse, claim_ids = FILES[name]
    silent, unnamed, cleared = [], [], []
    for lineno, row, col, tok in _positions(name):
        flip = _flipped(name, col, tok)
        if flip is None:
            continue
        mutant = fx._replace(**parse(_replace(name, lineno, col, flip)))
        got = {r: _results(mutant, r, claim_ids) for r in READINGS}
        if all(got[r] == {c: want[r][c] for c in claim_ids}
               for r in READINGS):
            silent.append((lineno, col, tok, flip))
        if name not in NAMING:
            continue
        claim, first = NAMING[name]
        cell = (row + first, col + first)
        before = [_naming(want[r], claim, cell) for r in READINGS]
        after = [_naming(got[r], claim, cell) for r in READINGS]
        if any(a and a != b for a, b in zip(after, before)):
            continue
        if any(b and not a for a, b in zip(after, before)):
            cleared.append((name,) + cell)
        else:
            unnamed.append((lineno, col, tok, flip))
    assert not silent
    assert not unnamed
    assert cleared == [c for c in CLEARED if c[0] == name]


def test_flip_count():
    flips = [(name, p) for name in FIXTURE_FILES for p in _positions(name)
             if _flipped(name, p[2], p[3]) is not None]
    assert len(flips) == 560
    assert sum(len(list(_positions(n))) for n in FIXTURE_FILES) == 576


def test_file_map_covers_every_reader(base):
    # a flip of each file's first value token changes some claim, and
    # none outside the file's entry in FILES, on the full reports
    fx, _ = base
    want = {r: run_all(fx, r)["claims"] for r in READINGS}
    for name in FIXTURE_FILES:
        parse, claim_ids = FILES[name]
        lineno, _, col, tok = next(p for p in _positions(name)
                                   if _flipped(name, p[2], p[3]))
        mutant = fx._replace(**parse(_replace(
            name, lineno, col, _flipped(name, col, tok))))
        changed = {g["id"] for r in READINGS
                   for g, w in zip(run_all(mutant, r)["claims"], want[r])
                   if g != w}
        assert changed and changed <= set(claim_ids), (name, changed)


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_every_malformed_token_names_its_file_and_line(name, data_copy):
    # at position k, BAD_TOKENS[k % 8] goes through ``verify --fixtures``
    # and the other seven through the file's parser
    parse, _ = FILES[name]
    original = (data_copy / name).read_bytes()
    for k, (lineno, _, col, _) in enumerate(_positions(name)):
        prefix = f"{name}:{lineno}:"
        for j, bad in enumerate(BAD_TOKENS):
            text = _replace(name, lineno, col, bad)
            if j != k % len(BAD_TOKENS):
                with pytest.raises(FixtureError) as exc:
                    parse(text)
                assert str(exc.value).startswith(prefix), (bad, exc.value)
                continue
            (data_copy / name).write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(["verify", "--fixtures", str(data_copy)])
            (data_copy / name).write_bytes(original)
            assert (rc, out.getvalue()) == (2, ""), (bad, err.getvalue())
            assert err.getvalue().startswith("error: " + prefix), bad
