"""Loaders for the bundled transcription fixtures.

The files under ``data/`` are verbatim transcriptions of the reference
tables and displayed matrices that this package re-derives.  Parsers
validate shape and token grammar but never repair contents — any
oddity in a transcription is exactly what the claim checkers are meant
to surface, so "fixing" it here would defeat the point.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .exact import ScalarParseError
from .matrices import SignedTable, SquareMatrix
from .symbolic import parse_linear_form, parse_theta_affine

# The complete bundled set.  load_fixtures() requires every one of
# these to be present, whether reading the package data or a user
# directory, so a verification run always covers the full corpus.
FIXTURE_FILES = (
    "eq2_sigma.txt",
    "eq6_X.txt",
    "eq12_R12.txt",
    "eq13_delta.txt",
    "eq14_map.txt",
    "eq21_Y1.txt",
    "eq21_Y2.txt",
    "eq23_C.txt",
    "eq24_D.txt",
    "table1.txt",
    "table2.txt",
)


class FixtureError(ValueError):
    """A fixture file is missing, mis-shaped, or has a bad token."""


def _fail(filename: str, lineno: int, msg: str):
    raise FixtureError(f"{filename}:{lineno}: {msg}")


def _rows(text: str, filename: str, n: int):
    """The (lineno, line) pairs of the non-blank lines, which must number
    n; lineno is the real file line so FixtureError locations can be
    opened in an editor."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if len(lines) != n:
        raise FixtureError(
            f"{filename}: expected {n} rows, found {len(lines)}")
    return lines


def _cells(line: str, filename: str, lineno: int, n: int) -> list:
    """The n whitespace-separated tokens of one grid row."""
    toks = line.split()
    if len(toks) != n:
        _fail(filename, lineno, f"expected {n} cells, found {len(toks)}")
    return toks


# ---------------------------------------------------------------------------
# token grammars

_SIGNED_CELL = re.compile(r"^([+-]?)([A-Za-z])([0-9])$")
_TERM = re.compile(r"^([+-]?)S([0-9])([0-9])$")
_MAP_LABEL = re.compile(r"^f([1-8]):$")


def parse_signed_grid(text: str, filename: str, label: str) -> SignedTable:
    """8x8 grid of tokens like ``e3`` / ``-E5`` with basis letter *label*."""
    rows = []
    for lineno, line in _rows(text, filename, 8):
        row = []
        for tok in _cells(line, filename, lineno, 8):
            m = _SIGNED_CELL.match(tok)
            if m is None or m.group(2) != label:
                _fail(filename, lineno, f"bad cell token {tok!r}")
            k = int(m.group(3))
            if k > 7:
                _fail(filename, lineno,
                      f"basis index out of range 0..7 in {tok!r}")
            row.append((-1 if m.group(1) == "-" else 1, k))
        rows.append(tuple(row))
    return SignedTable(tuple(rows))


def parse_term_lines(text: str, filename: str) -> dict:
    """Eight generator lines ``betaN <i|1> [+-]Smn x8`` into the same
    shape as matrices.SIGMA_TERMS."""
    out = {}
    for pos, (lineno, line) in enumerate(_rows(text, filename, 8), start=1):
        toks = line.split()
        if len(toks) != 10:
            _fail(filename, lineno, f"expected 10 tokens, found {len(toks)}")
        if toks[0] != f"beta{pos}":
            _fail(filename, lineno,
                  f"expected label beta{pos}, found {toks[0]!r}")
        if toks[1] not in ("i", "1"):
            _fail(filename, lineno, f"prefactor must be 'i' or '1', "
                                    f"found {toks[1]!r}")
        terms = []
        for tok in toks[2:]:
            m = _TERM.match(tok)
            if m is None:
                _fail(filename, lineno, f"bad term token {tok!r}")
            mm, nn = int(m.group(2)), int(m.group(3))
            if not (1 <= mm <= 8 and 1 <= nn <= 8):
                _fail(filename, lineno, f"unit index out of range in {tok!r}")
            terms.append((-1 if m.group(1) == "-" else 1, mm, nn))
        out[pos] = (toks[1] == "i", tuple(terms))
    return out


def _token_cells(text: str, filename: str, size: int, parse) -> list:
    """size x size grid of whitespace-free term-language cells, each
    read by ``parse``; a bad cell fails at its line and column."""
    rows = []
    for lineno, line in _rows(text, filename, size):
        row = []
        for col, tok in enumerate(_cells(line, filename, lineno, size),
                                  start=1):
            try:
                row.append(parse(tok))
            except ScalarParseError as exc:
                _fail(filename, lineno, f"column {col}: {exc}")
        rows.append(tuple(row))
    return rows


def parse_form_matrix(text: str, filename: str, size: int = 8) -> SquareMatrix:
    """size x size grid of linear-form cells."""
    return SquareMatrix(tuple(_token_cells(text, filename, size,
                                           parse_linear_form)))


def parse_theta_grid(text: str, filename: str):
    """8x8 grid of theta-affine cells, split into (const, theta) parts."""
    rows = _token_cells(text, filename, 8, parse_theta_affine)
    return tuple(SquareMatrix(tuple(tuple(cell[k] for cell in row)
                                    for row in rows)) for k in (0, 1))


def parse_map_lines(text: str, filename: str) -> tuple:
    """Eight lines ``fA: <form>`` in order A = 1..8."""
    forms = []
    for pos, (lineno, line) in enumerate(_rows(text, filename, 8), start=1):
        toks = line.split()
        if len(toks) != 2:
            _fail(filename, lineno, f"expected 'fA: <form>', got {line!r}")
        m = _MAP_LABEL.match(toks[0])
        if m is None or int(m.group(1)) != pos:
            _fail(filename, lineno,
                  f"expected label f{pos}:, found {toks[0]!r}")
        try:
            forms.append(parse_linear_form(toks[1]))
        except ScalarParseError as exc:
            _fail(filename, lineno, str(exc))
    return tuple(forms)


# ---------------------------------------------------------------------------
# the store

class FixtureStore(NamedTuple):
    """Every bundled fixture, parsed, plus a sha256 digest per file."""
    table1: SignedTable
    table2: SignedTable
    eq2: dict              # same shape as matrices.SIGMA_TERMS
    eq6: SquareMatrix      # 8x8 linear forms
    eq12_const: SquareMatrix
    eq12_theta: SquareMatrix
    eq13: SquareMatrix     # 8x8 linear forms
    eq14: tuple            # 8 linear forms, the per-component flow
    eq21_y1: SquareMatrix
    eq21_y2: SquareMatrix
    eq21_y_terms: tuple    # Y = eq21_y1 + eq21_y2 cells, summed once per
                           # parse: (const, ((a, c_(a+1)), ...)), c != 0
    eq23_c: SquareMatrix   # 4x4
    eq24_d: SquareMatrix   # 4x4
    digests: dict          # filename -> sha256 hex


def _read_raw(directory: Optional[str]) -> dict:
    """The bytes of every fixture file, from *directory* or from the
    bundled package data when *directory* is None."""
    root = (resources.files("octo_so8") / "data" if directory is None
            else Path(directory))
    if not root.is_dir():
        raise FixtureError(f"fixture directory not found: {root}")
    raw = {}
    for name in FIXTURE_FILES:
        try:
            raw[name] = (root / name).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            raise FixtureError(
                f"missing fixture file: {root / name}") from None
    return raw


def _decode(name: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(name, data.count(b"\n", 0, exc.start) + 1,
              f"not UTF-8 text ({exc.reason} at byte {exc.start})")


def load_fixtures(directory: Optional[str] = None) -> FixtureStore:
    """Parse the full fixture set from *directory*, or from the bundled
    package data when *directory* is None.

    Every call reads and digests all the files, so a missing, edited
    or malformed file shows on every call; only the parse of contents
    already parsed is reused.  Each call returns its own digests and
    eq2 dicts."""
    import hashlib   # here, so commands that read no fixture never load it
    raw = _read_raw(directory)
    parsed = _parse(tuple(raw[name] for name in FIXTURE_FILES))
    return parsed._replace(
        eq2=dict(parsed.eq2),
        digests={name: hashlib.sha256(raw[name]).hexdigest()
                 for name in FIXTURE_FILES})


@functools.lru_cache(maxsize=4)
def _parse(raw: tuple) -> FixtureStore:
    """The store parsed from the files' bytes, in FIXTURE_FILES order;
    its digests are left empty for load_fixtures to fill."""
    text = {name: _decode(name, data)
            for name, data in zip(FIXTURE_FILES, raw)}
    eq12_const, eq12_theta = parse_theta_grid(text["eq12_R12.txt"],
                                              "eq12_R12.txt")
    return FixtureStore(
        table1=parse_signed_grid(text["table1.txt"], "table1.txt", "E"),
        table2=parse_signed_grid(text["table2.txt"], "table2.txt", "e"),
        eq2=parse_term_lines(text["eq2_sigma.txt"], "eq2_sigma.txt"),
        eq6=parse_form_matrix(text["eq6_X.txt"], "eq6_X.txt"),
        eq12_const=eq12_const,
        eq12_theta=eq12_theta,
        eq13=parse_form_matrix(text["eq13_delta.txt"], "eq13_delta.txt"),
        eq14=parse_map_lines(text["eq14_map.txt"], "eq14_map.txt"),
        eq21_y1=(y1 := parse_form_matrix(text["eq21_Y1.txt"],
                                         "eq21_Y1.txt")),
        eq21_y2=(y2 := parse_form_matrix(text["eq21_Y2.txt"],
                                         "eq21_Y2.txt")),
        eq21_y_terms=tuple(tuple((complex(e.constant), tuple(
            (a, complex(c)) for a, c in enumerate(e.coeffs[1:]) if c))
            for e in row) for row in (y1 + y2).rows),
        eq23_c=parse_form_matrix(text["eq23_C.txt"], "eq23_C.txt", size=4),
        eq24_d=parse_form_matrix(text["eq24_D.txt"], "eq24_D.txt", size=4),
        digests={},
    )
