"""Loaders for the bundled transcription fixtures.

The files under ``data/`` are verbatim transcriptions of the reference
tables and displayed matrices that this package re-derives; one table,
``_READERS``, names each file once with its reader.  Parsers validate
shape and token grammar but never repair contents — any oddity in a
transcription is exactly what the claim checkers are meant to surface,
so "fixing" it here would defeat the point.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .exact import ScalarParseError
from .matrices import SquareMatrix
from .symbolic import parse_linear_form, parse_theta_affine

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


def parse_signed_grid(text: str, filename: str, label: str) -> tuple:
    """8x8 grid of tokens like ``e3`` / ``-E5`` with basis letter *label*,
    as a signed table: 8 rows of 8 (sign, k) cells."""
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
    return tuple(rows)


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

# load_fixtures() reads and digests the whole set, load_files() the files
# it is given, and load_y_terms() the two Y files; each passes over its
# files in this order: read (a missing file is named), decode, parse.
_READERS = {
    "eq2_sigma.txt": parse_term_lines,
    "eq6_X.txt": parse_form_matrix,
    "eq12_R12.txt": parse_theta_grid,
    "eq13_delta.txt": parse_form_matrix,
    "eq14_map.txt": parse_map_lines,
    "eq21_Y1.txt": parse_form_matrix,
    "eq21_Y2.txt": parse_form_matrix,
    "eq23_C.txt": functools.partial(parse_form_matrix, size=4),
    "eq24_D.txt": functools.partial(parse_form_matrix, size=4),
    "table1.txt": functools.partial(parse_signed_grid, label="E"),
    "table2.txt": functools.partial(parse_signed_grid, label="e"),
}
FIXTURE_FILES = tuple(_READERS)
_Y_FILES = ("eq21_Y1.txt", "eq21_Y2.txt")


class FixtureStore(NamedTuple):
    """Every bundled fixture, parsed, plus a sha256 digest per file."""
    table1: tuple          # 8x8 (sign, k) cells, as matrices.signed_table
    table2: tuple
    eq2: dict              # same shape as matrices.SIGMA_TERMS
    eq6: SquareMatrix      # 8x8 linear forms
    eq12_const: SquareMatrix
    eq12_theta: SquareMatrix
    eq13: SquareMatrix     # 8x8 linear forms
    eq14: tuple            # 8 linear forms, the per-component flow
    eq21_y1: SquareMatrix
    eq21_y2: SquareMatrix
    eq23_c: SquareMatrix   # 4x4
    eq24_d: SquareMatrix   # 4x4
    digests: dict          # filename -> sha256 hex


@functools.cache
def _sha256():
    """The interpreter's own SHA-256 constructor, imported on first use:
    _sha2 from Python 3.12, _sha256 before it.  hashlib maps OpenSSL's
    libcrypto (3.7 MB of peak RSS on CPython 3.11, Linux x86-64), so
    its constructor serves only a build that ships neither, such as a
    FIPS one."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def sha256_hex(data: bytes) -> str:
    """The sha256 hex digest of data, as hashlib.sha256 gives it."""
    return _sha256()(data).hexdigest()


def _read_raw(directory: Optional[str], names=FIXTURE_FILES) -> tuple:
    """The bytes of the named fixture files, from *directory* or from
    the bundled package data when *directory* is None."""
    root = (resources.files("octo_so8") / "data" if directory is None
            else Path(directory))
    if not root.is_dir():
        raise FixtureError(f"fixture directory not found: {root}")
    raw = []
    for name in names:
        try:
            raw.append((root / name).read_bytes())
        except (FileNotFoundError, IsADirectoryError):
            raise FixtureError(
                f"missing fixture file: {root / name}") from None
    return tuple(raw)


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
    eq2 dicts.  verify is the one command that calls it; the others
    read through load_files or load_y_terms."""
    raw = _read_raw(directory)
    (eq2, eq6, (eq12_const, eq12_theta), eq13, eq14, y1, y2, eq23_c, eq24_d,
     table1, table2) = _parse(FIXTURE_FILES, raw)
    return FixtureStore(
        table1=table1, table2=table2, eq2=dict(eq2), eq6=eq6, eq13=eq13,
        eq14=eq14, eq12_const=eq12_const, eq12_theta=eq12_theta,
        eq21_y1=y1, eq21_y2=y2, eq23_c=eq23_c, eq24_d=eq24_d,
        digests={name: sha256_hex(data)
                 for name, data in zip(FIXTURE_FILES, raw)})


def load_files(names: tuple, directory: Optional[str] = None) -> tuple:
    """The named fixture files alone, parsed in order, with
    load_fixtures' passes, messages and parse memo; no other file is
    read, and none is digested."""
    return _parse(names, _read_raw(directory, names))


def load_y_terms(directory: Optional[str] = None) -> tuple:
    """The cells of Y = Y1 + Y2 as (const, ((a, c_(a+1)), ...)), c != 0,
    in complex, for rotations.substitute_terms: eq21_Y1.txt and
    eq21_Y2.txt alone, as load_files reads them."""
    return _y_terms(_read_raw(directory, _Y_FILES))


@functools.lru_cache(maxsize=8)
def _parse(names: tuple, raw: tuple) -> tuple:
    """The named files' bytes all decoded, then each read by its
    reader."""
    text = [_decode(name, data) for name, data in zip(names, raw)]
    return tuple(_READERS[name](t, name) for name, t in zip(names, text))


@functools.lru_cache(maxsize=4)
def _y_terms(raw: tuple) -> tuple:
    y1, y2 = _parse(_Y_FILES, raw)
    return tuple(tuple((complex(e.constant), tuple(
        (a, complex(c)) for a, c in enumerate(e.coeffs[1:]) if c))
        for e in row) for row in (y1 + y2).rows)
