"""Dense square matrices, 3-qubit Pauli codes, and the eight 8x8
generators.

``SquareMatrix`` is entry-type agnostic: anything supporting +, -, *,
unary -, ==, ``conj()`` and ``is_zero()`` works.  A matrix holds
CRational scalars or LinearForms, never both; a scalar times a
LinearForm is a LinearForm.

``Pauli`` is the code (x, z, q) of i**q X^x Z^z on three qubits.  Every
generator is a Hermitian Pauli string, so every product of generators
is a code too, and the generator algebra runs on bit operations.

On top of them: the two transcribed variants of the eight generator
matrices (beta_1..beta_8), the sigma one read from its matrix units and
the tensor one built from its sigma (x) Dirac factors, their Gram
matrix, the derived E-matrix family, and signed multiplication tables
with a diff operation.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, NamedTuple, Sequence

from .exact import ZERO as _ZERO, CRational

_ONE = CRational(1)


class SquareMatrix:
    """Immutable n x n matrix over exact entries."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *_):
        raise AttributeError("SquareMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)]
                    for i in range(n)])

    def at(self, i: int, j: int):
        """0-indexed entry access."""
        return self.rows[i][j]

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return SquareMatrix([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return SquareMatrix([[a - b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return self.map(lambda e: -e)

    def __matmul__(self, other):
        if not isinstance(other, SquareMatrix) or other.n != self.n:
            return NotImplemented
        n = self.n
        cols = list(zip(*other.rows))
        return SquareMatrix(
            [[functools.reduce(lambda s, t: s + t,
                               (ra[k] * cb[k] for k in range(n)))
              for cb in cols] for ra in self.rows])

    def scale(self, scalar) -> "SquareMatrix":
        return self.map(lambda e: scalar * e)

    def map(self, fn: Callable) -> "SquareMatrix":
        return SquareMatrix([[fn(e) for e in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def block(self, bi: int, bj: int, size: int) -> "SquareMatrix":
        """size x size sub-block at block coordinates (bi, bj)."""
        r0, c0 = bi * size, bj * size
        return SquareMatrix([[self.rows[r0 + i][c0 + j] for j in range(size)]
                             for i in range(size)])

    def nonzero_cells(self):
        """(row, col, entry) for nonzero entries, 1-indexed, row-major."""
        out = []
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if not e.is_zero():
                    out.append((i + 1, j + 1, e))
        return out

    def render(self):
        return [[str(e) for e in row] for row in self.rows]

    def __repr__(self):
        return f"SquareMatrix({self.n}x{self.n})"


def from_blocks(tl: SquareMatrix, tr: SquareMatrix,
                bl: SquareMatrix, br: SquareMatrix) -> SquareMatrix:
    return SquareMatrix([a + b for left, right in ((tl, tr), (bl, br))
                         for a, b in zip(left.rows, right.rows)])


def diff_cells(a, b):
    """1-indexed cells where two matrices, each a SquareMatrix or a
    Pauli code, differ, with both renderings."""
    return [{"row": i, "col": j, "left": str(u), "right": str(v)}
            for i, (ra, rb) in enumerate(zip(a.rows, b.rows), start=1)
            for j, (u, v) in enumerate(zip(ra, rb), start=1) if not u == v]


# ---------------------------------------------------------------------------
# 3-qubit Pauli codes

# i**q for q = 0..3
PHASES = (_ONE, CRational(0, 1), CRational(-1), CRational(0, -1))


class Pauli(NamedTuple):
    """i**q X^x Z^z on three qubits, an 8x8 matrix in the binary
    symplectic form (Aaronson and Gottesman 2004); the first tensor
    factor is the high bit of x and z.  Row r holds its one nonzero
    entry, i**q (-1)**popcount(z & c), in column c = r ^ x.  Products,
    negation, commutation, traces and Hermiticity (q + popcount(x & z)
    even, and then the code squares to I) are bit operations on small
    ints; ``monomial_sum`` turns a linear combination into a dense matrix.
    """
    x: int
    z: int
    q: int = 0       # mod 4

    n = 8            # the matrix size, as SquareMatrix.n; not a field

    @classmethod
    def from_signed_permutation(cls, rows: Sequence[tuple]) -> "Pauli":
        """The code of the 8x8 matrix whose row r holds i**q in column c
        for (c, q) = rows[r]; ValueError unless that matrix is a code.
        x is row 0's column, q row x's phase, and z is read off the rows
        whose column is a single bit."""
        x = rows[0][0]
        q = rows[x][1] % 4
        z = sum((rows[x ^ b][1] - q) % 4 // 2 * b for b in (1, 2, 4))
        if [cls(x, z, q).cell(r) for r in range(8)] != \
                [(c, p % 4) for c, p in rows]:
            raise ValueError("signed permutation is not a Pauli string")
        return cls(x, z, q)

    def cell(self, r: int) -> tuple:
        """(column, phase exponent) of row r's nonzero entry."""
        c = r ^ self.x
        return c, (self.q + 2 * (self.z & c).bit_count()) % 4

    def at(self, i: int, j: int) -> CRational:
        """0-indexed entry access."""
        c, q = self.cell(i)
        return PHASES[q] if c == j else _ZERO

    @property
    def rows(self) -> list:
        """The dense rows, as SquareMatrix.rows; each row's cell is read
        once."""
        return [[PHASES[q] if j == c else _ZERO for j in range(8)]
                for c, q in map(self.cell, range(8))]

    # products build with tuple.__new__: NamedTuple's __new__ is Python
    def __matmul__(self, other):
        if not isinstance(other, Pauli):
            return NotImplemented
        return tuple.__new__(Pauli, (
            self.x ^ other.x, self.z ^ other.z,
            (self.q + other.q + 2 * (self.z & other.x).bit_count()) % 4))

    def __neg__(self) -> "Pauli":
        return tuple.__new__(Pauli, (self.x, self.z, (self.q + 2) % 4))

    def commutes(self, other: "Pauli") -> bool:
        return ((self.x & other.z).bit_count()
                + (self.z & other.x).bit_count()) % 2 == 0

    def hermitian(self) -> bool:
        return (self.q + (self.x & self.z).bit_count()) % 2 == 0

    def trace(self) -> CRational:
        return _ZERO if self.x or self.z else 8 * PHASES[self.q]

    render = SquareMatrix.render


def monomial_sum(terms, zero) -> SquareMatrix:
    """sum c * M over the (c, M) pairs of terms, Pauli codes M, as a
    dense 8x8 matrix: each c, a CRational or a LinearForm, lands on M's
    cells scaled by their phases, each i**q c computed once.  zero, of
    the terms' type, fills the cells no term reaches; a cell that still
    holds it takes its first term as it is, and later terms add to it."""
    rows = [[zero] * 8 for _ in range(8)]
    for c, m in terms:
        scaled = [p * c for p in PHASES]
        for r, (col, q) in enumerate(map(m.cell, range(8))):
            cell = rows[r][col]
            rows[r][col] = scaled[q] if cell is zero else cell + scaled[q]
    return SquareMatrix(rows)


# ---------------------------------------------------------------------------
# the eight generator matrices, in both transcribed variants
#
# SIGMA_TERMS[A] = (prefactor_is_i, ((sign, m, n), ...)) gives
# beta_A = pref * sum sign * E_mn, with E_mn the (m, n) matrix unit.
# TENSOR_ASSIGNMENTS[A] gives the sigma (x) Dirac reading of the same
# lines.  The two variants are kept independent so they can be diffed
# against each other.

SIGMA_TERMS = {
    1: (True, ((+1, 3, 6), (+1, 4, 5), (+1, 7, 2), (+1, 8, 1),
               (-1, 1, 8), (-1, 2, 7), (-1, 5, 4), (-1, 6, 3))),
    2: (True, ((+1, 3, 2), (+1, 4, 1), (+1, 5, 8), (+1, 6, 7),
               (-1, 1, 4), (-1, 2, 3), (-1, 7, 6), (-1, 8, 5))),
    3: (False, ((+1, 2, 8), (+1, 8, 2), (+1, 3, 5), (+1, 5, 3),
                (-1, 6, 4), (-1, 4, 6), (-1, 7, 1), (-1, 1, 7))),
    4: (False, ((+1, 2, 3), (+1, 3, 2), (+1, 5, 8), (+1, 8, 5),
                (-1, 1, 4), (-1, 4, 1), (-1, 6, 7), (-1, 7, 6))),
    5: (True, ((+1, 2, 8), (+1, 3, 5), (+1, 6, 4), (+1, 7, 1),
               (-1, 1, 7), (-1, 4, 6), (-1, 5, 3), (-1, 8, 2))),
    6: (True, ((+1, 2, 4), (+1, 3, 1), (+1, 5, 7), (+1, 8, 6),
               (-1, 1, 3), (-1, 4, 2), (-1, 6, 8), (-1, 7, 5))),
    7: (False, ((+1, 1, 5), (+1, 2, 6), (+1, 5, 1), (+1, 6, 2),
                (-1, 3, 7), (-1, 4, 8), (-1, 7, 3), (-1, 8, 4))),
    8: (False, ((+1, 1, 1), (+1, 2, 2), (+1, 7, 7), (+1, 8, 8),
                (-1, 3, 3), (-1, 4, 4), (-1, 5, 5), (-1, 6, 6))),
}

# (sigma index p, Dirac index g) per generator; index 8 repeats (1, 1) --
# that is a faithful transcription, not a typo to repair.
TENSOR_ASSIGNMENTS = {
    1: (1, 1), 2: (3, 1), 3: (2, 3), 4: (3, 2),
    5: (1, 3), 6: (3, 3), 7: (1, 4), 8: (1, 1),
}


def beta_sigma_expansion(a: int) -> Pauli:
    """Generator beta_a from its matrix-unit expansion."""
    pref_i, terms = SIGMA_TERMS[a]
    cells = {m - 1: (n - 1, (sign < 0) * 2 + pref_i) for sign, m, n in terms}
    return Pauli.from_signed_permutation([cells[r] for r in range(8)])


# (x, z, q) of I and the standard sigma_1, sigma_2 = i sigma_1 sigma_3,
# sigma_3 on one qubit
_SIGMA = ((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0))


def beta_tensor_text(a: int) -> Pauli:
    """Generator beta_a from its sigma_p (x) Dirac_g tensor reading,
    with Dirac_g = sigma_2 (x) sigma_g for g = 1..3, the off-diagonal
    block form [[0, -i sigma_g], [i sigma_g, 0]], and Dirac_4 =
    sigma_3 (x) I = diag(I2, -I2)."""
    p, g = TENSOR_ASSIGNMENTS[a]
    x = z = q = 0
    for j in (p, 2, g) if g < 4 else (p, 3, 0):
        dx, dz, dq = _SIGMA[j]
        x, z, q = 2 * x + dx, 2 * z + dz, q + dq
    return Pauli(x, z, q % 4)


class BetaSet(NamedTuple):
    """One of the two generator variants; mats are beta_1..beta_8."""
    variant: str            # "sigma" | "tensor"
    mats: tuple

    def beta(self, a: int) -> Pauli:
        return self.mats[a - 1]


_CACHE: dict = {}


def beta_set(variant: str = "sigma") -> BetaSet:
    if variant not in ("sigma", "tensor"):
        raise ValueError(f"unknown beta variant {variant!r}")
    if variant not in _CACHE:
        builder = (beta_sigma_expansion if variant == "sigma"
                   else beta_tensor_text)
        _CACHE[variant] = BetaSet(variant,
                                  tuple(builder(a) for a in range(1, 9)))
    return _CACHE[variant]


def gram(bs: BetaSet) -> SquareMatrix:
    """G[A][B] = Tr(beta_A beta_B); 8*I for the sigma variant."""
    return SquareMatrix([[(a @ b).trace() for b in bs.mats] for a in bs.mats])


@functools.lru_cache(maxsize=8)
def gram_fault(bs: BetaSet):
    """None when gram(bs) is 8*I, else "singular" when two codes share
    (x, z), the only way Tr(beta_A beta_B) leaves the diagonal, or "not
    8I" when one is not Hermitian, so squares to -I; read off the codes."""
    if len({(b.x, b.z) for b in bs.mats}) < 8:
        return "singular"
    return None if all(b.hermitian() for b in bs.mats) else "not 8I"


def anticommutator_audit(bs: BetaSet):
    """Pairs (A, B), A<B, whose generators anticommute (1-indexed)."""
    return [(a + 1, b + 1) for a in range(8) for b in range(a + 1, 8)
            if not bs.mats[a].commutes(bs.mats[b])]


# ---------------------------------------------------------------------------
# E-matrix family
#
# E_DEFS[k] lists the generator indices whose product defines E_k, plus
# the alternate product expressions recorded alongside the definitions.

E_DEFS = {
    0: (),
    1: (1, 5),
    2: (1, 7),
    3: (7, 5),
    4: (7,),
    5: (5,),
    6: (1,),
    7: (7, 5, 1),
}

E_ALTERNATES = {
    1: ((2, 6),),
    2: ((2, 8),),
    3: ((8, 6),),
    7: ((8, 6, 1),),
}


def _beta_product(bs: BetaSet, idxs) -> Pauli:
    return functools.reduce(operator.matmul, map(bs.beta, idxs), Pauli(0, 0))


def build_E(bs: BetaSet) -> tuple:
    """E_0 .. E_7."""
    return tuple(_beta_product(bs, E_DEFS[k]) for k in range(8))


def audit_E_alternates(bs: BetaSet, ems: tuple):
    """Check every alternate product against its primary definition."""
    records = []
    for k in sorted(E_ALTERNATES):
        for alt in E_ALTERNATES[k]:
            m = _beta_product(bs, alt)
            records.append({
                "e_index": k,
                "primary": "*".join(f"beta{a}" for a in E_DEFS[k]),
                "alternate": "*".join(f"beta{a}" for a in alt),
                "equal": m == ems[k],
            })
    # E_7 also factors through E_3 * E_6
    records.append({
        "e_index": 7,
        "primary": "*".join(f"beta{a}" for a in E_DEFS[7]),
        "alternate": "E3*E6",
        "equal": (ems[3] @ ems[6]) == ems[7],
    })
    return records


# ---------------------------------------------------------------------------
# signed multiplication tables: 8 rows of 8 (sign, k) cells, the product
# sign * basis_k; None marks a product that is not +/- a basis element

def render_table(table: tuple, prefix: str):
    """The cells as tokens like ``e3`` / ``-E5``, ``?`` for None."""
    def tok(c):
        if c is None:
            return "?"
        sign, k = c
        return ("-" if sign < 0 else "") + f"{prefix}{k}"
    return [[tok(c) for c in row] for row in table]


def signed_table(ems: tuple) -> tuple:
    """Multiplication table of the E family, matched against +/-E_k
    (the first match in the order +E_0, -E_0, +E_1, ...)."""
    lookup: dict = {}
    for k, e in enumerate(ems):
        lookup.setdefault(e, (1, k))
        lookup.setdefault(-e, (-1, k))
    return tuple(tuple(lookup.get(a @ b) for b in ems) for a in ems)


def _cell_token(c) -> str:
    if c is None:
        return "?"
    return ("+" if c[0] > 0 else "-") + str(c[1])


def compare_tables(left: tuple, right: tuple) -> dict:
    """{"counts", "cells"}: the number of identical, sign-flipped and
    structurally different cells, and a {"row", "col", "left", "right",
    "kind"} dict for each non-identical cell, row-major, 0-indexed."""
    counts = {"identical": 0, "sign_flipped": 0, "structurally_different": 0}
    cells = []
    for i in range(8):
        for j in range(8):
            a, b = left[i][j], right[i][j]
            if a == b and a is not None:
                counts["identical"] += 1
                continue
            if (a is not None and b is not None
                    and a[1] == b[1] and a[0] == -b[0]):
                counts["sign_flipped"] += 1
                kind = "sign-flipped"
            else:
                counts["structurally_different"] += 1
                kind = "structurally-different"
            cells.append({"row": i, "col": j, "left": _cell_token(a),
                          "right": _cell_token(b), "kind": kind})
    return {"counts": counts, "cells": cells}
