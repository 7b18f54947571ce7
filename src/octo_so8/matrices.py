"""Dense and monomial square matrices, and the eight 8x8 generators.

``SquareMatrix`` is entry-type agnostic: anything supporting +, -, *,
unary -, ==, ``conj()`` and ``is_zero()`` works.  A matrix holds
CRational scalars or LinearForms, never both; a scalar times a
LinearForm is a LinearForm.

``Monomial`` is a signed permutation matrix with phases in {1, i, -1,
-i}.  Every generator is one, and so is every product of generators, so
the generator algebra runs on permutations and phases mod 4.

On top of them: Pauli and Dirac 4x4 matrices, Kronecker products, the
two transcribed variants of the eight generator matrices
(beta_1..beta_8), their Gram matrix, the derived E-matrix family, and
signed multiplication tables with a diff operation.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Sequence

from .exact import CRational

_ZERO, _ONE = CRational(0), CRational(1)


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

    @classmethod
    def zeros(cls, n: int) -> "SquareMatrix":
        return cls([[_ZERO] * n for _ in range(n)])

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

    def conj_transpose(self) -> "SquareMatrix":
        return SquareMatrix([[self.rows[j][i].conj() for j in range(self.n)]
                             for i in range(self.n)])

    def trace(self):
        return functools.reduce(lambda s, t: s + t,
                                (self.rows[i][i] for i in range(self.n)))

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

    def is_hermitian(self) -> bool:
        return self == self.conj_transpose()

    def is_traceless(self) -> bool:
        return self.trace().is_zero()

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

    def render(self, entry_renderer: Callable = str):
        return [[entry_renderer(e) for e in row] for row in self.rows]

    def __repr__(self):
        return f"SquareMatrix({self.n}x{self.n})"


def from_blocks(tl: SquareMatrix, tr: SquareMatrix,
                bl: SquareMatrix, br: SquareMatrix) -> SquareMatrix:
    n = tl.n
    rows = []
    for i in range(n):
        rows.append(list(tl.rows[i]) + list(tr.rows[i]))
    for i in range(n):
        rows.append(list(bl.rows[i]) + list(br.rows[i]))
    return SquareMatrix(rows)


def diff_cells(a: SquareMatrix, b: SquareMatrix, renderer: Callable = str):
    """1-indexed cells where the matrices differ, with both renderings."""
    out = []
    for i in range(a.n):
        for j in range(a.n):
            if not a.at(i, j) == b.at(i, j):
                out.append({"row": i + 1, "col": j + 1,
                            "left": renderer(a.at(i, j)),
                            "right": renderer(b.at(i, j))})
    return out


# ---------------------------------------------------------------------------
# monomial matrices

# i**q for q = 0..3
_PHASES = (_ONE, CRational(0, 1), CRational(-1), CRational(0, -1))


class Monomial:
    """Immutable n x n matrix with one nonzero entry per row and per
    column: row r holds i**phase[r] in column perm[r].

    A product of two is a composed permutation with added phases, O(n)
    integer operations; ``@`` takes only another Monomial of the same
    size.  ``==`` against a SquareMatrix compares entries, and
    ``monomial_sum`` turns a linear combination of Monomials into a
    dense matrix.
    """

    __slots__ = ("perm", "phase", "n")

    def __init__(self, perm: Sequence[int], phase: Sequence[int]):
        perm, phase = tuple(perm), tuple(q % 4 for q in phase)
        if sorted(perm) != list(range(len(perm))) or len(phase) != len(perm):
            raise ValueError("monomial needs a permutation and one phase per row")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "n", len(perm))

    def __setattr__(self, *_):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def identity(cls, n: int) -> "Monomial":
        return cls(range(n), (0,) * n)

    def at(self, i: int, j: int) -> CRational:
        """0-indexed entry access."""
        return _PHASES[self.phase[i]] if self.perm[i] == j else _ZERO

    def __matmul__(self, other):
        if isinstance(other, Monomial) and other.n == self.n:
            return Monomial([other.perm[p] for p in self.perm],
                            [q + other.phase[p]
                             for p, q in zip(self.perm, self.phase)])
        return NotImplemented

    def __neg__(self) -> "Monomial":
        return Monomial(self.perm, [q + 2 for q in self.phase])

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self.perm == other.perm and self.phase == other.phase
        if isinstance(other, SquareMatrix):
            return self.to_dense() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.perm, self.phase))

    def trace(self) -> CRational:
        return sum((_PHASES[q] for r, (c, q) in
                    enumerate(zip(self.perm, self.phase)) if r == c), _ZERO)

    def to_dense(self) -> SquareMatrix:
        return SquareMatrix([[self.at(i, j) for j in range(self.n)]
                             for i in range(self.n)])

    def render(self, entry_renderer: Callable = str):
        return self.to_dense().render(entry_renderer)

    def __repr__(self):
        return f"Monomial(perm={self.perm}, phase={self.phase})"


def monomial_sum(terms, zero) -> SquareMatrix:
    """sum c * M over the (c, M) pairs of terms, 8x8 Monomials M, as a
    dense 8x8 matrix: each c, a CRational or a LinearForm, lands on M's
    cells scaled by their phases.  zero fills the cells no term reaches
    and is the start of every sum, so the entries keep its type."""
    rows = [[zero] * 8 for _ in range(8)]
    for c, m in terms:
        for r, (col, q) in enumerate(zip(m.perm, m.phase)):
            rows[r][col] = rows[r][col] + _PHASES[q] * c
    return SquareMatrix(rows)


# ---------------------------------------------------------------------------
# Pauli / Dirac building blocks

# (perm, phase) of each Pauli matrix, standard convention
_PAULI = {1: ((1, 0), (0, 0)), 2: ((1, 0), (3, 1)), 3: ((0, 1), (0, 2))}


def pauli(j: int) -> Monomial:
    """2x2 Pauli matrix, standard convention, 1-indexed."""
    if j not in _PAULI:
        raise ValueError(f"pauli index {j} out of range 1..3")
    return Monomial(*_PAULI[j])


def gamma(j: int) -> Monomial:
    """4x4 Dirac matrix: for j in 1..3 the off-diagonal block form
    [[0, -i*sigma_j], [i*sigma_j, 0]] = sigma_2 (x) sigma_j;
    gamma(4) = diag(I2, -I2) = sigma_3 (x) I2."""
    if j in (1, 2, 3):
        return kron(pauli(2), pauli(j))
    if j == 4:
        return kron(pauli(3), Monomial.identity(2))
    raise ValueError(f"gamma index {j} out of range 1..4")


def kron(a: Monomial, b: Monomial) -> Monomial:
    """Kronecker product; a's indices select the coarse blocks."""
    return Monomial([pa * b.n + pb for pa in a.perm for pb in b.perm],
                    [qa + qb for qa in a.phase for qb in b.phase])


# ---------------------------------------------------------------------------
# the eight generator matrices, in both transcribed variants
#
# SIGMA_TERMS[A] = (prefactor_is_i, ((sign, m, n), ...)) gives
# beta_A = pref * sum sign * E_mn, with E_mn the (m, n) matrix unit.
# TENSOR_ASSIGNMENTS[A] gives the sigma (x) gamma reading of the same
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

# (pauli_index, gamma_index) per generator; index 8 repeats (1, 1) --
# that is a faithful transcription, not a typo to repair.
TENSOR_ASSIGNMENTS = {
    1: (1, 1), 2: (3, 1), 3: (2, 3), 4: (3, 2),
    5: (1, 3), 6: (3, 3), 7: (1, 4), 8: (1, 1),
}


def beta_sigma_expansion(a: int) -> Monomial:
    """Generator beta_a from its matrix-unit expansion."""
    pref_i, terms = SIGMA_TERMS[a]
    cells = {m - 1: (n - 1, (sign < 0) * 2 + pref_i) for sign, m, n in terms}
    return Monomial([cells[r][0] for r in range(8)],
                    [cells[r][1] for r in range(8)])


def beta_tensor_text(a: int) -> Monomial:
    """Generator beta_a from its sigma (x) gamma tensor reading."""
    p, g = TENSOR_ASSIGNMENTS[a]
    return kron(pauli(p), gamma(g))


class BetaSet(NamedTuple):
    """One of the two generator variants; mats are beta_1..beta_8."""
    variant: str            # "sigma" | "tensor"
    mats: tuple

    def beta(self, a: int) -> Monomial:
        return self.mats[a - 1]


_CACHE: dict = {}


def beta_set(variant: str = "sigma") -> BetaSet:
    if variant not in ("sigma", "tensor"):
        raise ValueError(f"unknown beta variant {variant!r}")
    if variant not in _CACHE:
        builder = beta_sigma_expansion if variant == "sigma" else beta_tensor_text
        _CACHE[variant] = BetaSet(variant, tuple(builder(a) for a in range(1, 9)))
    return _CACHE[variant]


def gram(bs: BetaSet) -> SquareMatrix:
    """G[A][B] = Tr(beta_A beta_B); 8*I for the sigma variant."""
    return SquareMatrix([[(bs.mats[a] @ bs.mats[b]).trace() for b in range(8)]
                         for a in range(8)])


def anticommutator_audit(bs: BetaSet):
    """Pairs (A, B), A<B, whose generators anticommute (1-indexed)."""
    out = []
    for a in range(8):
        for b in range(a + 1, 8):
            if bs.mats[a] @ bs.mats[b] == -(bs.mats[b] @ bs.mats[a]):
                out.append((a + 1, b + 1))
    return out


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


def _beta_product(bs: BetaSet, idxs) -> Monomial:
    acc = Monomial.identity(8)
    for a in idxs:
        acc = acc @ bs.beta(a)
    return acc


class EMatrixSet(NamedTuple):
    variant: str
    mats: tuple   # E_0 .. E_7

    def e(self, k: int) -> Monomial:
        return self.mats[k]


def build_E(bs: BetaSet) -> EMatrixSet:
    return EMatrixSet(bs.variant,
                      tuple(_beta_product(bs, E_DEFS[k]) for k in range(8)))


def audit_E_alternates(bs: BetaSet, ems: EMatrixSet):
    """Check every alternate product against its primary definition."""
    records = []
    for k in sorted(E_ALTERNATES):
        for alt in E_ALTERNATES[k]:
            m = _beta_product(bs, alt)
            records.append({
                "e_index": k,
                "primary": "*".join(f"beta{a}" for a in E_DEFS[k]),
                "alternate": "*".join(f"beta{a}" for a in alt),
                "equal": m == ems.mats[k],
            })
    # E_7 also factors through E_3 * E_6
    records.append({
        "e_index": 7,
        "primary": "*".join(f"beta{a}" for a in E_DEFS[7]),
        "alternate": "E3*E6",
        "equal": (ems.mats[3] @ ems.mats[6]) == ems.mats[7],
    })
    return records


# ---------------------------------------------------------------------------
# signed multiplication tables

class SignedTable(NamedTuple):
    """8x8 grid of (sign, basis_index) cells; None marks a product that
    is not +/- a basis element."""
    cells: tuple   # 8 rows of 8 cells

    def cell(self, i: int, j: int):
        return self.cells[i][j]

    def render(self, prefix: str):
        def tok(c):
            if c is None:
                return "?"
            sign, k = c
            return ("-" if sign < 0 else "") + f"{prefix}{k}"
        return [[tok(c) for c in row] for row in self.cells]


def signed_table(ems: EMatrixSet) -> SignedTable:
    """Multiplication table of the E family, matched against +/-E_k
    (the first match in the order +E_0, -E_0, +E_1, ...)."""
    lookup: dict = {}
    for k, e in enumerate(ems.mats):
        lookup.setdefault(e, (1, k))
        lookup.setdefault(-e, (-1, k))
    return SignedTable(tuple(tuple(lookup.get(a @ b) for b in ems.mats)
                             for a in ems.mats))


class TableDiff(NamedTuple):
    identical: int
    sign_flipped: int
    structurally_different: int
    cells: tuple   # non-identical cells, row-major

    def counts(self):
        return {"identical": self.identical,
                "sign_flipped": self.sign_flipped,
                "structurally_different": self.structurally_different}


def _cell_token(c) -> str:
    if c is None:
        return "?"
    return ("+" if c[0] > 0 else "-") + str(c[1])


def compare_tables(left: SignedTable, right: SignedTable) -> TableDiff:
    identical = flipped = different = 0
    cells = []
    for i in range(8):
        for j in range(8):
            a, b = left.cell(i, j), right.cell(i, j)
            if a == b and a is not None:
                identical += 1
                continue
            if (a is not None and b is not None
                    and a[1] == b[1] and a[0] == -b[0]):
                flipped += 1
                kind = "sign-flipped"
            else:
                different += 1
                kind = "structurally-different"
            cells.append({"row": i, "col": j, "left": _cell_token(a),
                          "right": _cell_token(b), "kind": kind})
    return TableDiff(identical, flipped, different, tuple(cells))
