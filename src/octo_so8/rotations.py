"""SO(8) rotation machinery over the generator matrices.

The symbolic object of interest is X = sum_A f_A beta_A, an 8x8 matrix
of linear forms.  Rotations act by conjugation with R_kl = I + theta *
N, where N = beta_k beta_l is a signed permutation (a ``Monomial``)
with N^2 = s*I, s = +1 or -1, for every plane of both readings.  N
commutes or anticommutes with each beta_B, so [N, beta_B] is 0 or the
single monomial 2 N beta_B, and the rotations act on the components
f_A through a lookup of N beta_B in the generator table, with no dense
conjugation or trace projection.  The module provides the first-order
map and the exact rotation of f, at the f symbols or at exact f, the
symbolic X, the duplicate-plane scan, and the numeric matrix
exponential used for spinor transport.

Only the numeric section uses floats.  It works on plain lists of
rows of Python ``complex``, 8x8 throughout, so no command needs numpy.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from .exact import CRational
from .matrices import (BetaSet, Monomial, SquareMatrix, beta_set, gram,
                       monomial_sum)
from .octonion import Octonion
from .symbolic import LinearForm


class StructureMismatch(ValueError):
    """Block structure of a symbolic matrix is not the expected compact
    form; carries the offending 1-indexed cells."""

    def __init__(self, message, cells):
        super().__init__(message)
        self.cells = cells


class SingularRotation(ValueError):
    """A matrix to be inverted is singular: a rotation operator
    I + theta N, or the input of invert_exact."""


class DegenerateBasis(ValueError):
    """Component extraction attempted against a singular Gram matrix."""


class NonFiniteInput(ValueError):
    """Numeric path fed NaN or infinity."""


class ToleranceNotMet(ArithmeticError):
    """No tabulated Taylor degree meets the requested tolerance."""


# ---------------------------------------------------------------------------
# symbolic assembly

SYMBOLS = tuple(LinearForm.symbol(a) for a in range(1, 9))
ZERO_FORM = LinearForm([0] * 9)


def assemble_X(betas: Optional[BetaSet] = None) -> SquareMatrix:
    """X = sum_A f_A beta_A as a matrix of linear forms."""
    return monomial_sum(zip(SYMBOLS, (betas or beta_set()).mats), ZERO_FORM)


class BlockDecomp(NamedTuple):
    """X = [[A, B+], [B, -A]] reading; a and b are the 4x4 form blocks."""
    a: SquareMatrix
    b: SquareMatrix


def block_decompose(x: SquareMatrix) -> BlockDecomp:
    tl, tr = x.block(0, 0, 4), x.block(0, 1, 4)
    bl, br = x.block(1, 0, 4), x.block(1, 1, 4)
    bad = []
    expect_tr = bl.conj_transpose()
    for i in range(4):
        for j in range(4):
            if not tr.at(i, j) == expect_tr.at(i, j):
                bad.append((i + 1, j + 5))
            if not br.at(i, j) == -tl.at(i, j):
                bad.append((i + 5, j + 5))
    if bad:
        raise StructureMismatch("matrix is not in compact block form", bad)
    return BlockDecomp(tl, bl)


# ---------------------------------------------------------------------------
# rotation operators

def plane_product(k: int, l: int, betas: Optional[BetaSet] = None) -> Monomial:
    """beta_k beta_l for a rotation plane (k, l), 1-indexed, k != l."""
    if k == l:
        raise ValueError("rotation plane needs two distinct indices")
    if not (1 <= k <= 8 and 1 <= l <= 8):
        raise ValueError("plane indices out of range 1..8")
    bs = betas or beta_set()
    return bs.beta(k) @ bs.beta(l)


def invert_exact(m: SquareMatrix) -> SquareMatrix:
    """Gauss-Jordan inverse over exact scalar entries.  Rotations and
    component extraction do not need it; the gram-orthogonality claim
    does, for its singular flags."""
    n = m.n
    a = [list(row) + list(unit)
         for row, unit in zip(m.rows, SquareMatrix.identity(n).rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise SingularRotation(f"singular at column {col + 1}")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inv()
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return SquareMatrix([row[n:] for row in a])


def commutator_terms(n: Monomial, f: Sequence,
                     betas: Optional[BetaSet] = None) -> list:
    """[N, X(f)] = sum_B f_B [N, beta_B] as monomial_sum terms
    (2 f_B, N beta_B), one per beta_B that anticommutes with N; the
    others commute with N and drop out."""
    return [(2 * fb, n @ b) for fb, b in zip(f, (betas or beta_set()).mats)
            if n @ b != b @ n]


@functools.lru_cache(maxsize=8)   # once per BetaSet
def _span_table(bs: BetaSet) -> Optional[dict]:
    """i**q beta_A -> (A, i**q), or None when gram(bs) is not 8*I."""
    if gram(bs) != SquareMatrix.identity(8).scale(CRational(8)):
        return None
    return {u @ b: (a, u.at(0, 0))
            for a, b in enumerate(bs.mats)
            for u in (Monomial(range(8), [q] * 8) for q in range(4))}


def extract_components(n: Monomial, f: Sequence,
                       betas: Optional[BetaSet] = None):
    """(lines, residual): [N, X(f)] on the generator span, for a plane
    product N.  A commutator term 2 f_B N beta_B with N beta_B =
    i**q beta_A adds 2 i**q f_B to lines[A]; the other terms sum to the
    residual.  Both keep f's entry type (LinearForm at the f symbols,
    CRational at exact f).  Under the sigma reading, whose Gram matrix
    G[A][B] = Tr(beta_A beta_B) is 8*I, the products outside the span
    have zero trace against every beta_A, so this is the trace
    projection Tr(beta_A [N, X(f)]) / 8.  Under any other G raises
    DegenerateBasis: tensor's G is singular (beta_8 repeats beta_1).
    """
    bs = betas or beta_set()
    table = _span_table(bs)
    if table is None:
        raise DegenerateBasis("generator Gram matrix is singular")
    zero = 0 * f[0]
    lines, outside = [zero] * 8, []
    for c, m in commutator_terms(n, f, bs):
        if m in table:
            a, phase = table[m]
            lines[a] = lines[a] + phase * c
        else:
            outside.append((c, m))
    return tuple(lines), monomial_sum(outside, zero)


def rotate_exact(f: Sequence, k: int, l: int, theta: CRational,
                 betas: Optional[BetaSet] = None, extracted=None):
    """(f', residual): R X(f) R^-1 on the generator span, with
    R = I + theta N and N = beta_k beta_l, N^2 = s*I.  R beta_B R^-1 is
    beta_B where beta_B commutes with N, and else
    ((1 + s theta^2) beta_B + 2 theta N beta_B) / (1 - s theta^2); the
    N beta_B terms are extract_components' lines and residual, or the
    given ComponentMap of this plane at f.  Raises
    DegenerateBasis, as extract_components does, before it looks at
    theta, then SingularRotation, naming the plane and theta, when
    1 - s theta^2 = 0.
    """
    bs = betas or beta_set()
    n = plane_product(k, l, bs)
    lines, residual = extracted or extract_components(n, f, bs)
    det = 1 - (n @ n).at(0, 0) * theta * theta
    if det.is_zero():
        raise SingularRotation(
            f"rotation of plane ({k},{l}) with theta={theta} is singular")
    stretch, step = (2 - det) / det, theta / det    # 2 - det = 1 + s theta^2
    return (tuple((fb if n @ b == b @ n else stretch * fb) + step * d
                  for fb, b, d in zip(f, bs.mats, lines)),
            residual.scale(step))


class ComponentMap(NamedTuple):
    """First-order component flow f_A -> f_A + theta * lines[A]."""
    lines: tuple         # 8 entries of f's type, the theta coefficients
    residual: SquareMatrix   # per-theta residual outside the span


def rotation_component_map(k: int, l: int, betas: Optional[BetaSet] = None,
                           f: Optional[Sequence] = None) -> ComponentMap:
    """extract_components of beta_k beta_l at f, by default at the f
    symbols: the first-order action of the (k, l) rotation."""
    bs = betas or beta_set()
    return ComponentMap(*extract_components(plane_product(k, l, bs),
                                            SYMBOLS if f is None else f, bs))


# ---------------------------------------------------------------------------
# duplicate-plane scan

def duplicate_rotation_scan(betas: Optional[BetaSet] = None):
    """Partition all 28 planes (k < l) by exact equality of
    beta_k beta_l; classes come back sorted by first member."""
    bs = betas or beta_set()
    groups: dict = {}
    order = []
    for k in range(1, 9):
        for l in range(k + 1, 9):
            key = plane_product(k, l, bs)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((k, l))
    return [tuple(groups[key]) for key in order]


# ---------------------------------------------------------------------------
# numeric exponential and spinor transport

def substitute_matrix(x: SquareMatrix, fvals: Sequence) -> SquareMatrix:
    """Evaluate every linear-form entry at f = fvals."""
    return x.map(lambda form: form.substitute(fvals))


# i**q as complex, for q = 0..3
_UNITS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _matmul(a, b, hermitian: bool = False) -> list:
    """a @ b for matrices given as lists of rows of complex.  With
    hermitian=True the product is known to be Hermitian (a and b are
    commuting Hermitian matrices): only the upper triangle is summed,
    the diagonal keeps its real part and the lower triangle mirrors the
    upper one, so the result is exactly Hermitian."""
    cols = list(zip(*b))
    if not hermitian:
        return [[sum(map(mul, row, col), 0j) for col in cols] for row in a]
    n = len(a)
    out = [[0j] * n for _ in range(n)]
    for i, row in enumerate(a):
        out[i][i] = complex(sum(map(mul, row, cols[i]), 0j).real)
        for j in range(i + 1, n):
            out[i][j] = v = sum(map(mul, row, cols[j]), 0j)
            out[j][i] = v.conjugate()
    return out


def _all_finite(m) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag)
               for v in chain.from_iterable(m))


def numeric_X(fvals: Sequence, betas: Optional[BetaSet] = None) -> list:
    """sum_A f_A beta_A as 8 rows of complex; fvals may be floats.

    Each generator adds f_A * i**phase at its cells (r, perm[r]), in A
    order.  For finite f the skipped cells would only add signed zeros
    to a sum that starts at +0, so the matrix is bit-identical to the
    dense sum of f_A times each generator's complex matrix.
    """
    rows = [[0j] * 8 for _ in range(8)]
    for a, b in enumerate((betas or beta_set()).mats):
        z = complex(fvals[a])
        for r, (c, q) in enumerate(zip(b.perm, b.phase)):
            rows[r][c] += z * _UNITS[q]
    return rows


def substitute_terms(terms, fvals: Sequence) -> list:
    """Form cells given as FixtureStore.eq21_y_terms, at finite float f:
    each adds c * f_a, in a order, onto its constant.  A zero c would
    only add signed zeros to a sum that starts at +0 and so is never
    -0, so this equals substituting every coefficient bit for bit."""
    out = []
    for row in terms:
        out.append(vals := [])
        for acc, cell in row:
            for a, c in cell:
                acc += c * fvals[a]
            vals.append(acc)
    return out


DEFAULT_TOL = 2.0 ** -40

# (tol, theta_m per degree of _DEGREES): the largest ||A|| with sum_k
# |c_k| ||A||^(k-1) <= tol over h_(m+1)(x) = log(e^-x T_m(x)) = sum_k
# c_k x^k (Al-Mohy and Higham 2011), rounded down; the tests recompute it
_THETA = ((2.0 ** -40, (0.04051, 0.2401, 0.6193, 1.326, 2.178, 3.359, 4.615)),
          (2.0 ** -53, (0.009065, 0.08957, 0.2996, 0.7802, 1.438, 2.428,
                        3.539)))
# (m, p): T_m from A^2..A^p and m/p - 1 Horner steps in A^p: 3..9 products
_DEGREES = ((6, 3), (9, 3), (12, 4), (16, 4), (20, 5), (25, 5), (30, 6))


def _combine(c0: float, coeffs, mats, start=None) -> list:
    """start + c0*I + sum_j coeffs[j] * mats[j] for real c0 and coeffs
    and rows of complex, entry by entry: Hermitian terms give an exactly
    Hermitian sum."""
    n = len(mats[0])
    acc = list(chain.from_iterable(start or [[0j] * n] * n))
    for c, mat in zip(coeffs, mats):
        acc = list(map(add, acc, map(complex(c).__mul__,
                                     chain.from_iterable(mat))))
    for k in range(0, n * n, n + 1):
        acc[k] += c0
    return [acc[i * n:(i + 1) * n] for i in range(n)]


def matrix_exp(m, tol: float = DEFAULT_TOL) -> list:
    """Scaling-and-squaring Taylor exponential of a square matrix given
    as rows of numbers; returns rows of complex.

    With the theta_m of the largest tabulated tolerance <= tol (2^-40,
    the default, or 2^-53), takes the degree m in {6, ..., 30} and the
    least s >= 0 with ||2^-s A|| <= theta_m (max row sums) that need
    the fewest products, T_m(2^-s A) by Paterson-Stockmeyer plus s
    squarings; ties go to the fewest squarings.  In exact arithmetic
    the result is then e^(A + dA) with ||dA|| <= tol ||A||, a backward
    error (Al-Mohy and Higham 2011).  Rounding adds to that, and the
    squarings amplify it: over 600 seeded generator sums X with |f_A|
    up to about 100 the relative max-entry error against
    scipy.linalg.expm was at most 1e-12.  An exactly Hermitian input
    (every X is one) has every product summed on its upper triangle
    only and mirrored, so e^X comes back exactly Hermitian with a real
    diagonal.  Raises NonFiniteInput when the input or the result holds
    NaN or infinity, or when the norm exceeds 2^1022; ToleranceNotMet
    when tol < 2^-53.
    """
    a = [[complex(v) for v in row] for row in m]
    if not _all_finite(a):
        raise NonFiniteInput("matrix contains NaN or infinity")
    try:
        norm = max((sum(map(abs, row)) for row in a), default=0.0)
    except OverflowError:            # |z| of a finite z can overflow
        norm = math.inf
    if not norm <= 2.0 ** 1022:       # inf included
        raise NonFiniteInput("matrix norm overflows binary64")
    table = next((t for tabled, t in _THETA if tabled <= tol), None)
    if table is None:
        raise ToleranceNotMet("tol below 2^-53, the smallest tolerance "
                              "with a tabulated Taylor degree")
    choices, (x, e) = [], math.frexp(norm)
    for (deg, p), theta in zip(_DEGREES, table):
        y, f = math.frexp(theta)
        s = max(0, e - f + (x > y)) if norm else 0   # exact, no division
        choices.append((p + deg // p - 2 + s, s, deg, p))
    _, s, deg, p = min(choices)   # ties: the fewest squarings
    # every power and product here is a real polynomial in a
    hermitian = all(a[i][j] == a[j][i].conjugate()
                    for i in range(len(a)) for j in range(i, len(a)))
    scale = 2.0 ** -s                 # exact: s < 1030
    powers = [[[v * scale for v in row] for row in a]]   # A, A^2, .., A^p
    for _ in range(p - 1):
        powers.append(_matmul(powers[-1], powers[0], hermitian))
    c = [1 / math.factorial(k) for k in range(deg + 1)]
    # T_m = sum_i B_i (A^p)^i, B_i = sum_(j<p) c_(ip+j) A^j, the last B
    # also taking c_m A^p; Horner in A^p
    result = _combine(c[deg - p], c[deg - p + 1:], powers)
    for i in range(deg - 2 * p, -1, -p):
        result = _combine(c[i], c[i + 1:i + p], powers,
                          _matmul(powers[-1], result, hermitian))
    for _ in range(s):
        result = _matmul(result, result, hermitian)
    if not _all_finite(result):
        raise NonFiniteInput("exponential overflows binary64")
    return result


def spinor_transform(psi: Sequence[Octonion], x_num,
                     tol: float = DEFAULT_TOL) -> list:
    """The coefficients of psi' = exp(X) psi as one product exp(X) C,
    where row j of C holds psi_j's coefficients on e0..e7; row i of the
    result is psi'_i.  Each row is added up over j in order by plain
    additions, so it equals the per-term sum psi'_i = sum_j exp(X)_ij
    psi_j bit for bit whatever rounding a Python version's sum() uses.
    Zero coefficients are skipped: their terms are signed zeros, which
    leave a sum that starts at +0 unchanged."""
    if len(psi) != len(x_num):
        raise ValueError("spinor length does not match the matrix")
    c = [[(k, z) for k, z in enumerate(map(complex, o.coeffs)) if z]
         for o in psi]
    out = []
    for row in matrix_exp(x_num, tol):
        acc = [0j] * 8
        for e, terms in zip(row, c):
            for k, z in terms:
                acc[k] += e * z
        out.append(acc)
    return out


def standard_spinor() -> list:
    """(1, e1, ..., e7) with int coefficients; its coefficient array
    is the identity."""
    return [Octonion.unit(k) for k in range(8)]


def hermiticity_defect(e) -> float:
    """max |e - e^H| over the entries."""
    n = len(e)
    return max(abs(e[i][j] - e[j][i].conjugate())
               for i in range(n) for j in range(n))


def unitarity_defect(e) -> float:
    """max |e^H e - I| over the entries."""
    eh = [[v.conjugate() for v in col] for col in zip(*e)]
    return max(abs(v - (i == j)) for i, row in enumerate(_matmul(eh, e))
               for j, v in enumerate(row))
