"""SO(8) rotation machinery over the generator matrices.

The symbolic object of interest is X = sum_A f_A beta_A, an 8x8 matrix
of linear forms.  Rotations act by conjugation with R_kl = I + theta *
N, where N = beta_k beta_l is a Pauli code (x, z, q) with N^2 = s*I,
s = +1 or -1, for every plane of both readings.  N commutes or
anticommutes with each beta_B, so [N, beta_B] is 0 or the single code
2 N beta_B.  One record per N, derived on first use, holds s and, by
its (x, z), N beta_B's place in the generator table; the rotations act
on the components f_A by reading it, once matrices.gram_fault has found
the Gram matrix to be 8*I, with no dense conjugation, trace projection,
Gram matrix or repeated N beta_B product.  The residual outside the
span stays a tuple of its (coefficient, Pauli code) terms, which
monomial_sum densifies and residual_max reads its largest entry off.
Beside the record, a second one per N, also built on first use, holds
the first-order map at the f symbols, which reads no fixture: its
lines, its residual and the residual's nonzero cells.  The module
provides the first-order map and the exact rotation of f, at the f
symbols or at exact f, the symbolic X, the duplicate-plane scan, and
the numeric exponentials used for spinor transport: e^X through
Gamma = I (x) X (x) I, which anticommutes with every generator, as one
4x4 Hermitian eigenproblem (generator_exp), and the general Taylor
series (matrix_exp) for Y and for readings without Gamma.

Only the numeric section uses floats, on plain lists of rows of Python
``complex`` with one product, _matmul; X(f) and Y(f) both come from
tables of cell terms (substitute_terms), so no command needs numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .exact import CRational
from .matrices import (PHASES, BetaSet, Pauli, SquareMatrix, beta_set,
                       gram_fault, monomial_sum)
from .octonion import Octonion
from .symbolic import LinearForm


class SingularRotation(ValueError):
    """A rotation operator I + theta N is singular, or so is the input
    of invert_exact."""


class DegenerateBasis(ValueError):
    """Component extraction attempted where the Gram matrix is not 8*I."""


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
    """X = [[A, B+], [B, -A]] reading; a and b are the 4x4 form blocks
    at the top left and bottom left, and bad holds the 1-indexed cells
    of the right half off that form, empty when X is compact."""
    a: SquareMatrix
    b: SquareMatrix
    bad: tuple


def block_decompose(x: SquareMatrix) -> BlockDecomp:
    tl, tr = x.block(0, 0, 4), x.block(0, 1, 4)
    bl, br = x.block(1, 0, 4), x.block(1, 1, 4)
    bad = []
    for i in range(4):
        for j in range(4):
            if not tr.at(i, j) == bl.at(j, i).conj():
                bad.append((i + 1, j + 5))
            if not br.at(i, j) == -tl.at(i, j):
                bad.append((i + 5, j + 5))
    return BlockDecomp(tl, bl, tuple(bad))


# ---------------------------------------------------------------------------
# rotation operators

def plane_product(k: int, l: int, betas: Optional[BetaSet] = None) -> Pauli:
    """beta_k beta_l for a rotation plane (k, l), 1-indexed, k != l."""
    if k == l:
        raise ValueError("rotation plane needs two distinct indices")
    if not (1 <= k <= 8 and 1 <= l <= 8):
        raise ValueError("plane indices out of range 1..8")
    bs = betas or beta_set()
    return bs.beta(k) @ bs.beta(l)


def invert_exact(m: SquareMatrix) -> SquareMatrix:
    """Gauss-Jordan inverse over exact scalar entries.  No command runs
    it: rotations read each plane off the generator table, and the Gram
    rank check reads the codes' (x, z).  The tests use it as an oracle."""
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


@functools.lru_cache(maxsize=128)   # 2 readings x 56 ordered planes
def _plane_record(bs: BetaSet, n: Pauli) -> tuple:
    """The record of a plane product N, (s, terms) with N^2 = s*I:
    terms holds (B, N beta_B, (A, q) of a beta_A with N beta_B's (x, z),
    or None) for each beta_B, 0-indexed, that anticommutes with N."""
    table = {(b.x, b.z): (a, b.q) for a, b in enumerate(bs.mats)}
    products = [(b, n @ beta) for b, beta in enumerate(bs.mats)
                if not n.commutes(beta)]
    return PHASES[(n @ n).q], tuple(
        (b, m, table.get((m.x, m.z))) for b, m in products)


def commutator_terms(n: Pauli, f: Sequence,
                     betas: Optional[BetaSet] = None) -> list:
    """[N, X(f)] = sum_B f_B [N, beta_B] as monomial_sum terms
    (2 f_B, N beta_B), one per beta_B that anticommutes with N, read off
    N's record; the others commute with N and drop out."""
    return [(2 * f[b], m)
            for b, m, _ in _plane_record(betas or beta_set(), n)[1]]


def extract_components(n: Pauli, f: Sequence,
                       betas: Optional[BetaSet] = None):
    """(lines, residual): [N, X(f)] on the generator span, for a plane
    product N.  A commutator term 2 f_B N beta_B of N's record with
    N beta_B = i**k beta_A, found by its (x, z), adds 2 i**k f_B to
    lines[A]; the other terms, (2 f_B, N beta_B) in the record's order,
    are the residual, which monomial_sum densifies.  Both keep f's entry
    type (LinearForm at the f symbols, CRational at exact f).  Under the
    sigma reading, whose Gram matrix G[A][B] = Tr(beta_A beta_B) is 8*I,
    the products outside the span have zero trace against every beta_A,
    so this is the trace projection Tr(beta_A [N, X(f)]) / 8.  Under any
    other G, as tensor's (beta_8 repeats beta_1), raises DegenerateBasis
    naming gram_fault's verdict, with no Gram matrix built.
    """
    bs = betas or beta_set()
    if fault := gram_fault(bs):
        raise DegenerateBasis(f"generator Gram matrix is {fault}")
    zero = 0 * f[0]
    lines, outside = [zero] * 8, []
    for b, m, entry in _plane_record(bs, n)[1]:
        if entry is None:
            outside.append((2 * f[b], m))
        else:
            a, q = entry
            lines[a] = lines[a] + 2 * PHASES[(m.q - q) % 4] * f[b]
    return tuple(lines), tuple(outside)


def residual_max(terms) -> float:
    """The largest abs(complex(e)) over the nonzero entries e of
    sum c M, for (c, M) terms of a residual at exact f; 0.0 when there
    are none.  A term whose code shares its x with no other term owns
    its cells, each +-i**q c for the code's phase q, so one is read; the
    cells of terms that share an x coincide and are summed exactly, row
    by row.  These are monomial_sum's cells, so the floats are too."""
    by_x: dict = {}
    for c, m in terms:
        by_x.setdefault(m.x, []).append((c, m))
    top = 0.0
    for group in by_x.values():
        if len(group) == 1:
            (c, m), = group
            cells = (PHASES[m.q] * c,)
        else:
            cells = (sum(PHASES[m.cell(r)[1]] * c for c, m in group)
                     for r in range(8))
        for e in cells:
            if e:
                top = max(top, abs(complex(e)))
    return top


@functools.lru_cache(maxsize=128)   # as _plane_record
def symbolic_map(bs: BetaSet, n: Pauli) -> tuple:
    """(lines, residual, cells) of a plane product N at the f symbols:
    extract_components' pair and the nonzero_cells of the residual's
    monomial_sum.  It reads no fixture, so it is built on first use,
    once per reading and N; a DegenerateBasis is raised on every call."""
    lines, residual = extract_components(n, SYMBOLS, bs)
    cells = monomial_sum(residual, ZERO_FORM).nonzero_cells()
    return lines, residual, tuple(cells)


def rotate_exact(f: Sequence, k: int, l: int, theta: CRational,
                 betas: Optional[BetaSet] = None, extracted=None):
    """(f', residual): R X(f) R^-1 on the generator span, with
    R = I + theta N and N = beta_k beta_l, N^2 = s*I.  R beta_B R^-1 is
    beta_B where beta_B commutes with N, and else
    ((1 + s theta^2) beta_B + 2 theta N beta_B) / (1 - s theta^2); s
    and the anticommuting beta_B come from N's record, which forms the
    N beta_B only on the plane's first call, and the N beta_B
    terms are extract_components' lines and residual, or the given
    (lines, residual) pair of this plane at f; the residual's terms come
    back with each coefficient times theta / (1 - s theta^2).  Raises
    DegenerateBasis, as extract_components does, before it looks at
    theta, then SingularRotation, naming the plane and theta, when
    1 - s theta^2 = 0.
    """
    bs = betas or beta_set()
    n = plane_product(k, l, bs)
    lines, residual = extracted or extract_components(n, f, bs)
    square, terms = _plane_record(bs, n)
    det = 1 - square * theta * theta
    if det.is_zero():
        raise SingularRotation(
            f"rotation of plane ({k},{l}) with theta={theta} is singular")
    stretch, step = (2 - det) / det, theta / det    # 2 - det = 1 + s theta^2
    anti = {b for b, _, _ in terms}
    return (tuple((fb * stretch if b in anti else fb) + d * step
                  for b, (fb, d) in enumerate(zip(f, lines))),
            tuple((c * step, m) for c, m in residual))


def rotation_component_map(k: int, l: int, betas: Optional[BetaSet] = None,
                           f: Optional[Sequence] = None) -> tuple:
    """extract_components of beta_k beta_l at f, by default at the f
    symbols: the first-order action of the (k, l) rotation, the flow
    f_A -> f_A + theta * lines[A] and the per-theta residual terms
    outside the span, as the pair (lines, residual); at the f symbols,
    the pair of the plane's symbolic_map record."""
    bs = betas or beta_set()
    n = plane_product(k, l, bs)
    if f is None:
        return symbolic_map(bs, n)[:2]
    return extract_components(n, f, bs)


# ---------------------------------------------------------------------------
# duplicate-plane scan

def duplicate_rotation_scan(betas: Optional[BetaSet] = None):
    """Partition all 28 planes (k < l) by exact equality of
    beta_k beta_l; classes come back sorted by first member."""
    bs = betas or beta_set()
    groups: dict = {}
    for k in range(1, 9):
        for l in range(k + 1, 9):
            groups.setdefault(bs.beta(k) @ bs.beta(l), []).append((k, l))
    return [tuple(g) for g in groups.values()]


# ---------------------------------------------------------------------------
# numeric exponential and spinor transport

def substitute_matrix(x: SquareMatrix, fvals: Sequence) -> SquareMatrix:
    """Evaluate every linear-form entry at f = fvals."""
    return x.map(lambda form: form.substitute(fvals))


# i**q as complex, for q = 0..3
_UNITS = tuple(map(complex, PHASES))


def _matmul(a, b, hermitian: bool = False) -> list:
    """a @ b for matrices given as lists of rows of complex, the one
    product of the numeric section.  With hermitian=True the product is
    known to be Hermitian (a power of a Hermitian matrix, or M^H D M for
    a real diagonal D): only the upper triangle is summed, the diagonal
    keeps its real part and the lower triangle mirrors the upper one."""
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
    return all(map(cmath.isfinite, chain.from_iterable(m)))


def _adjoint(m) -> list:
    return [[z.conjugate() for z in col] for col in zip(*m)]


def _row_sum_norm(m) -> float:
    return max((sum(map(abs, row)) for row in m), default=0.0)


@functools.lru_cache(maxsize=8)
def _x_terms(bs: BetaSet) -> tuple:
    """The cells of X = sum_A f_A beta_A as substitute_terms takes
    them, (0j, ((A, i**q), ...)) in A order, read off the codes."""
    cells = [[[] for _ in range(8)] for _ in range(8)]
    for a, b in enumerate(bs.mats):
        for r, (c, q) in enumerate(map(b.cell, range(8))):
            cells[r][c].append((a, _UNITS[q]))
    return tuple(tuple((0j, tuple(cell)) for cell in row) for row in cells)


def numeric_X(fvals: Sequence, betas: Optional[BetaSet] = None) -> list:
    """sum_A f_A beta_A as 8 rows of complex at complex(f_A), so f may
    be floats or ints: _x_terms through substitute_terms, bit-identical
    to the dense sum of f_A times each generator's complex matrix."""
    return substitute_terms(_x_terms(betas or beta_set()),
                            [complex(v) for v in fvals])


def substitute_terms(terms, fvals: Sequence) -> list:
    """Form cells given as _x_terms or fixtures.load_y_terms does, at
    finite f: each adds c * f_a, in a order, onto its constant.  A zero c
    would only add signed zeros to a sum that starts at +0 and so is never
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
_INV_FACTORIAL = tuple(1 / math.factorial(k) for k in range(31))   # to m = 30


def _combine(c0: float, coeffs, flats, n: int, start=None) -> list:
    """start + c0*I + sum_j coeffs[j] * mats[j] for real c0 and coeffs,
    n x n rows of complex, each mats[j] flattened as flats[j], entry by
    entry: Hermitian terms give an exactly Hermitian sum."""
    acc = list(chain.from_iterable(start)) if start else [0j] * (n * n)
    for c, flat in zip(coeffs, flats):
        c = complex(c)
        acc = [v + c * w for v, w in zip(acc, flat)]
    for k in range(0, n * n, n + 1):
        acc[k] += c0
    return [acc[i * n:(i + 1) * n] for i in range(n)]


def _checked(m, tol: float) -> tuple:
    """(rows of complex, max row sum, theta table) for matrix_exp and
    generator_exp; raises as matrix_exp documents."""
    a = [[complex(v) for v in row] for row in m]
    if not _all_finite(a):
        raise NonFiniteInput("matrix contains NaN or infinity")
    try:
        norm = _row_sum_norm(a)
    except OverflowError:            # |z| of a finite z can overflow
        norm = math.inf
    if not norm <= 2.0 ** 1022:       # inf included
        raise NonFiniteInput("matrix norm overflows binary64")
    table = next((t for tabled, t in _THETA if tabled <= tol), None)
    if table is None:
        raise ToleranceNotMet("tol below 2^-53, the smallest tolerance "
                              "with a tabulated Taylor degree")
    return a, norm, table


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
    diagonal; when a lower bound on its top eigenvalue exceeds ln n +
    ln 2^1024 + 1 (712.86 at n = 8), an entry of e^A overflows, and no
    product runs.  Raises NonFiniteInput when the input holds NaN or
    infinity, when the norm exceeds 2^1022, or at the first square that
    is not finite (no later square would be); ToleranceNotMet when tol
    < 2^-53.
    """
    return _series(*_checked(m, tol))


def _series(a, norm: float, table) -> list:
    """matrix_exp of a matrix that _checked has passed, from _checked's
    rows of complex, max row sum and theta table."""
    choices, (x, e) = [], math.frexp(norm)
    for (deg, p), theta in zip(_DEGREES, table):
        y, f = math.frexp(theta)
        s = max(0, e - f + (x > y)) if norm else 0   # exact, no division
        choices.append((p + deg // p - 2 + s, s, deg, p))
    _, s, deg, p = min(choices)   # ties: the fewest squarings
    n = len(a)
    # every power and product here is a real polynomial in a
    hermitian = a == _adjoint(a)
    if hermitian and a:
        # lambda_max >= a_ii and >= (a_ii + a_jj)/2 + |a_ij|, the top
        # eigenvalue of a 2x2 principal block
        d = [a[i][i].real for i in range(n)]
        low = max(d + [(d[i] + d[j]) / 2 + abs(a[i][j])
                       for i in range(n) for j in range(i + 1, n)])
        if low > _overflow(n):
            raise NonFiniteInput("exponential overflows binary64")
    scale = 2.0 ** -s                 # exact: s < 1030
    powers = [[[v * scale for v in row] for row in a]]   # A, A^2, .., A^p
    for _ in range(p - 1):
        powers.append(_matmul(powers[-1], powers[0], hermitian))
    flats = [list(chain.from_iterable(pw)) for pw in powers]
    c = _INV_FACTORIAL
    # T_m = sum_i B_i (A^p)^i, B_i = sum_(j<p) c_(ip+j) A^j, the last B
    # also taking c_m A^p; Horner in A^p
    result = _combine(c[deg - p], c[deg - p + 1:deg + 1], flats, n)
    for i in range(deg - 2 * p, -1, -p):
        result = _combine(c[i], c[i + 1:i + p], flats, n,
                          _matmul(powers[-1], result, hermitian))
    # T_m of a norm under 5 is finite; a non-finite square stays so
    for _ in range(s):
        result = _matmul(result, result, hermitian)
        if not _all_finite(result):
            raise NonFiniteInput("exponential overflows binary64")
    return result

# Gamma = I (x) X (x) I, the code (x, z) = (2, 0), pairs row r with
# r ^ 2; _R holds the rows with bit 1 clear
_GAMMA = Pauli(2, 0)
_R = (0, 1, 4, 5)
# the Jacobi pairs (i, j) in cyclic order, each with the other two
_PAIRS = tuple((i, j, tuple(k for k in range(4) if k not in (i, j)))
               for i in range(4) for j in range(i + 1, 4))
# past 709, e^sigma is within 2^1024 / 4 and the functions are scaled by
# 2^-8 until the end
_SCALED = 709.0


def _overflow(n: int) -> float:
    """ln n + ln 2^1024 + 1: past it, the top eigenvalue of an n x n
    Hermitian A puts an entry of e^A past binary64, whatever the
    rounding (max|e^A| >= e^lambda_max / n)."""
    return math.log(n) + 1024 * math.log(2) + 1


@functools.lru_cache(maxsize=8)
def chiral(bs: BetaSet) -> bool:
    """Whether every beta_A is Hermitian and anticommutes with Gamma,
    read off the codes.  Then X = numeric_X(f, bs) at real f is [[0, A],
    [A^H, 0]] in Gamma's eigenbasis (e_r +- e_(r^2))/sqrt 2, r in _R,
    with A_ij = X[r_i][r_j] - X[r_i][r_j ^ 2]."""
    return all(b.hermitian() and not _GAMMA.commutes(b) for b in bs.mats)


def _jacobi(p) -> tuple:
    """(lam, v) with p v = v diag(lam), near enough, for a 4x4 Hermitian
    p given as rows of complex, whose off-diagonal it rotates in place:
    cyclic complex Jacobi (Golub and Van Loan, Matrix Computations, sec.
    8.5), J = [[c, s u], [-s conj(u), c]] with u the phase of p_ij
    zeroing p_ij, until the off-diagonal sum of squares is at most 1e-31
    of the diagonal one, or 30 sweeps."""
    lam = [p[i][i].real for i in range(4)]
    v = [[complex(i == j) for j in range(4)] for i in range(4)]
    for _ in range(30):
        if 2 * sum(abs(p[i][j]) ** 2 for i, j, _ in _PAIRS) <= \
                1e-31 * sum(x * x for x in lam):
            break
        for i, j, others in _PAIRS:
            pi, pj = p[i], p[j]
            b = pi[j]
            if not b:
                continue
            m, a, d = abs(b), lam[i], lam[j]
            tau = (d - a) / (2 * m)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1 / math.hypot(1.0, t)
            su = t * c * b / m
            sv = su.conjugate()
            for row in v:
                x, y = row[i], row[j]
                row[i], row[j] = c * x - sv * y, su * x + c * y
            for k in others:
                pk = p[k]
                x, y = pk[i], pk[j]
                pk[i], pk[j] = x, y = c * x - sv * y, su * x + c * y
                pi[k], pj[k] = x.conjugate(), y.conjugate()
            lam[i], lam[j] = a - t * m, d + t * m
            pi[j] = pj[i] = 0j
    return lam, v


def _chiral_exp(x, tol: float):
    """e^X for a Hermitian X that anticommutes with Gamma, or None when
    the check of tol below fails.

    With P = A A^H, shc(s) = sinh s / s and g(s) = (cosh s - 1)/s^2, e^X
    is [[cosh sqrt P, shc(sqrt P) A], [A^H shc(sqrt P), I + A^H g(sqrt P)
    A]] in Gamma's eigenbasis, blocks c, t, t^H and d; its cells (r, s)
    for r, s in {r_i, r_i ^ 2} x {r_j, r_j ^ 2} are (c +- t^H +- t +- d)_ij
    / 2.  From P's Jacobi eigensystem (V, lam), sigma = sqrt(lam) and
    B = V^H A: c = V diag(cosh sigma) V^H, t = V diag(shc sigma) B and
    d = I + B^H diag(g(sigma)) B; shc and g are entire in lam, so no
    term divides by a singular value.

    The check asks rho + 2 eta |P| <= tol |P|, with rho = |P V - V
    diag(lam)| and eta = |V^H V - I| in max row sums.  The unitary
    nearest V then diagonalizes P + dP, |dP| <= tol |P| to first order:
    the blocks are those of an X whose square P (+) A^H A moves by at
    most tol relative, the size of change |dX| <= tol |X| makes to it,
    and each entry is within about (tol + 2^-52) sigma_max / 2 of cosh
    sigma_max of its exact value, before the assembly's rounding.

    sigma_max past _overflow(8) raises NonFiniteInput, as does an entry
    that overflows when the 2^-8 scaling is undone; the functions are
    halved before the cells add up, so no sum overflows where its cell
    does not.  Each cell is set with its mirror, so e^X is exactly
    Hermitian with a real diagonal, and X = 0 gives the exact identity.
    """
    a = [[x[r][c] - x[r][c ^ 2] for c in _R] for r in _R]
    if max(map(abs, chain.from_iterable(a))) > _overflow(8):  # <= sigma_max
        raise NonFiniteInput("exponential overflows binary64")
    p = _matmul(a, _adjoint(a), True)                          # A A^H
    lam, v = _jacobi([row[:] for row in p])
    vh = _adjoint(v)
    norm = _row_sum_norm(p)
    rho = _row_sum_norm([[z - vi * lk for z, vi, lk in zip(row, vrow, lam)]
                         for row, vrow in zip(_matmul(p, v), v)])
    eta = _row_sum_norm([[z - (i == j) for j, z in enumerate(row)]
                         for i, row in enumerate(_matmul(vh, v, True))])
    if not rho + 2 * eta * norm <= tol * norm:
        return None
    sigma = [math.sqrt(max(lk, 0.0)) for lk in lam]
    if max(sigma) > _overflow(8):
        raise NonFiniteInput("exponential overflows binary64")
    k = 8 if max(sigma) > _SCALED else 0
    h = 2.0 ** (-1 - k)
    funcs = []
    for sg in sigma:
        if sg > _SCALED:        # e^-sigma is below the last bit of e^sigma
            e = math.exp(sg / 2) * h * math.exp(sg / 2) / 2
            funcs.append((e, e / sg, e / sg / sg))
        elif sg:
            funcs.append((h * math.cosh(sg), h * (math.sinh(sg) / sg),
                          h * (2 * (math.sinh(sg / 2) / sg) ** 2)))
        else:
            funcs.append((h, h, h / 2))
    fc, fs, fg = zip(*funcs)
    b = _matmul(vh, a)                                          # V^H A
    c = _matmul([[z * f for z, f in zip(r, fc)] for r in v], vh, True)
    d = _matmul([[z * g for z, g in zip(r, fg)] for r in _adjoint(b)],
                b, True)
    t = _matmul([[z * f for z, f in zip(r, fs)] for r in v], b)
    out = [[0j] * 8 for _ in range(8)]
    for i, ri in enumerate(_R):
        qi = ri ^ 2
        d[i][i] += h
        for j in range(i, 4):
            rj, qj = _R[j], _R[j] ^ 2
            cij, tij, dij, th = c[i][j], t[i][j], d[i][j], t[j][i].conjugate()
            cp, cm, wp, wm = cij + th, cij - th, tij + dij, tij - dij
            # each cell is set once, with its mirror
            out[ri][rj] = z = cp + wp
            out[rj][ri] = z.conjugate()
            out[ri][qj] = z = cp - wp
            out[qj][ri] = z.conjugate()
            if j != i:
                out[qi][rj] = z = cm + wm
                out[rj][qi] = z.conjugate()
            out[qi][qj] = z = cm - wm
            out[qj][qi] = z.conjugate()
        out[ri][ri], out[qi][qi] = (complex(out[ri][ri].real),
                                    complex(out[qi][qi].real))
    if k:
        out = [[z * 2.0 ** k for z in row] for row in out]
    if not _all_finite(out):
        raise NonFiniteInput("exponential overflows binary64")
    return out


def generator_exp(x_num, betas: BetaSet, tol: float = DEFAULT_TOL) -> list:
    """e^X for X = numeric_X(f, betas) at real f, as rows of complex:
    through Gamma's chirality (_chiral_exp) when chiral(betas), and by
    matrix_exp's series where betas is not chiral or the chirality
    route's check of tol fails, with X converted, scanned and normed
    once.  Raises as matrix_exp does, with its messages."""
    a, norm, table = _checked(x_num, tol)
    if chiral(betas) and (e := _chiral_exp(a, tol)) is not None:
        return e
    return _series(a, norm, table)


def spinor_transform(psi: Sequence[Octonion], x_num,
                     tol: float = DEFAULT_TOL,
                     betas: Optional[BetaSet] = None) -> list:
    """The coefficients of psi' = exp(X) psi as one product exp(X) C,
    where row j of C holds psi_j's coefficients on e0..e7; row i of the
    result is psi'_i.  exp(X) is generator_exp's for x_num =
    numeric_X(f, betas) at real f, and matrix_exp's without betas.
    Each row is added up over j in order by plain additions, so it
    equals the per-term sum psi'_i = sum_j exp(X)_ij psi_j bit for bit
    whatever rounding a Python version's sum() uses.
    Zero coefficients are skipped: their terms are signed zeros, which
    leave a sum that starts at +0 unchanged."""
    if len(psi) != len(x_num):
        raise ValueError("spinor length does not match the matrix")
    c = [[(k, z) for k, z in enumerate(map(complex, o.coeffs)) if z]
         for o in psi]
    out = []
    e = (matrix_exp(x_num, tol) if betas is None
         else generator_exp(x_num, betas, tol))
    for row in e:
        acc = [0j] * 8
        for e_ij, terms in zip(row, c):
            for k, z in terms:
                acc[k] += e_ij * z
        out.append(acc)
    return out


def standard_spinor() -> list:
    """(1, e1, ..., e7) with int coefficients; its coefficient array
    is the identity."""
    return [Octonion.unit(k) for k in range(8)]


def hermiticity_defect(e) -> float:
    """max |e - e^H| over the entries."""
    return max(abs(u - v)
               for r, s in zip(e, _adjoint(e)) for u, v in zip(r, s))


def unitarity_defect(e) -> float:
    """max |e^H e - I| over the entries."""
    return max(abs(v - (i == j))
               for i, row in enumerate(_matmul(_adjoint(e), e))
               for j, v in enumerate(row))
