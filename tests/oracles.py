"""Test-side oracles: the dense, general-purpose forms of facts the
package computes through the Pauli codes of its generators, the
signed-permutation reference those codes are checked against, the
per-term spinor transport, a token reader over Fractions, plus
block-algebra helpers only the tests need."""

import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from octo_so8 import (CRational, Octonion, SquareMatrix, beta_set, gram,
                      invert_exact, matrix_exp, plane_product)
from octo_so8.matrices import (SIGMA_TERMS, TENSOR_ASSIGNMENTS, from_blocks,
                               monomial_sum)
from octo_so8.rotations import _DEGREES, _THETA, DEFAULT_TOL, _matmul


# ---------------------------------------------------------------------------
# the dense reference: signed permutation matrices, and both generator
# readings built from them as the transcription writes them (matrix
# units, and Kronecker products of Pauli and Dirac matrices)

_EXACT_ZERO = CRational(0)
# i**q for q = 0..3
_PHASES = (CRational(1), CRational(0, 1), CRational(-1), CRational(0, -1))


class Monomial:
    """Immutable n x n matrix with one nonzero entry per row and per
    column: row r holds i**phase[r] in column perm[r].

    A product of two is a composed permutation with added phases, O(n)
    integer operations; ``@`` takes only another Monomial of the same
    size.  ``==`` against a SquareMatrix compares entries.
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
        return _PHASES[self.phase[i]] if self.perm[i] == j else _EXACT_ZERO

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
                    enumerate(zip(self.perm, self.phase)) if r == c),
                   _EXACT_ZERO)

    def to_dense(self) -> SquareMatrix:
        return SquareMatrix([[self.at(i, j) for j in range(self.n)]
                             for i in range(self.n)])

    def render(self):
        return self.to_dense().render()

    def __repr__(self):
        return f"Monomial(perm={self.perm}, phase={self.phase})"


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


def _sigma_reference(a: int) -> Monomial:
    pref_i, terms = SIGMA_TERMS[a]
    cells = {m - 1: (n - 1, (sign < 0) * 2 + pref_i) for sign, m, n in terms}
    return Monomial([cells[r][0] for r in range(8)],
                    [cells[r][1] for r in range(8)])


def _tensor_reference(a: int) -> Monomial:
    p, g = TENSOR_ASSIGNMENTS[a]
    return kron(pauli(p), gamma(g))


@functools.lru_cache(maxsize=None)
def reference_betas(reading):
    """beta_1..beta_8 of a reading as Monomials: the sigma reading from
    its matrix units, the tensor reading as pauli(p) (x) gamma(g)."""
    build = _sigma_reference if reading == "sigma" else _tensor_reference
    return tuple(build(a) for a in range(1, 9))


# i**q I for q = 0..3
UNITS = tuple(Monomial(range(8), [q] * 8) for q in range(4))


def as_monomial(m) -> Monomial:
    """The Monomial holding the entries of an 8x8 code, read cell by
    cell through its at()."""
    cells = [next((j, m.at(i, j)) for j in range(8)
                  if not m.at(i, j).is_zero()) for i in range(8)]
    return Monomial([j for j, _ in cells],
                    [_PHASES.index(e) for _, e in cells])


def to_dense(m) -> SquareMatrix:
    """A code or a Monomial as a dense matrix, entry by entry."""
    return SquareMatrix([[m.at(i, j) for j in range(m.n)]
                         for i in range(m.n)])


def dense_rotation_operator(k, l, theta, bs=None):
    """R_kl = I + theta * beta_k beta_l as a dense exact matrix (eq 12)."""
    n = to_dense(plane_product(k, l, bs))
    return SquareMatrix.identity(8) + n.scale(theta)


def dense_rotate(x, k, l, theta, bs=None):
    """R x R^-1 by two dense products and a Gauss-Jordan inverse;
    raises SingularRotation when R is singular."""
    r = dense_rotation_operator(k, l, theta, bs)
    return (r @ x) @ invert_exact(r)


def gram_inverse_projection(m, bs=None):
    """(forms, residual) of m against the generators through G^-1:
    forms[A] = sum_B (G^-1)[A][B] Tr(beta_B m), each trace summed over
    the dense cells of beta_B, and residual = m - sum_A forms[A] beta_A
    by a dense triple loop.  Both keep m's entry type."""
    bs = bs or beta_set()
    g_inv = invert_exact(gram(bs))
    traces = [_sum(d.at(i, j) * m.at(j, i) for i in range(8) for j in range(8))
              for d in map(to_dense, bs.mats)]
    forms = [_sum(g_inv.at(a, b) * traces[b] for b in range(8))
             for a in range(8)]
    span = SquareMatrix([[_sum(bs.mats[a].at(i, j) * forms[a]
                               for a in range(8))
                          for j in range(8)] for i in range(8)])
    return tuple(forms), m - span


def commutator_terms_by_products(n, f, reading="sigma"):
    """[N, X(f)] = sum_B f_B [N, beta_B] as (2 f_B, N beta_B) terms, one
    per beta_B that anticommutes with N, for a Monomial N and the
    reading's reference generators, found by forming N beta_B and
    beta_B N on every call."""
    return [(2 * fb, n @ b) for fb, b in zip(f, reference_betas(reading))
            if n @ b != b @ n]


def components_by_products(n, f, reading="sigma"):
    """(lines, residual) of [N, X(f)] from commutator_terms_by_products:
    a term with N beta_B = i**q beta_A, found in a table of every
    i**q beta_A, adds i**q times its coefficient to lines[A]; the others
    add up to the residual cell by cell over their dense matrices."""
    span = {u @ b: (a, u.at(0, 0))
            for a, b in enumerate(reference_betas(reading)) for u in UNITS}
    zero = 0 * f[0]
    lines, residual = [zero] * 8, SquareMatrix([[zero] * 8] * 8)
    for c, m in commutator_terms_by_products(n, f, reading):
        if m in span:
            a, phase = span[m]
            lines[a] = lines[a] + phase * c
        else:
            residual = residual + m.to_dense().map(lambda e, c=c: e * c)
    return tuple(lines), residual


def dense_residual_max(terms) -> float:
    """The largest |entry| of residual terms at exact f as numeric
    rotate read it before it kept the terms: their dense monomial_sum,
    then abs(complex(e)) over its nonzero cells, 0.0 for none.
    An entry past binary64 raises OverflowError."""
    return cell_max(monomial_sum(terms, _EXACT_ZERO))


def cell_max(m) -> float:
    """The largest abs(complex(e)) over the nonzero cells of a dense
    exact matrix, 0.0 when it has none."""
    return max((abs(complex(e)) for row in m.rows for e in row if e),
               default=0.0)


def _sum(terms):
    """The sum of exact terms of one type, with no start value."""
    return functools.reduce(operator.add, terms)


# ---------------------------------------------------------------------------
# dense flags of a square matrix, entry by entry

def trace(m):
    """The sum of m's diagonal entries, of m's entry type."""
    return _sum(m.at(i, i) for i in range(m.n))


def conj_transpose(m) -> SquareMatrix:
    return SquareMatrix([[m.at(j, i).conj() for j in range(m.n)]
                         for i in range(m.n)])


def is_hermitian(m) -> bool:
    """m equals its conjugate transpose, read entry by entry on and
    above the diagonal."""
    return all(m.at(i, j) == m.at(j, i).conj()
               for i in range(m.n) for j in range(i, m.n))


def is_traceless(m) -> bool:
    return trace(m).is_zero()


def reassemble(dec):
    """[[A, B^dagger], [B, -A]] from a BlockDecomp."""
    return from_blocks(dec.a, conj_transpose(dec.b), dec.b, -dec.a)


def block_sum_oracle(a, b, c, d):
    """[[A,A],[B,B]] + [[C,-C],[D,-D]] == [[A+C, A-C],[B+D, B-D]],
    checked by direct construction."""
    lhs = from_blocks(a, a, b, b) + from_blocks(c, -c, d, -d)
    rhs = from_blocks(a + c, a - c, b + d, b - d)
    return lhs == rhs


def complex_array(m):
    """An exact scalar matrix (dense, Monomial or code) as complex128,
    entry by entry, each correctly rounded."""
    return np.array([[complex(m.at(i, j)) for j in range(m.n)]
                     for i in range(m.n)], dtype=np.complex128)


def substitute_numeric(x, fvals):
    """Every linear-form entry evaluated at float f = fvals, as rows of
    complex, converting all nine coefficients of every cell."""
    out = []
    for row in x.rows:
        vals = []
        for form in row:
            acc = complex(form.constant)
            for a in range(8):
                acc += complex(form.coeffs[a + 1]) * fvals[a]
            vals.append(acc)
        out.append(vals)
    return out


def octonion_transport(psi, x_num):
    """psi'_i = sum_j exp(X)_ij psi_j by per-term sums of Octonions over
    complex coefficients, as a coefficient array (row i is psi'_i)."""
    e = matrix_exp(x_num)
    numeric = [Octonion([complex(c) for c in o.coeffs]) for o in psi]
    out = []
    for i in range(len(psi)):
        acc = Octonion.zero()
        for j in range(len(psi)):
            acc = acc + complex(e[i][j]) * numeric[j]
        out.append(acc.coeffs)
    return np.array(out, dtype=np.complex128)


# ---------------------------------------------------------------------------
# the exponential as it stood before its bookkeeping was trimmed: a
# 1/k! list per call, _combine by map over each power's rows, and
# finiteness read off math.isfinite; the series runs for every input.
# The package must match it bit for bit wherever it returns, and raise
# wherever its result is not finite.

def _combine_reference(c0: float, coeffs, mats, start=None) -> list:
    n = len(mats[0])
    acc = list(itertools.chain.from_iterable(start or [[0j] * n] * n))
    for c, mat in zip(coeffs, mats):
        acc = list(map(operator.add, acc, map(
            complex(c).__mul__, itertools.chain.from_iterable(mat))))
    for k in range(0, n * n, n + 1):
        acc[k] += c0
    return [acc[i * n:(i + 1) * n] for i in range(n)]


def _finite_reference(m) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag)
               for v in itertools.chain.from_iterable(m))


def matrix_exp_reference(m, tol: float = DEFAULT_TOL):
    """(e^A, None), or (None, message) where the series gives NaN or
    infinity; the input checks are the package's."""
    a = [[complex(v) for v in row] for row in m]
    norm = max((sum(map(abs, row)) for row in a), default=0.0)
    table = next(t for tabled, t in _THETA if tabled <= tol)
    choices, (x, e) = [], math.frexp(norm)
    for (deg, p), theta in zip(_DEGREES, table):
        y, f = math.frexp(theta)
        s = max(0, e - f + (x > y)) if norm else 0
        choices.append((p + deg // p - 2 + s, s, deg, p))
    _, s, deg, p = min(choices)
    hermitian = all(a[i][j] == a[j][i].conjugate()
                    for i in range(len(a)) for j in range(i, len(a)))
    scale = 2.0 ** -s
    powers = [[[v * scale for v in row] for row in a]]
    for _ in range(p - 1):
        powers.append(_matmul(powers[-1], powers[0], hermitian))
    c = [1 / math.factorial(k) for k in range(deg + 1)]
    result = _combine_reference(c[deg - p], c[deg - p + 1:], powers)
    for i in range(deg - 2 * p, -1, -p):
        result = _combine_reference(c[i], c[i + 1:i + p], powers,
                                    _matmul(powers[-1], result, hermitian))
    for _ in range(s):
        result = _matmul(result, result, hermitian)
    if not _finite_reference(result):
        return None, "exponential overflows binary64"
    return result, None


# ---------------------------------------------------------------------------
# token reader: recursive descent over (re, im) Fraction pairs, sharing
# no code with the package's scanner

_ZERO = (Fraction(0), Fraction(0))
_SIGNED_NUMBER = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?(i?)|(i))")


def _number(num, den, imag):
    d = int(den or 1)
    if d <= 0 or d & (d - 1):
        raise ValueError(f"denominator {d} is not a power of two")
    v = Fraction(int(num), d)
    return (Fraction(0), v) if imag else (v, Fraction(0))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y, sign=1):
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def _read_scalar(s):
    """A signed sum of number atoms, at most one real and one imaginary."""
    total, seen, pos = _ZERO, set(), 0
    while pos < len(s):
        m = _SIGNED_NUMBER.match(s, pos)
        if m is None or (pos and not m[1]):
            raise ValueError(f"bad scalar {s!r}")
        imag = bool(m[4] or m[5])
        if imag in seen:
            raise ValueError(f"duplicate part in {s!r}")
        seen.add(imag)
        total = _cadd(total, _number(m[2] or 1, m[3], imag),
                      -1 if m[1] == "-" else 1)
        pos = m.end()
    if not seen:
        raise ValueError("empty scalar")
    return total


def read_terms(text, names):
    """[constant, coefficient of names[0], ...] of a token of the term
    language, each an (re, im) pair of Fractions; whitespace is ignored.
    Raises ValueError on a non-dyadic denominator or malformed text."""
    s, pos = "".join(text.split()), 0
    factor = re.compile("|".join(map(re.escape, names))
                        + r"|(\d+)(?:/(\d+))?(i?)|(i)")
    out = [_ZERO] * (len(names) + 1)
    if not s:
        raise ValueError("empty expression")
    while pos < len(s):
        sign = s[pos] if s[pos] in "+-" else ""
        if pos and not sign:
            raise ValueError(f"no sign at {pos} in {s!r}")
        pos += len(sign)
        coeff, k = (Fraction(-1 if sign == "-" else 1), Fraction(0)), 0
        while True:
            if s.startswith("(", pos):
                end = s.index(")", pos)
                value, pos = _read_scalar(s[pos + 1:end]), end + 1
            else:
                m = factor.match(s, pos)
                if m is None:
                    raise ValueError(f"no factor at {pos} in {s!r}")
                pos = m.end()
                value = (Fraction(1), Fraction(0))
                if m.lastindex is None:
                    if k:
                        raise ValueError(f"two names in a term of {s!r}")
                    k = names.index(m[0]) + 1
                else:
                    value = _number(m[1] or 1, m[2], m[3] or m[4])
            coeff = _cmul(coeff, value)
            if not s.startswith("*", pos):
                break
            pos += 1
        out[k] = _cadd(out[k], coeff)
    return out
