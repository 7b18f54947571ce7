"""Test-side oracles: the dense, general-purpose forms of facts the
package computes through the monomial structure, the per-term spinor
transport, a token reader over Fractions, plus block-algebra helpers
only the tests need."""

import functools
import operator
import re
from fractions import Fraction

import numpy as np

from octo_so8 import (Octonion, SquareMatrix, beta_set, gram, invert_exact,
                      matrix_exp, plane_product)
from octo_so8.matrices import Monomial, from_blocks


def dense_rotation_operator(k, l, theta, bs=None):
    """R_kl = I + theta * beta_k beta_l as a dense exact matrix (eq 12)."""
    return SquareMatrix.identity(8) + plane_product(k, l, bs).to_dense().scale(theta)


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
              for d in (b.to_dense() for b in bs.mats)]
    forms = [_sum(g_inv.at(a, b) * traces[b] for b in range(8))
             for a in range(8)]
    span = SquareMatrix([[_sum(bs.mats[a].at(i, j) * forms[a]
                               for a in range(8))
                          for j in range(8)] for i in range(8)])
    return tuple(forms), m - span


def commutator_terms_by_products(n, f, bs=None):
    """[N, X(f)] = sum_B f_B [N, beta_B] as (2 f_B, N beta_B) terms, one
    per beta_B that anticommutes with N, found by forming N beta_B and
    beta_B N on every call."""
    return [(2 * fb, n @ b) for fb, b in zip(f, (bs or beta_set()).mats)
            if n @ b != b @ n]


def components_by_products(n, f, bs=None):
    """(lines, residual) of [N, X(f)] from commutator_terms_by_products:
    a term with N beta_B = i**q beta_A, found in a table of every
    i**q beta_A, adds i**q times its coefficient to lines[A]; the others
    add up to the residual cell by cell over their dense matrices."""
    bs = bs or beta_set()
    span = {u @ b: (a, u.at(0, 0)) for a, b in enumerate(bs.mats)
            for u in (Monomial(range(8), [q] * 8) for q in range(4))}
    zero = 0 * f[0]
    lines, residual = [zero] * 8, SquareMatrix([[zero] * 8] * 8)
    for c, m in commutator_terms_by_products(n, f, bs):
        if m in span:
            a, phase = span[m]
            lines[a] = lines[a] + phase * c
        else:
            residual = residual + m.to_dense().map(lambda e, c=c: e * c)
    return tuple(lines), residual


def _sum(terms):
    """The sum of exact terms of one type, with no start value."""
    return functools.reduce(operator.add, terms)


def reassemble(dec):
    """[[A, B^dagger], [B, -A]] from a BlockDecomp."""
    return from_blocks(dec.a, dec.b.conj_transpose(), dec.b, -dec.a)


def block_sum_oracle(a, b, c, d):
    """[[A,A],[B,B]] + [[C,-C],[D,-D]] == [[A+C, A-C],[B+D, B-D]],
    checked by direct construction."""
    lhs = from_blocks(a, a, b, b) + from_blocks(c, -c, d, -d)
    rhs = from_blocks(a + c, a - c, b + d, b - d)
    return lhs == rhs


def complex_array(m):
    """An exact scalar matrix (dense or Monomial) as complex128, entry by
    entry, each correctly rounded."""
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
