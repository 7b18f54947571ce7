"""Test-side oracles: the dense, general-purpose forms of facts the
package computes through the monomial structure, the per-term spinor
transport, plus block-algebra helpers only the tests need."""

import functools
import operator

import numpy as np

from octo_so8 import (Octonion, SquareMatrix, beta_set, gram, invert_exact,
                      matrix_exp, plane_product)
from octo_so8.matrices import from_blocks


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


def octonion_transport(psi, x_num):
    """psi'_i = sum_j exp(X)_ij psi_j by per-term sums of Octonions over
    complex coefficients, as a coefficient array (row i is psi'_i)."""
    e = matrix_exp(x_num)
    numeric = [Octonion([complex(c) for c in o.coeffs]) for o in psi]
    out = []
    for i in range(len(psi)):
        acc = Octonion.zero(0j)
        for j in range(len(psi)):
            acc = acc + complex(e[i][j]) * numeric[j]
        out.append(acc.coeffs)
    return np.array(out, dtype=np.complex128)
