"""Monomial generator algebra against the dense SquareMatrix oracle.

Every check recomputes its object densely from ``to_dense()`` with the
plain SquareMatrix operations and compares.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octo_so8 import (
    CDyadic,
    SquareMatrix,
    anticommutator_audit,
    assemble_X,
    beta_set,
    build_E,
    duplicate_rotation_scan,
    gram,
    signed_table,
)
from octo_so8.matrices import (E_DEFS, SIGMA_TERMS, Monomial,
                                beta_sigma_expansion, kron, monomial_sum)
from octo_so8.rotations import SYMBOLS, ZERO_FORM, numeric_X
from oracles import complex_array

READINGS = ("sigma", "tensor")
readings = st.sampled_from(READINGS)
words = st.lists(st.integers(1, 8), max_size=4)


@functools.lru_cache(maxsize=None)
def dense_betas(reading):
    return tuple(m.to_dense() for m in beta_set(reading).mats)


@functools.lru_cache(maxsize=None)
def x_of(reading):
    return assemble_X(beta_set(reading))


def word_monomial(reading, word):
    acc = Monomial.identity(8)
    for a in word:
        acc = acc @ beta_set(reading).beta(a)
    return acc


def dense_product(mats):
    acc = SquareMatrix.identity(8)
    for m in mats:
        acc = acc @ m
    return acc


def dense_word(reading, word):
    return dense_product(dense_betas(reading)[a - 1] for a in word)


def monomials(n):
    return st.tuples(st.permutations(range(n)),
                     st.lists(st.integers(0, 3), min_size=n, max_size=n)
                     ).map(lambda pq: Monomial(*pq))


class TestAgainstDense:
    @given(readings, words, words)
    def test_product(self, reading, u, v):
        a, b = word_monomial(reading, u), word_monomial(reading, v)
        assert (a @ b).to_dense() == a.to_dense() @ b.to_dense()
        assert a.to_dense() == dense_word(reading, u)

    @settings(max_examples=12, deadline=None)
    @given(readings, words)
    def test_product_with_X(self, reading, word):
        # a X and X a as monomial sums of the products with each beta_A
        a, x = word_monomial(reading, word), x_of(reading)
        mats = beta_set(reading).mats
        assert monomial_sum(zip(SYMBOLS, (a @ b for b in mats)),
                            ZERO_FORM) == a.to_dense() @ x
        assert monomial_sum(zip(SYMBOLS, (b @ a for b in mats)),
                            ZERO_FORM) == x @ a.to_dense()

    @settings(max_examples=12, deadline=None)
    @given(readings, words)
    def test_trace_and_trace_with_X(self, reading, word):
        a = word_monomial(reading, word)
        assert a.trace() == a.to_dense().trace()

    @given(readings, words, words)
    def test_equality_negation_and_hash(self, reading, u, v):
        a, b = word_monomial(reading, u), word_monomial(reading, v)
        assert (a == b) == (a.to_dense() == b.to_dense())
        assert (a == -b) == (a.to_dense() == -b.to_dense())
        assert (-a).to_dense() == -(a.to_dense())
        if a == b:
            assert hash(a) == hash(b)
        assert a == a.to_dense() and a.to_dense() == a

    @given(monomials(5), monomials(5))
    def test_general_monomials(self, a, b):
        # the generator perms commute; these do not, so composition
        # order and complex traces are checked here
        assert (a @ b).to_dense() == a.to_dense() @ b.to_dense()
        assert a.trace() == a.to_dense().trace()

    @given(monomials(2), monomials(4))
    def test_kron(self, a, b):
        k = kron(a, b).to_dense()
        assert all(k.at(i, j) == a.at(i // 4, j // 4) * b.at(i % 4, j % 4)
                   for i in range(8) for j in range(8))

    @given(monomials(8), monomials(8), st.randoms(use_true_random=False))
    def test_monomial_sum(self, a, b, rng):
        c, d = (CDyadic(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(2))
        assert monomial_sum([(c, a), (d, b)], CDyadic(0)) == \
            a.to_dense().scale(c) + b.to_dense().scale(d)
        assert monomial_sum([], CDyadic(0)).is_zero()

    @given(monomials(8))
    def test_render_matches_dense(self, a):
        assert a.render() == a.to_dense().render()


class TestConstruction:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Monomial((0, 0), (0, 0))
        with pytest.raises(ValueError):
            Monomial((0, 1), (0,))

    def test_size_mismatch_is_a_type_error(self):
        with pytest.raises(TypeError):
            Monomial.identity(2) @ Monomial.identity(3)
        with pytest.raises(TypeError):
            Monomial.identity(2) @ SquareMatrix.identity(3)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_sigma_expansion_against_matrix_units(self, a):
        pref_i, terms = SIGMA_TERMS[a]
        pref = CDyadic(0, 1) if pref_i else CDyadic(1)
        cells = {(m - 1, n - 1): pref * sign for sign, m, n in terms}
        dense = SquareMatrix([[cells.get((i, j), CDyadic(0)) for j in range(8)]
                              for i in range(8)])
        assert beta_sigma_expansion(a).to_dense() == dense

    def test_phases_reduce_mod_4(self):
        assert Monomial((1, 0), (5, -1)) == Monomial((1, 0), (1, 3))


@pytest.mark.parametrize("reading", READINGS)
class TestDerivedObjects:
    def test_gram(self, reading):
        d = dense_betas(reading)
        assert gram(beta_set(reading)) == SquareMatrix(
            [[(a @ b).trace() for b in d] for a in d])

    def test_signed_table(self, reading):
        es = [dense_word(reading, E_DEFS[k]) for k in range(8)]
        cells = []
        for a in es:
            row = []
            for b in es:
                p, found = a @ b, None
                for k, e in enumerate(es):
                    if p == e:
                        found = (1, k)
                        break
                    if p == -e:
                        found = (-1, k)
                        break
                row.append(found)
            cells.append(tuple(row))
        assert signed_table(build_E(beta_set(reading))).cells == tuple(cells)

    def test_anticommutator_audit(self, reading):
        d = dense_betas(reading)
        pairs = [(a + 1, b + 1) for a in range(8) for b in range(a + 1, 8)
                 if (d[a] @ d[b] + d[b] @ d[a]).is_zero()]
        assert anticommutator_audit(beta_set(reading)) == pairs

    def test_duplicate_rotation_scan(self, reading):
        d = dense_betas(reading)
        groups = {}
        for k in range(1, 9):
            for l in range(k + 1, 9):
                groups.setdefault(d[k - 1] @ d[l - 1], []).append((k, l))
        assert duplicate_rotation_scan(beta_set(reading)) == \
            [tuple(g) for g in groups.values()]

    def test_numeric_X_bit_identical_to_dense_conversion(self, reading):
        # the dense reference: each generator converted entry by entry,
        # scaled by complex(f_A) and summed over A from a zero array
        f = [0.3, -0.2, 0.7, 0.1, -0.0, -0.5, 0.4, 0.9]
        acc = np.zeros((8, 8), dtype=np.complex128)
        for a in range(8):
            acc = acc + complex(f[a]) * complex_array(dense_betas(reading)[a])
        assert np.array(numeric_X(f, beta_set(reading))).tobytes() == \
            acc.tobytes()
