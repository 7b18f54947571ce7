"""Pauli-code generator algebra against the dense signed-permutation
reference of ``oracles``.

Every check recomputes its object from the reference generators, as
Monomials and through ``to_dense()`` with the plain SquareMatrix
operations, under both readings, and compares.
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
from octo_so8.exact import ZERO
from octo_so8.matrices import (E_DEFS, SIGMA_TERMS, Pauli,
                                beta_sigma_expansion, monomial_sum)
from octo_so8.rotations import SYMBOLS, ZERO_FORM, numeric_X
from oracles import (Monomial, as_monomial, complex_array, is_hermitian,
                     kron, reference_betas, to_dense, trace)

READINGS = ("sigma", "tensor")
readings = st.sampled_from(READINGS)
words = st.lists(st.integers(1, 8), max_size=4)
codes = st.builds(Pauli, st.integers(0, 7), st.integers(0, 7),
                  st.integers(0, 3))

# each generator as a Hermitian Pauli string, the first tensor factor
# first; tensor's beta_8 repeats beta_1
LABELS = {"sigma": ("XYX", "ZYX", "YYZ", "ZYY", "XYZ", "ZYZ", "XZI", "ZZI"),
          "tensor": ("XYX", "ZYX", "YYZ", "ZYY", "XYZ", "ZYZ", "XZI", "XYX")}
NUMPY_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
               "Y": np.array([[0, -1j], [1j, 0]]),
               "Z": np.array([[1, 0], [0, -1]])}


@functools.lru_cache(maxsize=None)
def dense_betas(reading):
    return tuple(m.to_dense() for m in reference_betas(reading))


@functools.lru_cache(maxsize=None)
def x_of(reading):
    return assemble_X(beta_set(reading))


def word_code(reading, word):
    acc = Pauli(0, 0)
    for a in word:
        acc = acc @ beta_set(reading).beta(a)
    return acc


def word_monomial(reading, word):
    acc = Monomial.identity(8)
    for a in word:
        acc = acc @ reference_betas(reading)[a - 1]
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


def numpy_label(label):
    out = np.eye(1)
    for letter in label:
        out = np.kron(out, NUMPY_PAULI[letter])
    return out


class TestAgainstDense:
    @given(readings, words, words)
    def test_product(self, reading, u, v):
        a, b = word_code(reading, u), word_code(reading, v)
        ra, rb = word_monomial(reading, u), word_monomial(reading, v)
        assert as_monomial(a) == ra and as_monomial(b) == rb
        assert as_monomial(a @ b) == ra @ rb
        assert to_dense(a @ b) == to_dense(a) @ to_dense(b)
        assert to_dense(a) == dense_word(reading, u)

    @given(codes, codes)
    def test_general_codes(self, a, b):
        # every code, not only the 128 the generators make
        ra, rb = as_monomial(a), as_monomial(b)
        assert as_monomial(a @ b) == ra @ rb
        assert as_monomial(-a) == -ra
        assert a.trace() == ra.trace()
        assert a.hermitian() == is_hermitian(to_dense(a))
        assert a.hermitian() == (a @ a == Pauli(0, 0))
        assert a.commutes(b) == (ra @ rb == rb @ ra)
        assert (a == b) == (ra == rb)

    @settings(max_examples=12, deadline=None)
    @given(readings, words)
    def test_product_with_X(self, reading, word):
        # a X and X a as monomial sums of the products with each beta_A
        a, x = word_code(reading, word), x_of(reading)
        mats = beta_set(reading).mats
        assert monomial_sum(zip(SYMBOLS, (a @ b for b in mats)),
                            ZERO_FORM) == to_dense(a) @ x
        assert monomial_sum(zip(SYMBOLS, (b @ a for b in mats)),
                            ZERO_FORM) == x @ to_dense(a)

    @settings(max_examples=12, deadline=None)
    @given(readings, words)
    def test_trace_and_trace_with_X(self, reading, word):
        a = word_code(reading, word)
        assert a.trace() == word_monomial(reading, word).trace()
        assert a.trace() == trace(dense_word(reading, word))

    @given(readings, words, words)
    def test_commutation(self, reading, u, v):
        a, b = word_code(reading, u), word_code(reading, v)
        ra, rb = word_monomial(reading, u), word_monomial(reading, v)
        assert a.commutes(b) == (ra @ rb == rb @ ra)
        assert a.commutes(b) or ra @ rb == -(rb @ ra)

    @given(readings, words, words)
    def test_equality_negation_and_hash(self, reading, u, v):
        a, b = word_code(reading, u), word_code(reading, v)
        ra, rb = word_monomial(reading, u), word_monomial(reading, v)
        assert (a == b) == (ra == rb)
        assert (a == -b) == (ra == -rb)
        assert as_monomial(-a) == -ra
        assert to_dense(-a) == -(to_dense(a))
        if a == b:
            assert hash(a) == hash(b)

    @given(monomials(5), monomials(5))
    def test_general_monomials(self, a, b):
        # the reference itself: the generator perms commute; these do
        # not, so composition order and complex traces are checked here
        assert (a @ b).to_dense() == a.to_dense() @ b.to_dense()
        assert a.trace() == trace(a.to_dense())
        assert a == a.to_dense() and a.to_dense() == a

    @given(monomials(2), monomials(4))
    def test_kron(self, a, b):
        k = kron(a, b).to_dense()
        assert all(k.at(i, j) == a.at(i // 4, j // 4) * b.at(i % 4, j % 4)
                   for i in range(8) for j in range(8))

    @given(readings, words, codes, st.randoms(use_true_random=False))
    def test_monomial_sum(self, reading, word, b, rng):
        a = word_code(reading, word)
        c, d = (CDyadic(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(2))
        assert monomial_sum([(c, a), (d, b)], CDyadic(0)) == \
            to_dense(a).scale(c) + to_dense(b).scale(d)
        assert monomial_sum([], CDyadic(0)).is_zero()
        # a twice, so that every cell of a takes two terms, and a zero
        # coefficient, under each zero of both entry types
        form = SYMBOLS[rng.randint(0, 7)] * c + SYMBOLS[0] * d
        cases = [(zero, (c, CDyadic(0), d)) for zero in (CDyadic(0), ZERO)]
        cases.append((ZERO_FORM, (form, ZERO_FORM, SYMBOLS[1] * c)))
        for zero, coeffs in cases:
            terms = list(zip(coeffs, (a, b, a)))
            dense = SquareMatrix([[zero] * 8] * 8)
            for x, m in terms:
                dense = dense + as_monomial(m).to_dense().map(
                    lambda e, x=x: e * x)
            got = monomial_sum(terms, zero)
            assert got == dense
            assert all(type(e) is type(zero) for row in got.rows for e in row)

    @given(codes)
    def test_render_matches_dense(self, a):
        assert a.render() == as_monomial(a).render()


class TestConstruction:
    def test_rejects_non_permutation(self):
        # the reference's own check
        with pytest.raises(ValueError):
            Monomial((0, 0), (0, 0))
        with pytest.raises(ValueError):
            Monomial((0, 1), (0,))

    @pytest.mark.parametrize("perm, phase", [
        ((1, 2, 0, 3, 4, 5, 6, 7), (0,) * 8),            # a 3-cycle
        ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1) + (0,) * 6),   # a phase i
        ((0, 1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 2) + (0,) * 4),  # sign off Z^z
        ((1, 0, 3, 2, 5, 4, 7, 6), (0, 2) * 3 + (2, 2)),  # sign off X Z^z
    ])
    def test_conversion_rejects_non_pauli(self, perm, phase):
        Monomial(perm, phase)     # a signed permutation all the same
        with pytest.raises(ValueError, match="not a Pauli string"):
            Pauli.from_signed_permutation(list(zip(perm, phase)))

    @given(codes)
    def test_conversion_round_trip(self, a):
        m = as_monomial(a)
        assert Pauli.from_signed_permutation(list(zip(m.perm, m.phase))) == a

    def test_size_mismatch_is_a_type_error(self):
        with pytest.raises(TypeError):
            Monomial.identity(2) @ Monomial.identity(3)
        with pytest.raises(TypeError):
            Monomial.identity(2) @ SquareMatrix.identity(3)
        with pytest.raises(TypeError):
            Pauli(0, 0) @ SquareMatrix.identity(8)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_sigma_expansion_against_matrix_units(self, a):
        pref_i, terms = SIGMA_TERMS[a]
        pref = CDyadic(0, 1) if pref_i else CDyadic(1)
        cells = {(m - 1, n - 1): pref * sign for sign, m, n in terms}
        dense = SquareMatrix([[cells.get((i, j), CDyadic(0)) for j in range(8)]
                              for i in range(8)])
        assert to_dense(beta_sigma_expansion(a)) == dense

    @pytest.mark.parametrize("reading", READINGS)
    def test_generators_against_reference(self, reading):
        assert tuple(map(as_monomial, beta_set(reading).mats)) == \
            reference_betas(reading)

    @pytest.mark.parametrize("reading", READINGS)
    def test_labels(self, reading):
        # each generator is its label's Pauli string, with no extra phase
        for b, label in zip(beta_set(reading).mats, LABELS[reading]):
            assert np.array_equal(complex_array(b), numpy_label(label)), \
                (reading, label)

    def test_phases_reduce_mod_4(self):
        assert Monomial((1, 0), (5, -1)) == Monomial((1, 0), (1, 3))


@pytest.mark.parametrize("reading", READINGS)
class TestDerivedObjects:
    def test_gram(self, reading):
        d = dense_betas(reading)
        assert gram(beta_set(reading)) == SquareMatrix(
            [[trace(a @ b) for b in d] for a in d])

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
        assert signed_table(build_E(beta_set(reading))) == tuple(cells)

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
        # scaled by complex(f_A) and summed over A from a zero array; f
        # takes signed zeros, the subnormal 5e-324, ints, and +-1e300,
        # which tensor's beta_8 = beta_1 adds to 2e300 or cancels
        for f in ([0.3, -0.2, 0.7, 0.1, -0.0, -0.5, 0.4, 0.9],
                  [-0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, 3, -2],
                  [1e300, -0.0, -1e300, 0, 5e-324, 1, -7, 1e300],
                  [-1e300, 5e-324, -0.0, 1e300, 0.0, -5e-324, 0, 1e300]):
            acc = np.zeros((8, 8), dtype=np.complex128)
            for a in range(8):
                acc = acc + complex(f[a]) * complex_array(
                    dense_betas(reading)[a])
            assert np.array(numeric_X(f, beta_set(reading))).tobytes() == \
                acc.tobytes()
