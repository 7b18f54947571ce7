"""Symbolic X, exact plane rotations, component extraction, numeric exp.

The rotations read each plane off the generator table; every check
compares them with dense products, Gauss-Jordan inverses and the
Gram-inverse trace projection of ``oracles``."""

import functools
import json
import math
import operator
import random
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octo_so8 import (
    CDyadic,
    CRational,
    DegenerateBasis,
    Dyadic,
    LinearForm,
    NonFiniteInput,
    SingularRotation,
    SquareMatrix,
    StructureMismatch,
    ToleranceNotMet,
    assemble_X,
    beta_set,
    block_decompose,
    build_split_basis,
    duplicate_rotation_scan,
    extract_components,
    invert_exact,
    matrix_exp,
    plane_product,
    render_linear_form,
    rotate_exact,
    rotation_component_map,
    spinor_transform,
    standard_spinor,
    substitute_matrix,
)
from octo_so8.cli import main
from octo_so8.matrices import Monomial, monomial_sum
from octo_so8.rotations import (
    DEFAULT_TOL,
    SYMBOLS,
    ZERO_FORM,
    commutator_terms,
    hermiticity_defect,
    numeric_X,
    unitarity_defect,
)
from oracles import (complex_array, dense_rotate, dense_rotation_operator,
                     gram_inverse_projection, octonion_transport, reassemble,
                     substitute_numeric)

ONES = [Dyadic(1)] * 8
PLANES = [(k, l) for k in range(1, 9) for l in range(k + 1, 9)]
READINGS = ("sigma", "tensor")

dyadics = st.builds(Dyadic, st.integers(-16, 16), st.integers(0, 3))
thetas = st.one_of(st.sampled_from([Dyadic(1), Dyadic(-1)]), dyadics)


def commutator(x, k, l, bs=None):
    """[beta_k beta_l, x] by dense products"""
    n = plane_product(k, l, bs).to_dense()
    return n @ x - x @ n


def trace_of_square(x):
    return sum((x.at(i, j) * x.at(j, i) for i in range(8) for j in range(8)),
               CRational(0))


def span_combination(forms, bs):
    return functools.reduce(operator.add, (
        bs.mats[a].to_dense().map(lambda c, f=forms[a]: c * f)
        for a in range(8)))


def rebuild(rotated, bs=None):
    """sum_A f'_A beta_A + residual for rotate_exact's (f', residual)."""
    forms, residual = rotated
    return span_combination(forms, bs or beta_set()) + residual


# i**q I for q = 0..3
UNITS = [Monomial(range(8), [q] * 8) for q in range(4)]


class TestSymbolicX:
    def test_matches_fixture(self, fx):
        assert assemble_X() == fx.eq6

    def test_hermitian_traceless(self):
        x = assemble_X()
        assert x.is_hermitian()
        assert x.is_traceless()

    def test_block_decomposition(self, fx):
        dec = block_decompose(assemble_X())
        assert dec.a == fx.eq6.block(0, 0, 4)
        assert dec.b == fx.eq6.block(1, 0, 4)
        assert reassemble(dec) == assemble_X()

    def test_block_mismatch_located(self):
        rows = [list(r) for r in assemble_X().rows]
        rows[0][4] = rows[0][4] + LinearForm([1] + [0] * 8)
        perturbed = SquareMatrix(rows)
        with pytest.raises(StructureMismatch) as exc:
            block_decompose(perturbed)
        assert (1, 5) in exc.value.cells


class TestRotationOperator:
    def test_matches_fixture_parts(self, fx):
        theta = Dyadic(1, 1)
        expected = fx.eq12_const + fx.eq12_theta.scale(theta)
        assert dense_rotation_operator(1, 2, theta) == expected
        assert fx.eq12_const == SquareMatrix.identity(8)
        assert fx.eq12_theta == plane_product(1, 2)

    def test_plane_validation(self):
        with pytest.raises(ValueError):
            plane_product(1, 1)
        with pytest.raises(ValueError):
            plane_product(0, 2)

    def test_exact_inverse(self):
        # R's entries are already exact scalars: no conversion before
        # the elimination
        r = dense_rotation_operator(1, 2, Dyadic(1, 1))
        assert all(type(e) is CRational for row in r.rows for e in row)
        assert r @ invert_exact(r) == SquareMatrix.identity(8)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularRotation):
            invert_exact(SquareMatrix([[CRational(0)] * 2] * 2))


class TestExactRotation:
    def test_known_tangent_values(self):
        # conjugating f = e_1 in the (1,2) plane at theta = 1/4 must land
        # on ((1-t^2)/(1+t^2), -2t/(1+t^2)) = (15/17, -8/17)
        fvals = [Dyadic(1)] + [Dyadic(0)] * 7
        comps, residual = rotate_exact(fvals, 1, 2, Dyadic(1, 2))
        assert comps[0] == CRational(15, 0, 17)
        assert comps[1] == CRational(-8, 0, 17)
        assert all(c.is_zero() for c in comps[2:])
        assert residual.is_zero()

    def test_preserves_hermiticity_and_trace(self):
        rotated = rebuild(rotate_exact(SYMBOLS, 1, 2, Dyadic(1, 1)))
        assert rotated.is_hermitian()
        assert rotated.is_traceless()

    def test_second_order_scaling(self):
        # deviation from the first-order map must drop ~4x when theta halves
        x_num = substitute_matrix(assemble_X(), ONES)

        def deviation(theta):
            exact = rebuild(rotate_exact(ONES, 1, 2, theta))
            first = x_num + commutator(x_num, 1, 2).scale(theta)
            diff = exact - first
            return max(abs(complex(e)) for row in diff.rows for e in row)

        ratio = deviation(Dyadic(1, 6)) / deviation(Dyadic(1, 7))
        assert 3.5 <= ratio <= 4.5

    def test_singular_rotation_is_named(self):
        # N^2 = +I on a plane of commuting generators: R is singular at
        # theta = +-1, and so is the dense oracle's elimination
        k, l = next(p for p in PLANES
                    if plane_product(*p) @ plane_product(*p) == UNITS[0])
        x = substitute_matrix(assemble_X(), ONES)
        for theta in (Dyadic(1), Dyadic(-1)):
            with pytest.raises(SingularRotation):
                dense_rotate(x, k, l, theta)
            with pytest.raises(SingularRotation,
                               match=rf"^rotation of plane \({k},{l}\) with "
                                     rf"theta={theta} is singular$"):
                rotate_exact(ONES, k, l, theta)


class TestClosedFormAgainstGaussJordan:
    """rotate_exact's table rule against the Gram-inverse projection of
    (I + theta N) X(f) GJ(I + theta N)."""

    @settings(max_examples=8, deadline=None)
    @given(theta=thetas, fvals=st.lists(dyadics, min_size=8, max_size=8))
    @example(theta=Dyadic(1), fvals=ONES)
    @example(theta=Dyadic(-1), fvals=ONES)
    def test_all_planes_both_readings(self, theta, fvals):
        bs = beta_set("sigma")
        x = substitute_matrix(assemble_X(bs), fvals)
        tr, tr2 = x.trace(), trace_of_square(x)
        for k, l in PLANES:
            try:
                want = dense_rotate(x, k, l, theta, bs)
            except SingularRotation:
                with pytest.raises(SingularRotation):
                    rotate_exact(fvals, k, l, theta, bs)
                continue
            got = rotate_exact(fvals, k, l, theta, bs)
            assert got == gram_inverse_projection(want, bs), (k, l, theta)
            assert rebuild(got, bs) == want
            for m in (rebuild(got, bs), want):
                assert m.trace() == tr
                assert trace_of_square(m) == tr2
        # beta_8 repeats beta_1 under tensor: no projection to read
        tensor = beta_set("tensor")
        for k, l in PLANES:
            with pytest.raises(DegenerateBasis):
                rotate_exact(fvals, k, l, theta, tensor)

    @pytest.mark.parametrize("reading", READINGS)
    def test_symbolic_X_all_planes(self, reading):
        bs, theta = beta_set(reading), Dyadic(3, 3)
        x = assemble_X(bs)
        for k, l in PLANES:
            if reading == "tensor":
                with pytest.raises(DegenerateBasis):
                    rotate_exact(SYMBOLS, k, l, theta, bs)
                continue
            want = dense_rotate(x, k, l, theta, bs)
            got = rotate_exact(SYMBOLS, k, l, theta, bs)
            assert got == gram_inverse_projection(want, bs), (k, l)

    def test_scalar_plane_product_under_tensor(self):
        # beta_8 repeats beta_1 in the tensor reading, so N_18 = I and
        # R = (1 + theta) I: regular at theta = 1, singular at -1.  The
        # Gram matrix is singular too, and rotate_exact says so first
        bs = beta_set("tensor")
        x = assemble_X(bs)
        assert plane_product(1, 8, bs) == SquareMatrix.identity(8)
        assert dense_rotate(x, 1, 8, Dyadic(1), bs) == x
        with pytest.raises(SingularRotation):
            dense_rotate(x, 1, 8, Dyadic(-1), bs)
        with pytest.raises(DegenerateBasis,
                           match=r"^generator Gram matrix is singular$"):
            rotate_exact(SYMBOLS, 1, 8, Dyadic(-1), bs)


class TestFirstOrder:
    def test_commutator_matches_fixture(self, fx):
        assert commutator(assemble_X(), 1, 2) == fx.eq13.scale(2)
        terms = commutator_terms(plane_product(1, 2), SYMBOLS)
        assert monomial_sum(terms, ZERO_FORM) == fx.eq13.scale(2)

    def test_increment_is_linear_in_theta(self):
        # the component map's increment f' - f doubles with theta
        cm = rotation_component_map(1, 2)
        f = [Dyadic(k, 1) for k in range(1, 9)]
        a = [Dyadic(1, 2) * line.substitute(f) for line in cm.lines]
        b = [Dyadic(1, 1) * line.substitute(f) for line in cm.lines]
        assert b == [2 * v for v in a]
        assert any(not v.is_zero() for v in a)


class TestComponentExtraction:
    def test_projection_of_X_is_identity_map(self):
        # X projects onto the symbols, and a rotation by theta = 0 leaves
        # every component alone with nothing outside the span
        symbols = tuple(LinearForm.symbol(a) for a in range(1, 9))
        forms, residual = gram_inverse_projection(assemble_X())
        assert forms == symbols and residual.is_zero()
        for k, l in PLANES:
            forms, residual = rotate_exact(symbols, k, l, Dyadic(0))
            assert forms == symbols and residual.is_zero()

    def test_reconstruction_is_exact(self):
        bs = beta_set()
        comm = commutator(assemble_X(), 1, 2)
        forms, residual = extract_components(plane_product(1, 2), SYMBOLS)
        assert span_combination(forms, bs) + residual == comm

    def test_component_map_lines(self):
        cm = rotation_component_map(1, 2)
        rendered = [render_linear_form(f) for f in cm.lines]
        assert rendered == ["2*f2", "-2*f1", "0", "0",
                            "2*f6", "-2*f5", "2*f8", "-2*f7"]

    def test_component_map_residual_cells(self):
        cm = rotation_component_map(1, 2)
        cells = [(i, j, render_linear_form(e))
                 for i, j, e in cm.residual.nonzero_cells()]
        assert cells == [
            (1, 8, "-2*f4"), (2, 7, "2*f4"), (3, 6, "2*f4"), (4, 5, "-2*f4"),
            (5, 4, "-2*f4"), (6, 3, "2*f4"), (7, 2, "2*f4"), (8, 1, "-2*f4"),
        ]

    def test_lines_at_f(self):
        cm = rotation_component_map(1, 2)
        f = [Dyadic(1)] + [Dyadic(0)] * 7
        # f2' = f2 - 2*theta*f1 = -1/2
        assert f[1] + Dyadic(1, 2) * cm.lines[1].substitute(f) == \
            CDyadic(-1, 0, 2)

    def test_projection_keeps_the_entry_type(self):
        bs = beta_set()
        x = assemble_X()
        f = [Dyadic(k, 2) for k in range(1, 9)]
        x_num = substitute_matrix(x, f)
        for vals, m, kind in ((SYMBOLS, x, LinearForm),
                              (f, x_num, CRational)):
            for k, l in ((1, 2), (3, 7)):
                forms, residual = extract_components(plane_product(k, l), vals)
                assert all(type(v) is kind for v in forms)
                assert all(type(e) is kind
                           for row in residual.rows for e in row)
                assert span_combination(forms, bs) + residual == \
                    commutator(m, k, l)
                forms, residual = rotate_exact(vals, k, l, Dyadic(3, 3))
                assert all(type(v) is kind for v in forms)
                assert all(type(e) is kind
                           for row in residual.rows for e in row)

    def test_trace_projection_equals_gram_inverse(self):
        bs = beta_set("sigma")
        x = assemble_X(bs)
        x_num = substitute_matrix(x, ONES)
        for k, l in PLANES:
            n = plane_product(k, l, bs)
            assert extract_components(n, SYMBOLS, bs) == \
                gram_inverse_projection(commutator(x, k, l, bs), bs), (k, l)
            assert extract_components(n, ONES, bs) == \
                gram_inverse_projection(commutator(x_num, k, l, bs), bs)
        assert rotate_exact(ONES, 3, 7, Dyadic(3, 3), bs) == \
            gram_inverse_projection(dense_rotate(x_num, 3, 7, Dyadic(3, 3),
                                                 bs), bs)

    @pytest.mark.parametrize("k, l", PLANES)
    def test_numeric_rotate_against_the_symbolic_map(self, capsys, k, l):
        # numeric rotate evaluates the first-order map at f; the symbolic
        # map evaluated at f must give the same f' and residual maximum
        rng = random.Random(f"first-order {k} {l}")
        theta = Dyadic(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]),
                       rng.randint(1, 3))
        f = [Dyadic(rng.randint(-8, 8), rng.randint(0, 2)) for _ in range(8)]
        assert main(["rotate", str(k), str(l), f"--theta={theta}",
                     "--f=" + ",".join(map(str, f)), "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["first_order"]
        cm = rotation_component_map(k, l)
        assert got["f_prime"] == [str(f[a] + theta * cm.lines[a].substitute(f))
                                  for a in range(8)]
        assert got["residual_max"] == abs(float(theta)) * max(
            abs(complex(e.substitute(f))) for row in cm.residual.rows
            for e in row)

    def test_degenerate_basis_detected(self):
        bs = beta_set("tensor")
        calls = (lambda: extract_components(plane_product(1, 2, bs), ONES, bs),
                 lambda: rotation_component_map(1, 2, bs),
                 lambda: rotate_exact(ONES, 1, 2, Dyadic(1, 2), bs))
        for call in calls:
            with pytest.raises(DegenerateBasis,
                               match=r"^generator Gram matrix is singular$"):
                call()


class TestGeneratorTable:
    """The structural facts behind reading rotations off the generator
    table, checked on dense matrices."""

    @pytest.mark.parametrize("reading", READINGS)
    def test_each_plane_commutes_or_anticommutes(self, reading):
        bs = beta_set(reading)
        dense = [b.to_dense() for b in bs.mats]
        kinds = Counter()
        for k, l in PLANES:
            n = plane_product(k, l, bs).to_dense()
            for b in dense:
                if n @ b == b @ n:
                    kinds["commute"] += 1
                else:
                    assert n @ b == -(b @ n), (reading, k, l)
                    kinds["anticommute"] += 1
        if reading == "sigma":
            assert kinds == {"commute": 104, "anticommute": 120}

    @pytest.mark.parametrize("reading", READINGS)
    def test_monomial_sums_against_dense(self, reading):
        bs = beta_set(reading)
        x = assemble_X(bs)
        assert x == span_combination(SYMBOLS, bs)
        for k, l in PLANES:
            terms = commutator_terms(plane_product(k, l, bs), SYMBOLS, bs)
            assert monomial_sum(terms, ZERO_FORM) == commutator(x, k, l, bs)

    def test_products_outside_the_span_have_zero_trace(self):
        bs = beta_set("sigma")
        dense = [b.to_dense() for b in bs.mats]
        span = [(u @ b).to_dense() for b in bs.mats for u in UNITS]
        inside = outside = 0
        for k, l in PLANES:
            for _, m in commutator_terms(plane_product(k, l, bs), ONES, bs):
                m = m.to_dense()
                if m in span:
                    inside += 1
                    continue
                outside += 1
                assert all((b @ m).trace().is_zero() for b in dense), (k, l)
        assert (inside, outside) == (52, 68)

    def test_tensor_lookup_is_ambiguous(self):
        # i**q beta_1 and i**q beta_8 are the same monomial, and some
        # anticommuting product N beta_B is one of them
        bs = beta_set("tensor")
        assert bs.beta(8) == bs.beta(1)
        assert len({u @ b for b in bs.mats for u in UNITS}) == 28
        twice = {u @ bs.beta(1) for u in UNITS}
        assert any(m in twice for k, l in PLANES
                   for _, m in commutator_terms(plane_product(k, l, bs),
                                                ONES, bs))

    def test_gram_checked_before_theta(self):
        # N_18 = I under tensor, so 1 - s theta^2 = 0 at theta = 1 although
        # R = 2I is regular; the Gram matrix is checked first
        with pytest.raises(DegenerateBasis):
            rotate_exact(ONES, 1, 8, Dyadic(1), beta_set("tensor"))


class TestDuplicatePlanes:
    def test_class_of_plane_1_2(self):
        classes = duplicate_rotation_scan()
        cls = next(c for c in classes if (1, 2) in c)
        assert cls == ((1, 2), (5, 6), (7, 8))

    def test_partition_of_all_28_pairs(self):
        classes = duplicate_rotation_scan()
        sizes = sorted(len(c) for c in classes)
        assert sum(sizes) == 28
        assert len(classes) == 23
        assert sizes.count(3) == 1 and sizes.count(2) == 3

    def test_duplicate_planes_share_operator(self):
        theta = Dyadic(3, 2)
        r12 = dense_rotation_operator(1, 2, theta)
        assert dense_rotation_operator(5, 6, theta) == r12
        assert dense_rotation_operator(7, 8, theta) == r12


class TestNumericExponential:
    def test_zero_gives_exact_identity(self):
        e = matrix_exp(np.zeros((8, 8)))
        assert np.array_equal(e, np.eye(8, dtype=np.complex128))

    def test_against_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            a *= 0.8
            assert np.max(np.abs(matrix_exp(a) - scipy.linalg.expm(a))) < 1e-9

    @pytest.mark.parametrize("reading", ["sigma", "tensor"])
    def test_relative_error_on_generator_sums(self, reading):
        # tol bounds the backward error, ||dX||_inf <= tol*||X||_inf;
        # the forward error of e^X stays under the spinor bound of 1e-9
        rng = np.random.default_rng(20261018)
        bs = beta_set(reading)
        worst = 0.0
        for _ in range(300):
            f = rng.standard_normal(8) * rng.uniform(0.01, 30, 8)
            x = numeric_X(list(f), bs)
            ref = scipy.linalg.expm(x)
            err = np.max(np.abs(matrix_exp(x) - ref)) / np.max(np.abs(ref))
            worst = max(worst, err)
        assert worst < 1e-9

    def test_diagonal_oracle(self):
        d = np.diag([0.5, -1.0, 2.0, 0.0]).astype(np.complex128)
        expected = np.diag(np.exp([0.5, -1.0, 2.0, 0.0]))
        assert np.max(np.abs(matrix_exp(d) - expected)) < 1e-12

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = a + a.conj().T
        assert unitarity_defect(matrix_exp(1j * h)) < 1e-9

    def test_hermitian_input_gives_hermitian_exp(self):
        e = matrix_exp(numeric_X([0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4, 0.9]))
        assert hermiticity_defect(e) < 1e-10

    def test_tolerance_not_met(self):
        with pytest.raises(ToleranceNotMet):
            matrix_exp(np.eye(2), tol=1e-300)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            matrix_exp(np.full((2, 2), np.nan))

    def test_overflowing_result_rejected(self):
        with pytest.raises(NonFiniteInput, match="overflows"):
            matrix_exp(np.diag([1000.0, 0.0]))

    def test_f8_only_diagonal(self):
        e = matrix_exp(numeric_X([0.0] * 7 + [math.log(2.0)]))
        expected = np.diag([2.0, 2.0, 0.5, 0.5, 0.5, 0.5, 2.0, 2.0])
        assert np.max(np.abs(e - expected)) < 10 * DEFAULT_TOL


class TestListExponential:
    """The exponential over lists of complex, against scipy.linalg.expm
    on the fixture Y of spinor --split; the generator sums X are
    covered above."""

    def test_zero_gives_identity_rows(self):
        e = matrix_exp([[0j] * 8 for _ in range(8)])
        assert e == [[complex(i == j) for j in range(8)] for i in range(8)]
        assert all(type(v) is complex for row in e for v in row)

    def test_fixture_Y_against_scipy(self, fx):
        y = fx.eq21_y1 + fx.eq21_y2
        rng = np.random.default_rng(20261019)
        worst = 0.0
        for _ in range(100):
            f = list(rng.standard_normal(8) * rng.uniform(0.01, 30, 8))
            m = substitute_numeric(y, f)
            ref = scipy.linalg.expm(np.array(m))
            err = np.max(np.abs(matrix_exp(m) - ref)) / np.max(np.abs(ref))
            worst = max(worst, err)
        assert worst < 1e-9

    @pytest.mark.parametrize("f", [
        [1.0] + [0.0] * 7,
        [0.0] * 7 + [-2.5],
        [0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4, 0.9],
        [12.0, -7.5, 3.25, 0.0, -9.0, 4.0, 0.5, -1.0],
    ], ids=["f1", "f8", "small", "large"])
    def test_fixture_Y_at_stated_f(self, fx, f):
        m = substitute_numeric(fx.eq21_y1 + fx.eq21_y2, f)
        ref = scipy.linalg.expm(np.array(m))
        err = np.max(np.abs(matrix_exp(m) - ref)) / np.max(np.abs(ref))
        assert err < 1e-9

    @pytest.mark.parametrize("reading", READINGS)
    def test_hermitian_X_gives_exactly_hermitian_exp(self, reading):
        # X is Hermitian, so every product is summed on one triangle and
        # mirrored: e^X comes back exactly Hermitian, its diagonal real
        rng = np.random.default_rng(20261020)
        bs = beta_set(reading)
        for _ in range(50):
            f = list(rng.standard_normal(8) * rng.uniform(0.01, 30, 8))
            e = matrix_exp(numeric_X(f, bs))
            assert hermiticity_defect(e) == 0.0
            assert all(e[i][i].imag == 0.0 for i in range(8))

    def test_non_hermitian_input_takes_the_general_product(self):
        # the same X with one entry nudged off its conjugate
        x = numeric_X([0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4, 0.9])
        x[0][1] += 1e-3
        ref = scipy.linalg.expm(np.array(x))
        e = matrix_exp(x)
        assert np.max(np.abs(e - ref)) / np.max(np.abs(ref)) < 1e-9
        assert hermiticity_defect(e) > 1e-4

    def test_list_and_array_inputs_agree(self):
        x = numeric_X([0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4, 0.9])
        assert matrix_exp(np.array(x)) == matrix_exp(x)


class TestNumericHelpers:
    def test_numeric_X_matches_symbolic_substitution(self):
        fvals = [Dyadic(k, 1) for k in range(1, 9)]
        sym = substitute_matrix(assemble_X(), fvals)
        assert np.allclose(complex_array(sym),
                           numeric_X([float(v) for v in fvals]))

    def test_spinor_transform_at_zero(self):
        out = spinor_transform(standard_spinor(), np.zeros((8, 8)))
        assert np.array_equal(out, np.eye(8))

    def test_spinor_length_checked(self):
        with pytest.raises(ValueError):
            spinor_transform(standard_spinor()[:3], np.zeros((8, 8)))


class TestTransportOracle:
    """spinor_transform's one product e^X C against per-term Octonion
    sums of exp(X)_ij psi_j."""

    def cases(self, fx, reading, f):
        bs = beta_set(reading)
        return [(standard_spinor(), numeric_X(f, bs)),
                (build_split_basis(),
                 substitute_numeric(fx.eq21_y1 + fx.eq21_y2, f))]

    @pytest.mark.parametrize("reading", READINGS)
    def test_bit_identical_to_per_term_sums(self, fx, reading):
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            f = list(rng.standard_normal(8) * rng.uniform(0.01, 30, 8))
            for psi, m in self.cases(fx, reading, f):
                assert np.array(spinor_transform(psi, m)).tobytes() == \
                    octonion_transport(psi, m).tobytes()

    # the benchmark's two overflowing spinor inputs
    @pytest.mark.parametrize("reading, f", [
        ("sigma", [1000.0] + [0.0] * 7),
        ("tensor", [0.0] * 7 + [-1500.0]),
    ])
    def test_overflow_inputs_still_raise(self, fx, reading, f):
        for psi, m in self.cases(fx, reading, f):
            for transport in (spinor_transform, octonion_transport):
                with pytest.raises(NonFiniteInput, match="overflows"):
                    transport(psi, m)
