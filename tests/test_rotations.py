"""Symbolic X, exact plane rotations, component extraction, numeric exp."""

import math

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
    build_split_spinor,
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
from octo_so8.rotations import (
    DEFAULT_TOL,
    hermiticity_defect,
    numeric_X,
    substitute_numeric,
    unitarity_defect,
)
from fractions import Fraction

from oracles import (complex_array, dense_rotate, dense_rotation_operator,
                     gram_inverse_projection, octonion_transport, reassemble)

ONES = [Dyadic(1)] * 8
PLANES = [(k, l) for k in range(1, 9) for l in range(k + 1, 9)]
READINGS = ("sigma", "tensor")

dyadics = st.builds(Dyadic, st.integers(-16, 16), st.integers(0, 3))
thetas = st.one_of(st.sampled_from([Dyadic(1), Dyadic(-1)]), dyadics)


def commutator(x, k, l, bs=None):
    """[beta_k beta_l, x]"""
    n = plane_product(k, l, bs)
    return n @ x - x @ n


def trace_of_square(x):
    return sum((x.at(i, j) * x.at(j, i) for i in range(8) for j in range(8)),
               CRational(0))


def span_combination(forms, bs):
    acc = SquareMatrix.zeros(8).map(lambda e: LinearForm.const(e))
    for a in range(8):
        acc = acc + bs.mats[a].to_dense().map(lambda c, f=forms[a]: c * f)
    return acc


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
        rows[0][4] = rows[0][4] + 1
        perturbed = SquareMatrix(rows)
        with pytest.raises(StructureMismatch) as exc:
            block_decompose(perturbed)
        assert (1, 5) in exc.value.cells


class TestRotationOperator:
    def test_matches_fixture_parts(self, fx):
        theta = Dyadic(1, 1)
        expected = fx.eq12_const + fx.eq12_theta.scale(CDyadic(theta))
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
            invert_exact(SquareMatrix.zeros(2))


class TestExactRotation:
    def test_known_tangent_values(self):
        # conjugating f = e_1 in the (1,2) plane at theta = 1/4 must land
        # on ((1-t^2)/(1+t^2), -2t/(1+t^2)) = (15/17, -8/17)
        fvals = [Dyadic(1)] + [Dyadic(0)] * 7
        x_num = substitute_matrix(assemble_X(), fvals)
        rotated = rotate_exact(x_num, 1, 2, Dyadic(1, 2))
        forms, residual = extract_components(rotated)
        comps = [f.constant for f in forms]
        assert comps[0] == CRational(Fraction(15, 17))
        assert comps[1] == CRational(Fraction(-8, 17))
        assert all(c.is_zero() for c in comps[2:])
        assert residual.is_zero()

    def test_preserves_hermiticity_and_trace(self):
        rotated = rotate_exact(assemble_X(), 1, 2, Dyadic(1, 1))
        assert rotated.is_hermitian()
        assert rotated.is_traceless()

    def test_second_order_scaling(self):
        # deviation from the first-order map must drop ~4x when theta halves
        x_num = substitute_matrix(assemble_X(), ONES)

        def deviation(theta):
            exact = rotate_exact(x_num, 1, 2, theta)
            first = x_num + commutator(x_num, 1, 2).scale(theta)
            diff = exact - first
            return max(abs(complex(e)) for row in diff.rows for e in row)

        ratio = deviation(Dyadic(1, 6)) / deviation(Dyadic(1, 7))
        assert 3.5 <= ratio <= 4.5


class TestClosedFormAgainstGaussJordan:
    """rotate_exact's closed form against (I + theta N) x GJ(I + theta N)."""

    @settings(max_examples=8, deadline=None)
    @given(theta=thetas, fvals=st.lists(dyadics, min_size=8, max_size=8))
    @example(theta=Dyadic(1), fvals=ONES)
    @example(theta=Dyadic(-1), fvals=ONES)
    def test_all_planes_both_readings(self, theta, fvals):
        for reading in READINGS:
            bs = beta_set(reading)
            x = substitute_matrix(assemble_X(bs), fvals)
            tr, tr2 = x.trace(), trace_of_square(x)
            for k, l in PLANES:
                try:
                    want = dense_rotate(x, k, l, theta, bs)
                except SingularRotation:
                    with pytest.raises(SingularRotation):
                        rotate_exact(x, k, l, theta, bs)
                    continue
                got = rotate_exact(x, k, l, theta, bs)
                assert got == want, (reading, k, l, theta)
                for m in (got, want):
                    assert m.trace() == tr
                    assert trace_of_square(m) == tr2

    @pytest.mark.parametrize("reading", READINGS)
    def test_symbolic_X_all_planes(self, reading):
        bs, theta = beta_set(reading), Dyadic(3, 3)
        x = assemble_X(bs)
        for k, l in PLANES:
            assert rotate_exact(x, k, l, theta, bs) == \
                dense_rotate(x, k, l, theta, bs), (k, l)

    def test_scalar_plane_product_under_tensor(self):
        # beta_8 repeats beta_1 in the tensor reading, so N_18 = I and
        # R = (1 + theta) I: regular at theta = 1, singular at -1
        bs = beta_set("tensor")
        x = assemble_X(bs)
        assert plane_product(1, 8, bs) == SquareMatrix.identity(8)
        assert rotate_exact(x, 1, 8, Dyadic(1), bs) == x
        with pytest.raises(SingularRotation,
                           match=r"^rotation of plane \(1,8\) with "
                                 r"theta=-1 is singular$"):
            rotate_exact(x, 1, 8, Dyadic(-1), bs)


class TestFirstOrder:
    def test_commutator_matches_fixture(self, fx):
        assert commutator(assemble_X(), 1, 2) == fx.eq13.scale(2)

    def test_increment_is_linear_in_theta(self):
        # the component map's increment f' - f doubles with theta
        cm = rotation_component_map(1, 2)
        f = [Dyadic(k, 1) for k in range(1, 9)]
        a = [v - w for v, w in zip(cm.apply(f, Dyadic(1, 2)), f)]
        b = [v - w for v, w in zip(cm.apply(f, Dyadic(1, 1)), f)]
        assert b == [2 * v for v in a]
        assert any(not v.is_zero() for v in a)


class TestComponentExtraction:
    def test_projection_of_X_is_identity_map(self):
        forms, residual = extract_components(assemble_X())
        assert residual.is_zero()
        for a in range(8):
            assert forms[a] == LinearForm.symbol(a + 1)

    def test_reconstruction_is_exact(self):
        bs = beta_set()
        comm = commutator(assemble_X(), 1, 2)
        forms, residual = extract_components(comm)
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

    def test_apply(self):
        cm = rotation_component_map(1, 2)
        out = cm.apply([Dyadic(1)] + [Dyadic(0)] * 7, Dyadic(1, 2))
        assert out[1] == CDyadic(Dyadic(-1, 1))  # f2' = -2*theta*f1 = -1/2

    def test_trace_projection_equals_gram_inverse(self):
        bs = beta_set("sigma")
        x = assemble_X(bs)
        mats = [x, substitute_matrix(x, ONES)]
        mats += [commutator(x, k, l, bs) for k, l in PLANES]
        mats.append(rotate_exact(substitute_matrix(x, ONES), 3, 7,
                                 Dyadic(3, 3), bs))
        for m in mats:
            assert extract_components(m, bs) == gram_inverse_projection(m, bs)

    def test_degenerate_basis_detected(self):
        with pytest.raises(DegenerateBasis):
            extract_components(SquareMatrix.zeros(8), beta_set("tensor"))


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
        # tol bounds only the last Taylor term of the scaled series; the
        # error of e^X itself stays under the spinor bound of 1e-9
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
                (build_split_spinor().components,
                 substitute_numeric(fx.eq21_y1 + fx.eq21_y2, f))]

    @pytest.mark.parametrize("reading", READINGS)
    def test_bit_identical_to_per_term_sums(self, fx, reading):
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            f = list(rng.standard_normal(8) * rng.uniform(0.01, 30, 8))
            for psi, m in self.cases(fx, reading, f):
                assert spinor_transform(psi, m).tobytes() == \
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
