"""matrix_exp's choice of Taylor degree and scaling, checked without scipy.

The theta_m tables are recomputed from the backward-error series in
exact rationals; the guarantee is checked against an exact rational
Taylor sum of X at dyadic f; the Paterson-Stockmeyer evaluation is held
to its product counts; the evaluation, and its early overflow verdict,
are checked bit for bit against the reference exponential of
tests/oracles.py; and the fixture Y by scatter is checked bit for bit
against substituting every coefficient.
"""

import math
import random
import statistics
import struct
import sys
from fractions import Fraction

import pytest

from octo_so8 import (CRational, NonFiniteInput, SquareMatrix,
                      ToleranceNotMet, beta_set)
from octo_so8 import rotations
from octo_so8.fixtures import load_y_terms
from octo_so8.matrices import monomial_sum
from octo_so8.rotations import (_DEGREES, _THETA, DEFAULT_TOL, matrix_exp,
                                numeric_X, substitute_terms)
from oracles import matrix_exp_reference, substitute_numeric

READINGS = ("sigma", "tensor")
TERMS = 60   # terms of a series summed exactly; the rest is bounded


# ---------------------------------------------------------------------------
# the theta_m tables

def exp_upper(x: Fraction, terms: int = TERMS) -> Fraction:
    """A rational upper bound on e^x for rational 0 <= x < terms + 2:
    T_terms(x) plus x^(terms+1) / (terms+1)! / (1 - x / (terms+2))."""
    head = sum(x ** k / math.factorial(k) for k in range(terms + 1))
    return head + (x ** (terms + 1) / math.factorial(terms + 1)
                   / (1 - x / (terms + 2)))


def inverse_taylor(m: int, terms: int = TERMS) -> list:
    """q_0..q_terms of 1/T_m(x), T_m the degree-m Taylor polynomial of
    e^x: q_0 = 1, q_k = -sum_(j=1..m) q_(k-j) / j!."""
    inv = [Fraction(1, math.factorial(j)) for j in range(m + 1)]
    q = [Fraction(1)]
    for k in range(1, terms + 1):
        q.append(-sum(q[k - j] * inv[j] for j in range(1, min(k, m) + 1)))
    return q


def backward_error(m: int, theta: Fraction):
    """(partial, tail) of sum_k |c_k| theta^(k-1), where h_(m+1)(x) =
    log(e^-x T_m(x)) = sum_k c_k x^k: the exact sum of its first
    TERMS + 1 terms, and a rigorous bound on the rest.

    h' = -x^m / (m! T_m(x)), so c_(m+1+k) = -q_k / (m! (m+1+k)) with q
    from inverse_taylor.  For 0 <= r <= rho = theta + 1 and |z| = r,
    |T_m(z)| >= |e^z| - |e^z - T_m(z)| >= e^-rho - (e^rho - T_m(rho)),
    which is low > 0; so 1/T_m is analytic on the disc, |q_k| <=
    rho^-k / low (Cauchy), and the tail is under a geometric series.
    """
    q = inverse_taylor(m)
    mf = math.factorial(m)
    partial = sum(abs(qk) * theta ** (m + k) / (mf * (m + 1 + k))
                  for k, qk in enumerate(q))
    rho = theta + 1
    e_rho = exp_upper(rho)
    low = 1 / e_rho - (e_rho - sum(rho ** k / math.factorial(k)
                                   for k in range(m + 1)))
    assert low > 0
    ratio = theta / rho
    tail = (theta ** m * ratio ** (TERMS + 1)
            / (low * mf * (m + TERMS + 2) * (1 - ratio)))
    return partial, tail


def test_paterson_stockmeyer_costs():
    assert [m for m, _ in _DEGREES] == [6, 9, 12, 16, 20, 25, 30]
    assert all(m % p == 0 for m, p in _DEGREES)
    assert [(p - 1) + (m // p - 1) for m, p in _DEGREES] == \
        [3, 4, 5, 6, 7, 8, 9]


@pytest.mark.parametrize("tol, thetas", _THETA, ids=["2^-40", "2^-53"])
def test_theta_tables_from_the_backward_error_series(tol, thetas):
    # each literal meets tol, and is rounded down by less than 2^-10
    assert len(thetas) == len(_DEGREES)
    for (m, _), theta in zip(_DEGREES, thetas):
        partial, tail = backward_error(m, Fraction(theta))
        assert partial + tail <= Fraction(tol), (m, theta)
        above, _ = backward_error(m, Fraction(theta) * (1 + Fraction(1, 1024)))
        assert above > Fraction(tol), (m, theta)


# ---------------------------------------------------------------------------
# the guarantee, against an exact Taylor sum at dyadic f

def exact_X(f, bs):
    return monomial_sum(zip(f, bs.mats), CRational(0))


def abs_upper(z: CRational) -> Fraction:
    """|re| + |im| >= |z|, exactly."""
    return Fraction(abs(z.a) + abs(z.b), z.d)


def exact_exp(x: SquareMatrix, norm: Fraction):
    """(E, r): the exact Taylor sum E of e^x whose remainder has
    max-row-sum norm r or less."""
    k, term, total = 0, SquareMatrix.identity(8), SquareMatrix.identity(8)
    while True:
        if k + 2 > 2 * norm:
            rest = norm ** (k + 1) / math.factorial(k + 1) / (1 - norm / (k + 2))
            if rest < Fraction(1, 10 ** 30):
                return total, rest
        k += 1
        term = (term @ x).scale(CRational(1, 0, k))
        total = total + term


DYADIC_F = [
    [Fraction(1, 64)] + [Fraction(0)] * 7,
    [Fraction(n, 8) for n in (4, -2, 3, 0, 8, -1, 2, 6)],
    [Fraction(n, 16) for n in (48, -32, 8, 20, -14, 32, 1, -24)],
]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 2.0 ** -53],
                         ids=["2^-40", "2^-53"])
@pytest.mark.parametrize("reading", READINGS)
@pytest.mark.parametrize("f", DYADIC_F, ids=["tiny", "small", "large"])
def test_backward_error_bound_against_exact_taylor_sum(f, reading, tol):
    # e^(X + dX) with ||dX|| <= tol ||X|| is within tol ||X|| e^(||X||
    # (1 + tol)) of e^X; rounding adds to that: some twenty binary64
    # products at these norms err by about 1e-15 relative, which
    # 2^-44 max|e^X| covers with room
    bs = beta_set(reading)
    x = exact_X([CRational(v.numerator, 0, v.denominator) for v in f], bs)
    norm = max(sum(abs_upper(e) for e in row) for row in x.rows)
    e, rest = exact_exp(x, norm)
    got = matrix_exp(numeric_X([float(v) for v in f], bs), tol)
    scale = max(abs_upper(v) for row in e.rows for v in row)
    t = Fraction(tol)
    bound = (t * norm * exp_upper(norm * (1 + t)) + rest
             + scale * Fraction(1, 2 ** 44))
    err = max(abs(Fraction(g.real) - Fraction(w.a, w.d))
              + abs(Fraction(g.imag) - Fraction(w.b, w.d))
              for grow, wrow in zip(got, e.rows)
              for g, w in zip(grow, wrow))
    assert err <= bound


# ---------------------------------------------------------------------------
# degree, scaling and product counts

@pytest.fixture()
def products(monkeypatch):
    """A one-cell count of the 8x8 matrix products, the series' ones
    (the chirality route's products are 4x4)."""
    count = [0]
    real = rotations._matmul

    def counted(*args):
        if len(args[0]) == 8:
            count[0] += 1
        return real(*args)
    monkeypatch.setattr(rotations, "_matmul", counted)
    return count


def fewest_products(m, thetas) -> int:
    """min over the degrees of the Paterson-Stockmeyer cost plus s, the
    least s >= 0 with ||m|| <= 2^s theta_m, found in exact rationals."""
    norm = Fraction(max(sum(map(abs, row)) for row in m))
    best = None
    for (deg, p), theta in zip(_DEGREES, thetas):
        s = 0
        while norm > Fraction(theta) * 2 ** s:
            s += 1
        cost = (p - 1) + (deg // p - 1) + s
        best = cost if best is None else min(best, cost)
    return best


def bench_like_f(rng) -> list:
    """f as the benchmark's spinor workload draws it."""
    return [rng.gauss(0, 1) * rng.uniform(0.05, 4) for _ in range(8)]


def count(products, m, tol=DEFAULT_TOL) -> int:
    products[0] = 0
    matrix_exp(m, tol)
    return products[0]


def test_fewest_products_on_benchmark_like_inputs(products):
    rng = random.Random("matrix_exp products")
    xs, ys, y_terms = [], [], load_y_terms()
    for _ in range(100):
        f = bench_like_f(rng)
        for reading in READINGS:
            x = numeric_X(f, beta_set(reading))
            xs.append(count(products, x))
            assert xs[-1] == fewest_products(x, _THETA[0][1])
        y = substitute_terms(y_terms, f)
        ys.append(count(products, y))
        assert ys[-1] == fewest_products(y, _THETA[0][1])
    assert statistics.median(xs) <= 10
    assert statistics.median(ys) <= 11


@pytest.mark.parametrize("tol, table", [
    (1.0, 0), (DEFAULT_TOL, 0), (2.0 ** -41, 1), (2.0 ** -53, 1)])
def test_tol_takes_the_largest_tabulated_tolerance_below_it(products, tol,
                                                            table):
    rng = random.Random("matrix_exp tables")
    for _ in range(20):
        x = numeric_X(bench_like_f(rng), beta_set())
        assert count(products, x, tol) == fewest_products(x, _THETA[table][1])


@pytest.mark.parametrize("k", [0, 3])
def test_norm_exactly_at_theta_needs_no_extra_squaring(products, k):
    for theta in _THETA[0][1]:
        x = [[complex(theta * 2 ** k * (i == j)) for j in range(8)]
             for i in range(8)]
        assert count(products, x) == fewest_products(x, _THETA[0][1])


def test_tol_below_every_table_names_2_to_the_minus_53():
    x = numeric_X([0.5] * 8)
    with pytest.raises(ToleranceNotMet, match=r"2\^-53"):
        matrix_exp(x, math.nextafter(2.0 ** -53, 0.0))


def test_zero_takes_the_cheapest_degree(products):
    assert count(products, [[0j] * 8 for _ in range(8)]) == 3


# ---------------------------------------------------------------------------
# bit for bit against the reference exponential

def bits(m) -> list:
    """Every entry's two binary64 parts as bytes, so -0.0 != 0.0."""
    return [struct.pack("<dd", v.real, v.imag) for row in m for v in row]


def same_as_reference(m, tol=DEFAULT_TOL):
    want, message = matrix_exp_reference(m, tol)
    if message is None:
        assert bits(matrix_exp(m, tol)) == bits(want)
    else:
        with pytest.raises(NonFiniteInput) as exc:
            matrix_exp(m, tol)
        assert str(exc.value) == message
    return message is None


def test_matches_the_reference_on_benchmark_like_x_and_y():
    rng = random.Random("matrix_exp reference")
    y_terms = load_y_terms()
    for _ in range(300):
        f = bench_like_f(rng)
        for reading in READINGS:
            assert same_as_reference(numeric_X(f, beta_set(reading)))
        same_as_reference(substitute_terms(y_terms, f))


def test_matches_the_reference_on_general_matrices_with_exact_zeros():
    # sparse entries of both zero signs keep exact zeros in every power
    rng = random.Random("matrix_exp general")
    zeros = (0.0, -0.0)

    def entry(density):
        if rng.random() >= density:
            return complex(rng.choice(zeros), rng.choice(zeros))
        return complex(rng.gauss(0, 2), rng.choice(zeros + (rng.gauss(0, 2),)))
    for n in (1, 2, 3, 8):
        for density in (0.15, 0.4, 1.0):
            for _ in range(15):
                m = [[entry(density) for _ in range(n)] for _ in range(n)]
                same_as_reference(m)
                # its Hermitian part, so the mirrored products run too
                same_as_reference([[(m[i][j] + m[j][i].conjugate()) / 2
                                    for j in range(n)] for i in range(n)])


def test_overflow_verdict_across_the_bound():
    # t beta_A for a Hermitian code has lambda_max = |t|; the early
    # verdict, for lambda_max past ln(8 DBL_MAX) ~ 711.86 plus its
    # margin, must fall where the series overflows, with its message
    edge = math.log(8) + math.log(sys.float_info.max)
    ts = [edge + k / 4 for k in range(-12, 13)]
    outcomes = set()
    for reading in READINGS:
        for a in range(8):
            f = [0.0] * 8
            for t in ts + [-t for t in ts]:
                f[a] = t
                outcomes.add(same_as_reference(numeric_X(f,
                                                         beta_set(reading))))
    assert outcomes == {True, False}


def test_overflow_verdict_runs_no_product(products):
    x = numeric_X([720.0] + [0.0] * 7)
    with pytest.raises(NonFiniteInput, match="exponential overflows"):
        matrix_exp(x)
    assert products[0] == 0


@pytest.fixture()
def finite_products(monkeypatch):
    """Whether each 8x8 matrix product, a product of the series, comes
    out finite."""
    finite = []
    real = rotations._matmul

    def counted(*args):
        out = real(*args)
        if len(out) == 8:
            finite.append(rotations._all_finite(out))
        return out
    monkeypatch.setattr(rotations, "_matmul", counted)
    return finite


def test_split_at_710_stops_at_its_first_non_finite_square(finite_products,
                                                           capsys):
    # e^X at f_1 = 710 is finite and takes no 8x8 product; the fixture Y is
    # not Hermitian, so e^Y runs the series, and there inf appears first
    # in the last of the schedule's 17 products
    from octo_so8.cli import main
    f = "--f=710,0,0,0,0,0,0,0"
    assert main(["spinor", f, "--split"]) == 2
    assert capsys.readouterr().err == \
        f"error: {f}: exponential overflows binary64\n"
    assert finite_products == [True] * 16 + [False]
    y = substitute_terms(load_y_terms(), [710.0] + [0.0] * 7)
    assert len(finite_products) == fewest_products(y, _THETA[0][1])


@pytest.mark.parametrize("k", [1, 3])
def test_squarings_stop_at_the_first_non_finite_square(finite_products, k):
    # Y at 2^k times f_1 = 710 takes k more squarings, and each square
    # past the first infinite one is skipped
    y = substitute_terms(load_y_terms(), [710.0 * 2 ** k] + [0.0] * 7)
    with pytest.raises(NonFiniteInput, match="^exponential overflows"):
        matrix_exp(y)
    assert finite_products == [True] * 16 + [False]
    assert fewest_products(y, _THETA[0][1]) == 17 + k


# ---------------------------------------------------------------------------
# Y(f) by scatter

def test_y_by_scatter_is_bit_identical_to_full_substitution(fx):
    rng = random.Random("Y scatter")
    y_terms = load_y_terms()
    for _ in range(300):
        f = [rng.gauss(0, 1) * rng.uniform(0.01, 30) for _ in range(8)]
        got = substitute_terms(y_terms, f)
        want = substitute_numeric(fx.eq21_y1 + fx.eq21_y2, f)
        assert [[(v.real, v.imag) for v in row] for row in got] == \
            [[(v.real, v.imag) for v in row] for row in want]
        assert [[math.copysign(1, v.real) for v in row] for row in got] == \
            [[math.copysign(1, v.real) for v in row] for row in want]
        assert [[math.copysign(1, v.imag) for v in row] for row in got] == \
            [[math.copysign(1, v.imag) for v in row] for row in want]


def test_y_terms_keep_only_the_nonzero_coefficients():
    terms = [t for row in load_y_terms() for _, cell in row for t in cell]
    assert len(terms) == 128
    assert all(c != 0 for _, c in terms)
