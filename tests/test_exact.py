"""The one exact scalar type: normalized complex rationals (a + b*i)/d,
built from ints only.  ``Fraction`` serves here as an oracle only."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from octo_so8 import (
    CDyadic,
    CRational,
    Dyadic,
    LinearForm,
    ScalarParseError,
    parse_cdyadic,
    parse_dyadic,
)

dyadics = st.builds(Dyadic, st.integers(-64, 64), st.integers(0, 6))
cdyadics = st.builds(CDyadic, st.integers(-64, 64), st.integers(-64, 64),
                     st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
crationals = st.builds(CRational, st.integers(-512, 512),
                       st.integers(-512, 512), st.integers(1, 64))
# one type, drawn both inside and outside the dyadics
scalars = st.one_of(cdyadics, crationals)


def is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class TestDyadicNormalization:
    """Dyadic(num, exp) and every other scalar land in the one normal
    form: (a + b*i)/d with d > 0 and gcd(a, b, d) == 1."""

    def test_reduced_form(self):
        d = Dyadic(12, 4)
        assert (d.a, d.b, d.d) == (3, 0, 4)

    def test_zero_collapses_exponent(self):
        for z in (Dyadic(0, 7), CRational(0, 0, 12)):
            assert (z.a, z.b, z.d) == (0, 0, 1)

    def test_negative_exponent_shifts_numerator(self):
        assert Dyadic(3, -2) == Dyadic(12)

    @given(st.integers(-200, 200), st.integers(-5, 10))
    def test_invariant(self, num, exp):
        d = Dyadic(num, exp)
        assert d.b == 0 and is_power_of_two(d.d)
        assert math.gcd(d.a, d.d) == 1
        assert Fraction(d.a, d.d) == num * Fraction(2) ** -exp

    @given(st.integers(-200, 200), st.integers(-200, 200),
           st.integers(-50, 50).filter(bool))
    def test_crational_invariant(self, a, b, d):
        z = CRational(a, b, d)
        assert z.d > 0
        assert math.gcd(z.a, z.b, z.d) == 1
        assert Fraction(z.a, z.d) == Fraction(a, d)
        assert Fraction(z.b, z.d) == Fraction(b, d)

    def test_negative_denominator_moves_the_sign(self):
        z = CRational(2, -4, -6)
        assert (z.a, z.b, z.d) == (-1, 2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CRational(1, 0, 0)

    def test_parts_must_be_ints(self):
        z = CRational(3, -2, 6)
        assert (z.a, z.b, z.d) == (3, -2, 6)
        for parts in ((Fraction(1, 2),), (1, Fraction(-1, 3)), (1, 0, 2.0)):
            with pytest.raises(TypeError):
                CRational(*parts)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Dyadic(1).a = 2


class TestRingAxioms:
    @given(cdyadics, cdyadics, cdyadics)
    def test_cdyadic_ring(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == CDyadic(0)
        assert a * CDyadic(1) == a
        # the dyadics are closed under the ring operations
        for z in (a + b, a - b, a * b, -a, a.conj()):
            assert is_power_of_two(z.d)

    @given(scalars, scalars, scalars)
    def test_crational_ring(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert a + (-a) == CRational(0)
        assert a * CRational(1) == a

    @given(scalars, scalars)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        n = a * a.conj()
        assert n.is_real() and n.a >= 0

    @given(scalars)
    def test_field_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert a * a.inv() == CRational(1)
            assert CRational(1) / a == a.inv()


class TestPromotion:
    """The names of the former promotion ladder all build the one type;
    int operands are coerced into it, and nothing else is."""

    def test_int_into_dyadic(self):
        assert 1 + Dyadic(1, 1) == Dyadic(3, 1)
        assert 2 * Dyadic(1, 1) == Dyadic(1)
        assert 1 - CRational(0, 1) == CRational(1, -1)

    def test_dyadic_into_cdyadic(self):
        z = Dyadic(1, 1) + CDyadic(0, 1)
        assert z == CDyadic(1, 2, 2)

    def test_cdyadic_into_crational(self):
        z = CDyadic(1, 1) * CRational(1, 0, 3)
        assert isinstance(z, CRational)
        assert z == CRational(1, 1, 3)

    def test_fraction_operands(self):
        third = Fraction(1, 3)
        with pytest.raises(TypeError):
            CDyadic(1, 1) * third
        with pytest.raises(TypeError):
            third + CRational(0, 1)
        assert CRational(1, 0, 3) != third

    def test_cross_type_equality(self):
        assert CRational(1, 0, 2) == Dyadic(1, 1)
        assert Dyadic(1, 1) == CRational(1, 0, 2)
        assert Dyadic(3) == 3 and 3 == CDyadic(3)

    def test_one_type_behind_three_names(self):
        assert CDyadic is CRational
        assert type(Dyadic(1, 1) + Dyadic(1, 1)) is CRational

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            CDyadic(1) * 0.5
        with pytest.raises(TypeError):
            CRational(0.5)
        with pytest.raises(TypeError):
            CRational(CRational(0, 1))      # a part must be real
        assert CRational(1) != "1"


def from_fractions(re: Fraction, im: Fraction = Fraction(0)) -> CRational:
    """re + im*i as a CRational, built from int parts."""
    return CRational(re.numerator * im.denominator,
                     im.numerator * re.denominator,
                     re.denominator * im.denominator)


def _as(kind: str, re: Fraction, im: Fraction):
    """The value re + im*i written as one of the scalar types, or None
    when that type cannot hold it."""
    if kind == "int":
        return int(re) if im == 0 and re.denominator == 1 else None
    if kind == "Dyadic":
        exp = re.denominator.bit_length() - 1
        ok = im == 0 and is_power_of_two(re.denominator)
        return Dyadic(re.numerator, exp) if ok else None
    return from_fractions(re, im)


KINDS = ("int", "Dyadic", "CDyadic", "CRational")
small = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                         Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3)])
written = st.builds(_as, st.sampled_from(KINDS), small,
                    st.sampled_from([Fraction(0), Fraction(0), Fraction(1)])
                    ).filter(lambda v: v is not None)


def constant(value) -> LinearForm:
    return LinearForm([value] + [0] * 8)


class TestHash:
    """x == y must imply hash(x) == hash(y), across every way of writing
    a scalar and the linear forms built from them.  A form equals only
    a form, so it never needs to hash like a scalar."""

    @given(written, written)
    def test_scalars(self, x, y):
        assert (x == y) == (y == x)
        if x == y:
            assert hash(x) == hash(y)

    @given(written, written, st.integers(1, 8))
    def test_linear_forms(self, x, y, k):
        pairs = [(constant(x), constant(y)),
                 (LinearForm.symbol(k, x), LinearForm.symbol(k, y))]
        for p, q in pairs:
            assert (p == q) == (q == p)
            if p == q:
                assert hash(p) == hash(q)

    def test_known_cases(self):
        assert hash(Dyadic(1)) == hash(1)
        assert len({constant(CDyadic(1)), constant(CRational(1))}) == 1


def _pair(x) -> tuple:
    """x as the oracle pair (re, im) of Fractions."""
    if type(x) is int:
        return Fraction(x), Fraction(0)
    return Fraction(x.a, x.d), Fraction(x.b, x.d)


# ints past 2**64 either way, and CRationals holding them
wide_ints = st.one_of(st.integers(-64, 64), st.integers(-2**80, 2**80),
                      st.sampled_from([2**64, -2**64, 2**64 + 1, -2**70]))
wide = st.one_of(scalars, dyadics, st.builds(
    CRational, wide_ints, st.sampled_from([0, 0, 1]),
    st.sampled_from([1, 1, 2, 3])))


class TestEquality:
    """``==`` between scalars, checked against pairs of Fractions."""

    @given(wide, wide)
    def test_scalar_pairs(self, x, y):
        want = _pair(x) == _pair(y)
        assert (x == y) is want and (y == x) is want
        assert (x != y) is not want
        if want:
            assert hash(x) == hash(y)

    @given(wide, wide_ints)
    def test_int_operands(self, x, n):
        want = _pair(x) == _pair(n)
        assert (x == n) is want and (n == x) is want
        assert (x != n) is not want
        if want:
            assert hash(x) == hash(n)

    @given(wide_ints)
    def test_integral_values_equal_their_int(self, n):
        assert CRational(n) == n and CRational(2 * n, 0, 2) == n
        assert hash(CRational(n)) == hash(n)
        assert CRational(n, 1) != n and CRational(2 * n + 1, 0, 2) != n

    def test_other_operands_are_unequal(self):
        one = CRational(1)
        assert one.__eq__(True) is NotImplemented
        for other in (True, 1.0, 1 + 0j, None, "1",
                      LinearForm([1] + [0] * 8)):
            assert (one == other) is False and (other == one) is False
            assert one != other and other != one


class TestFloatConversion:
    def test_exact_value(self):
        assert float(Dyadic(3, 2)) == 0.75

    def test_complex_protocol(self):
        assert complex(CDyadic(1, -2, 2)) == 0.5 - 1j
        assert complex(CRational(1, -12, 4)) == 0.25 - 3j
        assert float(CRational(1, 0, 3)) == 1 / 3

    def test_float_of_non_real_rejected(self):
        with pytest.raises(TypeError):
            float(CRational(0, 1))


CANONICAL_TOKENS = ["0", "1", "-3", "1/2", "-1/2", "i", "-i", "2i", "1/2i",
                    "-1/2+1/2i", "1-i", "-3/4-5/8i"]


def read_token(tok: str) -> CRational:
    """Test-side reader of any rendered token, dyadic or not."""
    if not tok.endswith("i"):
        return from_fractions(Fraction(tok))
    body = tok[:-1]
    k = max(body.rfind("+"), body.rfind("-"))
    re_tok, im_tok = (body[:k], body[k:]) if k > 0 else ("0", body)
    if im_tok in ("", "+", "-"):
        im_tok += "1"
    return from_fractions(Fraction(re_tok), Fraction(im_tok))


class TestTokenGrammar:
    @pytest.mark.parametrize("tok", CANONICAL_TOKENS)
    def test_render_parse_roundtrip(self, tok):
        assert str(parse_cdyadic(tok)) == tok

    @given(scalars)
    def test_parse_render_roundtrip(self, z):
        tok = str(z)
        assert " " not in tok
        assert read_token(tok) == z
        if is_power_of_two(z.d):
            assert parse_cdyadic(tok) == z
        else:
            with pytest.raises(ScalarParseError):
                parse_cdyadic(tok)

    def test_non_dyadic_tokens(self):
        assert str(CRational(15, 0, 17)) == "15/17"
        assert str(CRational(-3, 2, 6)) == "-1/2+1/3i"
        assert str(CRational(0, -2, 3)) == "-2/3i"

    def test_parse_values(self):
        assert parse_cdyadic("-1/2+1/2i") == CDyadic(-1, 1, 2)
        assert parse_cdyadic("3/4-5/8i") == CDyadic(6, -5, 8)
        assert parse_dyadic("-12/16") == Dyadic(-3, 2)

    @pytest.mark.parametrize("tok", ["", "1/3", "0.25", "i+i", "2+3", "x",
                                     "1//2", "+-1", "1/2j", "1/0"])
    def test_rejects_malformed(self, tok):
        with pytest.raises(ScalarParseError):
            parse_cdyadic(tok)

    def test_parse_dyadic_rejects_imaginary(self):
        with pytest.raises(ScalarParseError):
            parse_dyadic("1+i")
