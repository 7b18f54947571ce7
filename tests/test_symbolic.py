"""Linear forms over f1..f8 and the form-token grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import read_terms

from octo_so8 import (
    CDyadic,
    Dyadic,
    FormParseError,
    LinearForm,
    Octonion,
    parse_linear_form,
    render_linear_form,
)
from octo_so8.symbolic import parse_theta_affine

small_cdyadics = st.builds(CDyadic, st.integers(-8, 8), st.integers(-8, 8),
                          st.sampled_from([1, 2, 4, 8]))
ZERO = LinearForm([0] * 9)
forms = st.builds(LinearForm, st.lists(small_cdyadics, min_size=9, max_size=9))


class TestFormAlgebra:
    def test_symbol_and_const(self):
        f3 = LinearForm.symbol(3)
        assert f3.coeffs[3] == CDyadic(1)
        assert f3.constant == CDyadic(0)
        half = LinearForm([Dyadic(1, 1)] + [0] * 8)
        assert half.constant == CDyadic(1, 0, 2)

    def test_a_form_is_never_a_scalar(self):
        half = Dyadic(1, 1)
        const = LinearForm([half] + [0] * 8)
        # nor an octonion with the same leading coefficients
        for other in (half, Octonion([half] + [0] * 7)):
            assert const != other and other != const
            assert len({const, other}) == 2
            for op in (lambda: const + other, lambda: other + const,
                       lambda: const - other, lambda: other - const):
                with pytest.raises(TypeError):
                    op()
        assert ZERO != 0 and ZERO != Octonion.zero()

    def test_symbol_range_checked(self):
        with pytest.raises(ValueError):
            LinearForm.symbol(9)

    @given(forms, forms, small_cdyadics)
    def test_module_axioms(self, a, b, s):
        assert a + b == b + a
        assert a - a == ZERO
        assert s * (a + b) == s * a + s * b
        assert (a + b) * s == a * s + b * s

    def test_form_times_form_rejected(self):
        with pytest.raises(TypeError):
            LinearForm.symbol(1) * LinearForm.symbol(2)

    def test_substitute(self):
        form = parse_linear_form("1-2*f1+i*f5")
        vals = [Dyadic(0)] * 8
        vals[0] = Dyadic(1, 1)
        vals[4] = Dyadic(3)
        assert form.substitute(vals) == CDyadic(0, 3)

    def test_conj_flips_imaginary_coeffs(self):
        form = parse_linear_form("i*f2+f3")
        assert form.conj() == parse_linear_form("-i*f2+f3")
        assert form.has_imaginary_coeff()
        assert not parse_linear_form("2*f2-f3").has_imaginary_coeff()


@pytest.mark.parametrize("cls, n", [(LinearForm, 9), (Octonion, 8)])
class TestCoefficientCore:
    """LinearForm and Octonion share one coefficient tuple: +, -,
    negation, == and hash are those of the tuples, entry by entry."""

    @given(data=st.data())
    def test_elementwise_as_tuples(self, cls, n, data):
        x = data.draw(st.lists(small_cdyadics, min_size=n, max_size=n))
        y = data.draw(st.one_of(
            st.just(list(x)), st.lists(small_cdyadics, min_size=n, max_size=n)))
        a, b = cls(x), cls(y)
        assert (a + b).coeffs == tuple(u + v for u, v in zip(x, y))
        assert (a - b).coeffs == tuple(u - v for u, v in zip(x, y))
        assert (-a).coeffs == tuple(-u for u in x)
        assert type(a + b) is type(a - b) is type(-a) is cls
        assert (a == b) == (tuple(x) == tuple(y))
        assert hash(a) == hash(tuple(x))
        assert (a - a).is_zero() and a.is_zero() == (not any(x))

    def test_coeffs_cannot_be_assigned(self, cls, n):
        a = cls([1] + [0] * (n - 1))
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is "):
            a.coeffs = (0,) * n
        assert a.coeffs[0] == 1


FIXTURE_STYLE_TOKENS = [
    "0",
    "f1",
    "-f7",
    "i*f5",
    "-i*f6",
    "-f4-i*f2",
    "2*f2-2*i*f4",
    "-f5+i*f3",
    "f2-i*f4",
    "1/2*f1",
    "(1+i)*f3",
]


class TestFormGrammar:
    @pytest.mark.parametrize("tok", FIXTURE_STYLE_TOKENS)
    def test_parses_and_roundtrips(self, tok):
        form = parse_linear_form(tok)
        assert parse_linear_form(render_linear_form(form)) == form

    def test_canonical_rendering(self):
        assert render_linear_form(parse_linear_form("2*f2-2*i*f4")) == "2*f2-2i*f4"
        assert render_linear_form(ZERO) == "0"
        assert render_linear_form(LinearForm.symbol(4, CDyadic(0, -1))) == "-i*f4"

    @given(forms)
    def test_render_parse_roundtrip(self, form):
        assert parse_linear_form(render_linear_form(form)) == form

    @pytest.mark.parametrize("tok", [
        "",
        "f9",
        "f1*f2",
        "theta",
        "2*",
        "(f1",
        "f1)",
        "1+-2",
        "f1 f2",
        "--f1",
    ])
    def test_rejects_malformed(self, tok):
        with pytest.raises(FormParseError):
            parse_linear_form(tok)

    def test_theta_affine(self):
        assert parse_theta_affine("theta") == (CDyadic(0), CDyadic(1))
        assert parse_theta_affine("-theta") == (CDyadic(0), CDyadic(-1))
        assert parse_theta_affine("1") == (CDyadic(1), CDyadic(0))
        assert parse_theta_affine("1-2*theta") == (CDyadic(1), CDyadic(-2))
        with pytest.raises(FormParseError):
            parse_theta_affine("f1")


# ---------------------------------------------------------------------------
# non-canonical tokens from the grammar, read against tests/oracles.py
#
# term   := [+-] factor ('*' factor)*
# factor := 'i' | 'f'<1-8> | 'theta' | n['/'2^k]['i'] | '(' scalar ')'

F_NAMES = tuple(f"f{k}" for k in range(1, 9))


@st.composite
def number_atoms(draw, imag=None):
    """n, n/d or a bare i, with a trailing i when imag; d is sometimes
    not a power of two."""
    if imag is None:
        imag = draw(st.booleans())
    if imag and draw(st.integers(0, 3)) == 0:
        return "i"
    num = str(draw(st.integers(0, 40)))
    den = draw(st.sampled_from(["", "", "/1", "/2", "/4", "/8", "/16",
                                "/3", "/6", "/12"]))
    return num + den + ("i" if imag else "")


@st.composite
def scalar_factors(draw):
    """A parenthesised signed scalar, one or two atoms in either order."""
    first = draw(st.booleans())
    atoms = [draw(number_atoms(imag=first))]
    if draw(st.booleans()):
        atoms.append(draw(number_atoms(imag=not first)))
    signs = [draw(st.sampled_from(["", "+", "-"]))] + [
        draw(st.sampled_from(["+", "-"])) for _ in atoms[1:]]
    return "(" + "".join(s + a for s, a in zip(signs, atoms)) + ")"


@st.composite
def form_tokens(draw, names=F_NAMES):
    """Sign-joined terms of up to four factors, at most one name each;
    names repeat across terms and spaces fall between terms."""
    pool = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = draw(st.lists(st.one_of(
            number_atoms(), st.just("i"), scalar_factors()), max_size=3))
        if draw(st.booleans()) or not factors:
            factors.insert(draw(st.integers(0, len(factors))),
                           draw(st.sampled_from(pool)))
        sign = draw(st.sampled_from(["", "+", "-"] if not terms
                                    else ["+", "-", " +", "- "]))
        terms.append(sign + "*".join(factors))
    return "".join(terms)


def _fractions(coeffs):
    return [(Fraction(c.a, c.d), Fraction(c.b, c.d)) for c in coeffs]


class TestAgainstOracle:
    @given(form_tokens())
    def test_linear_form(self, tok):
        try:
            want = read_terms(tok, F_NAMES)
        except ValueError as exc:
            assert "not a power of two" in str(exc)
            with pytest.raises(FormParseError, match="not a power of two"):
                parse_linear_form(tok)
            return
        assert _fractions(parse_linear_form(tok).coeffs) == want

    @given(form_tokens(names=("theta",)))
    def test_theta_affine(self, tok):
        try:
            want = read_terms(tok, ("theta",))
        except ValueError as exc:
            assert "not a power of two" in str(exc)
            with pytest.raises(FormParseError, match="not a power of two"):
                parse_theta_affine(tok)
            return
        assert _fractions(parse_theta_affine(tok)) == want

    def test_strategy_reaches_the_cases(self):
        # i*i chains, mixed parenthesised scalars and non-dyadic
        # denominators all occur in the drawn tokens
        seen = set()

        @given(form_tokens())
        def draw(tok):
            seen.update(k for k, hit in (
                ("i*i", "i*i" in tok), ("mixed", "i)" in tok and "(" in tok),
                ("non-dyadic", any(f"/{d}" in tok for d in (3, 6, 12))))
                if hit)
        draw()
        assert seen == {"i*i", "mixed", "non-dyadic"}
