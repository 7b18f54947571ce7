"""Exact scalar arithmetic.

One scalar type covers everything the toolkit computes with:
``CRational``, the complex rational (a + b*i)/d held as three ints with
d > 0 and gcd(a, b, d) == 1, so that equal values have equal fields.
Every constant in the transcribed source material is dyadic (d a power
of two); exact conjugation leaves the dyadics once it divides by
1 + theta**2, and the same type carries on.

Dyadic values are checked only at the edge: ``parse_cdyadic``, at the
end of this module with the one term scanner for all token text,
rejects denominators that are not powers of two.  ``CDyadic`` is a
second name for ``CRational``, and ``Dyadic(num, exp)`` builds
num / 2**exp with no arithmetic of its own.

A ``CRational`` is built from ints only.  Arithmetic and ``==`` also
take int operands, and an integral value hashes like the equal int.

``CoeffTuple`` is the shared core of the two fixed coefficient tuples
built over these scalars, ``symbolic.LinearForm`` and
``octonion.Octonion``.
"""

from __future__ import annotations

import re
import sys
from math import gcd


class ScalarParseError(ValueError):
    """Raised on malformed scalar text."""


class CRational:
    """Immutable complex rational (a + b*i)/d; d > 0, gcd(a, b, d) == 1.

    ``CRational(re, im, den)`` is (re + im*i)/den for int arguments.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0, den=1):
        if type(re) is not int or type(im) is not int or type(den) is not int:
            raise TypeError(
                f"CRational takes ints, got {re!r}, {im!r}, {den!r}")
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError("CRational with denominator 0")
            re, im, den = -re, -im, -den
        if den != 1:
            g = gcd(re, im, den)
            if g != 1:
                re, im, den = re // g, im // g, den // g
        object.__setattr__(self, "a", re)
        object.__setattr__(self, "b", im)
        object.__setattr__(self, "d", den)

    def __setattr__(self, *_):
        raise AttributeError("CRational is immutable")

    def __add__(self, other):
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        d, f = self.d, o.d
        return CRational(self.a * f + o.a * d, self.b * f + o.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        d, f = self.d, o.d
        return CRational(self.a * f - o.a * d, self.b * f - o.b * d, d * f)

    def __rsub__(self, other):
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        return CRational(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def inv(self) -> "CRational":
        a, b = self.a, self.b
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero")
        return CRational(self.d * a, -self.d * b, a * a + b * b)

    def __neg__(self):
        return CRational(-self.a, -self.b, self.d)

    def conj(self) -> "CRational":
        return CRational(self.a, -self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, CRational):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if type(other) is int:
            return self.b == 0 and self.d == 1 and self.a == other
        return NotImplemented

    def __hash__(self):
        # an integral value equals the int, so it hashes like it
        if self.b == 0 and self.d == 1:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_real(self) -> bool:
        return self.b == 0

    def __float__(self):
        if self.b:
            raise TypeError(f"{self} is not real")
        return self.a / self.d

    def __complex__(self):
        # int / int is correctly rounded
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        """The canonical token: "0", "3", "-1/2", "i", "-i", "2i",
        "1/2i", "-1/2+1/2i", "1-i"; never any whitespace."""
        re_tok = _ratio_token(self.a, self.d)
        if self.b == 0:
            return re_tok
        im_tok = _ratio_token(self.b, self.d)
        im_tok = (im_tok[:-1] if im_tok in ("1", "-1") else im_tok) + "i"
        if self.a == 0:
            return im_tok
        return re_tok + ("" if im_tok[0] == "-" else "+") + im_tok

    def __repr__(self):
        return f"CRational({self.a}, {self.b}, {self.d})"


def _ratio_token(n: int, d: int) -> str:
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def as_scalar(value):
    """``value`` as a CRational when it is an int or a CRational, 0 as
    ``ZERO``; None for anything else."""
    if isinstance(value, CRational):
        return value
    if type(value) is int:
        return CRational(value) if value else ZERO
    return None


CDyadic = CRational
ZERO = CRational()   # the one shared zero, kept by coefficient tuples


class Dyadic(CRational):
    """num / 2**exp as a CRational; a constructor only."""

    __slots__ = ()

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            super().__init__(num << -exp)
        else:
            super().__init__(num, 0, 1 << exp)


class CoeffTuple:
    """An immutable tuple of coefficients, ``coeffs``, with elementwise
    +, - and negation, each keeping an operand's coefficient where the
    other one's is ``ZERO``.  It equals, and adds to, only its own type;
    the subclass's constructor takes a sequence and sets ``coeffs``."""

    __slots__ = ("coeffs",)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)([b if a is ZERO else a if b is ZERO else a + b
                           for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)([a if b is ZERO else -b if a is ZERO else a - b
                           for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return type(self)([a if a is ZERO else -a for a in self.coeffs])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# the term scanner
#
# Scalar tokens, linear forms over f1..f8 and theta-affine cells share
# one language, written without whitespace:
#
#   term   := [+-] factor ('*' factor)*
#   factor := 'i' | 'f'<1-8> | 'theta' | n['/'2^k]['i'] | '(' scalar ')'
#
# A scalar is the same scan split at every sign: each term one number
# atom, at most one of them real and one imaginary.

_FORM_TERM = re.compile(r"([+-]?)((?:\([^()]*\)|[^-+()])*)")
_SCALAR_TERM = re.compile(r"([+-]?)([^-+]*)")
_STAR = re.compile(r"\*(?![^(]*\))")      # a '*' outside parentheses
_NUMBER = re.compile(r"(?:(\d+)(?:/(\d+))?)?(i?)")


class FormParseError(ScalarParseError):
    """Raised on a malformed linear-form or theta-affine token."""


def _terms(s: str, term: re.Pattern) -> list:
    """s as (sign, body) matches of ``term``; an empty body is an error."""
    out, pos = [], 0
    while pos < len(s):
        m = term.match(s, pos)
        pos = m.end()
        if not m[2]:
            stop = s[pos:pos + 1]
            # a '(' that opens no flat group although a ')' is left for
            # it has another '(' inside
            if stop == "(" and s.count("(") <= s.count(")"):
                raise FormParseError(f"nested parentheses in {s!r}")
            raise FormParseError(
                f"unbalanced {stop!r} in {s!r}" if stop in ("(", ")")
                else f"consecutive signs in {s!r}" if stop
                else f"dangling sign in {s!r}")
        out.append(m.groups())
    return out


def parse_dyadic(tok: str) -> CRational:
    z = parse_cdyadic(tok)
    if not z.is_real():
        raise ScalarParseError(f"expected a real dyadic, got {tok!r}")
    return z


def parse_cdyadic(tok: str) -> CRational:
    """Parse one scalar token (no whitespace); denominators must be
    powers of two."""
    s = tok.strip()
    if not s:
        raise ScalarParseError("empty scalar token")
    try:
        terms = _terms(s, _SCALAR_TERM)
    except FormParseError:
        raise ScalarParseError(f"bad scalar token {tok!r}") from None
    parts = {}
    for sign, body in terms:
        m = _NUMBER.fullmatch(body)
        if m is None or not (m[1] or m[3]):
            raise ScalarParseError(
                f"bad scalar atom {sign + body!r} in {tok!r}")
        try:
            num, den = int(m[1] or 1), int(m[2] or 1)
        except ValueError:   # past the interpreter's int digit limit
            raise ScalarParseError(
                f"scalar atom {(sign + body)[:12] + '...'!r} has more than "
                f"{sys.get_int_max_str_digits()} digits") from None
        if den <= 0 or den & (den - 1):
            raise ScalarParseError(f"denominator {den} is not a power of two")
        kind = "imaginary" if m[3] else "real"
        if kind in parts:
            raise ScalarParseError(f"duplicate {kind} part in {tok!r}")
        parts[kind] = -num if sign == "-" else num, den
    (a, b), (c, d) = parts.get("real", (0, 1)), parts.get("imaginary", (0, 1))
    return CRational(a * d, c * b, b * d)


def parse_terms(text: str, symbols: tuple) -> list:
    """The coefficients of an expression over the names in ``symbols``:
    the constant first, then one per name in order.  Whitespace is
    ignored; a term carries at most one name."""
    s = "".join(text.split())
    if not s:
        raise FormParseError("empty expression")
    coeffs = [ZERO] * (len(symbols) + 1)
    for sign, body in _terms(s, _FORM_TERM):
        factors = _STAR.split(body)
        if "" in factors:
            raise FormParseError(f"empty factor in {body!r}")
        coeff, k = CRational(-1 if sign == "-" else 1), 0
        for f in factors:
            if f in symbols:
                if k:
                    raise FormParseError(f"two symbols in one term: {text!r}")
                k = symbols.index(f) + 1
                continue
            if f.startswith("(") and f.endswith(")"):
                f = f[1:-1]
            try:
                coeff = coeff * parse_cdyadic(f)
            except ScalarParseError as exc:
                raise FormParseError(str(exc)) from None
        coeffs[k] = coeffs[k] + coeff
    return coeffs
