"""Exact scalar arithmetic.

One scalar type covers everything the toolkit computes with:
``CRational``, the complex rational (a + b*i)/d held as three ints with
d > 0 and gcd(a, b, d) == 1, so that equal values have equal fields.
Every constant in the transcribed source material is dyadic (d a power
of two); exact conjugation leaves the dyadics once it divides by
1 + theta**2, and the same type carries on.

Dyadic values are checked only at the edges: ``parse_cdyadic`` rejects
denominators that are not powers of two, and ``to_complex_exact``
refuses values that binary64 cannot hold.  ``CDyadic`` is a second
name for ``CRational``, and ``Dyadic(num, exp)`` builds num / 2**exp
with no arithmetic of its own.

Arithmetic coerces int and Fraction operands; a real value hashes like
the equal Fraction, so equal scalars of any of these types hash alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class InexactFloatError(ValueError):
    """Raised when an exact scalar cannot be represented in binary64."""


class ScalarParseError(ValueError):
    """Raised on malformed scalar text."""


def _ratio(x) -> tuple:
    """A real int, Fraction or CRational as (numerator, denominator)."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, CRational) and x.b == 0:
        return x.a, x.d
    raise TypeError(f"expected a real int, Fraction or CRational, got {x!r}")


class CRational:
    """Immutable complex rational (a + b*i)/d; d > 0, gcd(a, b, d) == 1.

    ``CRational(re, im, den)`` is (re + im*i)/den for real int,
    Fraction or CRational arguments.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0, den=1):
        if type(re) is not int or type(im) is not int or type(den) is not int:
            (p, q), (r, s), (u, v) = _ratio(re), _ratio(im), _ratio(den)
            re, im, den = p * s * v, r * q * v, q * s * u
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

    def __rtruediv__(self, other):
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

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
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

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

    def to_complex_exact(self) -> complex:
        z = complex(self)
        if (Fraction(z.real) * self.d != self.a
                or Fraction(z.imag) * self.d != self.b):
            raise InexactFloatError(f"{self} not representable in binary64")
        return z

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
    """``value`` as a CRational when it is an int, a Fraction or a
    CRational; None for anything else."""
    if isinstance(value, CRational):
        return value
    if isinstance(value, (int, Fraction)):
        return CRational(value)
    return None


CDyadic = CRational


class Dyadic(CRational):
    """num / 2**exp as a CRational; a constructor only."""

    __slots__ = ()

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            super().__init__(num << -exp)
        else:
            super().__init__(num, 0, 1 << exp)


# ---------------------------------------------------------------------------
# text rendering / parsing
#
# A token is one or two signed atoms, at most one real and one imaginary,
# each an integer or integer/power-of-two with an optional trailing "i".

_ATOM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?)?(i?)$")


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
    # split into signed atoms: every +/- is a term separator here
    atoms = re.findall(r"[+-]?[^+-]+", s)
    if not atoms or "".join(atoms) != s:
        raise ScalarParseError(f"bad scalar token {tok!r}")
    parts = {}
    for atom in atoms:
        m = _ATOM.match(atom)
        if not m or (m.group(2) is None and m.group(4) != "i"):
            raise ScalarParseError(f"bad scalar atom {atom!r} in {tok!r}")
        num = int(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        den = int(m.group(3) or 1)
        if den <= 0 or den & (den - 1):
            raise ScalarParseError(f"denominator {den} is not a power of two")
        kind = "imaginary" if m.group(4) else "real"
        if kind in parts:
            raise ScalarParseError(f"duplicate {kind} part in {tok!r}")
        parts[kind] = Fraction(num, den)
    return CRational(parts.get("real", 0), parts.get("imaginary", 0))
