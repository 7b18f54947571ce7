"""Exact scalar arithmetic.

One scalar type covers everything the toolkit computes with:
``CRational``, the complex rational (a + b*i)/d held as three ints with
d > 0 and gcd(a, b, d) == 1, so that equal values have equal fields.
Every constant in the transcribed source material is dyadic (d a power
of two); exact conjugation leaves the dyadics once it divides by
1 + theta**2, and the same type carries on.

Dyadic values are checked only at the edge: ``parse_cdyadic`` rejects
denominators that are not powers of two.  ``CDyadic`` is a second name
for ``CRational``, and ``Dyadic(num, exp)`` builds num / 2**exp with no
arithmetic of its own.

A ``CRational`` is built from ints only.  Arithmetic and ``==`` also
take int operands, and an integral value hashes like the equal int.
"""

from __future__ import annotations

import re
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
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

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
    """``value`` as a CRational when it is an int or a CRational; None
    for anything else."""
    if isinstance(value, CRational):
        return value
    if type(value) is int:
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
        parts[kind] = num, den
    (a, b), (c, d) = parts.get("real", (0, 1)), parts.get("imaginary", (0, 1))
    return CRational(a * d, c * b, b * d)
