"""Formal linear combinations of the eight real component symbols f1..f8.

A ``LinearForm`` is ``const + sum_k c_k * f_k`` with exact ``CRational``
coefficients (the f symbols themselves are treated as real, so
conjugation only conjugates coefficients).  Forms add to and subtract
from forms, negate, and scale by exact scalars; two forms never
multiply.  A form is never a scalar: it equals only a form, and
``substitute`` is the one way from a form to a scalar.  The immutable
coefficient tuple, with its +, -, negation, ``==``, ``hash`` and
``is_zero``, is ``exact.CoeffTuple``, shared with ``Octonion``.

The token grammar (used by fixture files and the CLI) writes a form as
sign-joined terms with ``*`` separators and no whitespace:
``-f4-i*f2``, ``2*f2-2*i*f4``, ``i*f8``, ``0``.  Its one scanner,
shared with scalar tokens, is ``exact.parse_terms``.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .exact import CoeffTuple, as_scalar, parse_terms


class LinearForm(CoeffTuple):
    """const + c1*f1 + ... + c8*f8 over exact complex coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        # coeffs[0] is the constant term, coeffs[k] multiplies f_k
        if len(coeffs) != 9:
            raise ValueError("need 9 coefficients (const + f1..f8)")
        coeffs = tuple(map(as_scalar, coeffs))
        if any(c is None for c in coeffs):
            raise TypeError("coefficients must be int or CRational")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def symbol(cls, k: int, coeff=1) -> "LinearForm":
        if not 1 <= k <= 8:
            raise ValueError(f"symbol index {k} out of range 1..8")
        c = [0] * 9
        c[k] = coeff
        return cls(c)

    @property
    def constant(self):
        return self.coeffs[0]

    def __mul__(self, other):
        if isinstance(other, LinearForm):
            raise TypeError("product of two linear forms is not linear")
        c = as_scalar(other)
        if c is None:
            return NotImplemented
        return LinearForm([x * c for x in self.coeffs])

    __rmul__ = __mul__

    def conj(self) -> "LinearForm":
        return LinearForm([c.conj() for c in self.coeffs])

    def has_imaginary_coeff(self) -> bool:
        """True when any symbol coefficient (or the constant) has an
        imaginary part."""
        return any(not c.is_real() for c in self.coeffs)

    def substitute(self, fvals: Sequence):
        """Evaluate at f = fvals (8 scalars); returns a scalar."""
        if len(fvals) != 8:
            raise ValueError("need 8 f values")
        acc = self.coeffs[0]
        for c, v in zip(self.coeffs[1:], fvals):
            acc = acc + c * v
        return acc

    def __str__(self):
        return render_linear_form(self)

    def __repr__(self):
        return f"LinearForm({self})"


# ---------------------------------------------------------------------------
# rendering

def _wrap_mixed(token: str) -> str:
    """Parenthesize a token with both a real and an imaginary part."""
    return "(" + token + ")" if "+" in token[1:] or "-" in token[1:] else token


def render_linear_form(form: LinearForm) -> str:
    """The canonical token: the f terms in order, then the constant;
    a coefficient of 1 or -1 is left out, and "0" is the zero form."""
    parts = [("" if c == 1 else "-" if c == -1 else _wrap_mixed(str(c)) + "*")
             + f"f{k}" for k, c in enumerate(form.coeffs[1:], start=1) if c]
    if form.coeffs[0]:
        parts.append(_wrap_mixed(str(form.coeffs[0])))
    # a canonical scalar token never holds "+-"
    return "+".join(parts).replace("+-", "-") or "0"


# ---------------------------------------------------------------------------
# parsing: thin callers of the term scanner in ``exact``

_F_NAMES = tuple(f"f{k}" for k in range(1, 9))


# fixtures repeat few tokens; a LinearForm is immutable, errors are not cached
@functools.lru_cache(maxsize=1024)
def parse_linear_form(text: str) -> LinearForm:
    return LinearForm(parse_terms(text, _F_NAMES))


def parse_theta_affine(text: str) -> tuple:
    """Parse a token over {1, theta} into (const, theta_coeff) scalars."""
    return tuple(parse_terms(text, ("theta",)))
