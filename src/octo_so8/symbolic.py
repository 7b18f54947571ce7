"""Formal linear combinations of the eight real component symbols f1..f8.

A ``LinearForm`` is ``const + sum_k c_k * f_k`` with exact ``CRational``
coefficients (the f symbols themselves are treated as real, so
conjugation only conjugates coefficients).  Forms add to and subtract
from forms, negate, and scale by exact scalars; two forms never
multiply.  A form is never a scalar: it equals only a form, and
``substitute`` is the one way from a form to a scalar.

The token grammar (used by fixture files and the CLI) writes a form as
sign-joined terms with ``*`` separators and no whitespace:
``-f4-i*f2``, ``2*f2-2*i*f4``, ``i*f8``, ``0``.
"""

from __future__ import annotations

import functools
import re
from typing import Sequence

from .exact import (CRational, ScalarParseError, as_scalar,
                    parse_cdyadic)


class LinearForm:
    """const + c1*f1 + ... + c8*f8 over exact complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        # coeffs[0] is the constant term, coeffs[k] multiplies f_k
        if len(coeffs) != 9:
            raise ValueError("need 9 coefficients (const + f1..f8)")
        coeffs = tuple(map(as_scalar, coeffs))
        if any(c is None for c in coeffs):
            raise TypeError("coefficients must be int or CRational")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("LinearForm is immutable")

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

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return LinearForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return LinearForm([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return LinearForm([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, LinearForm):
            raise TypeError("product of two linear forms is not linear")
        c = as_scalar(other)
        if c is None:
            return NotImplemented
        return LinearForm([x * c for x in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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


def _coeff_token(c) -> str:
    """Render a coefficient for use in front of 'fk'.

    Returns None for 0, '' for 1, '-' for -1, and otherwise the scalar
    token and '*' ('i*', '-1/2*'); mixed complex coefficients come back
    parenthesized.
    """
    if c.is_zero():
        return None
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return _wrap_mixed(str(c)) + "*"


def render_linear_form(form: LinearForm) -> str:
    parts = []
    for k in range(1, 9):
        tok = _coeff_token(form.coeffs[k])
        if tok is None:
            continue
        parts.append(tok + f"f{k}")
    c0 = form.coeffs[0]
    if not c0.is_zero():
        parts.append(_wrap_mixed(str(c0)))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


# ---------------------------------------------------------------------------
# parsing
#
# term  := [+-] factor ('*' factor)*
# factor:= 'i' | 'f'<1-8> | 'theta' | number['/'number]['i'] | '(' scalar ')'
#
# Symbols allowed in a given context are passed in; each term may carry
# at most one symbol factor.

_FSYM = re.compile(r"f([1-8])$")


class FormParseError(ScalarParseError):
    pass


def _split_terms(s: str):
    """Split on +/- at depth 0; keeps each term's sign."""
    terms = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormParseError(f"unbalanced ')' in {s!r}")
        if ch in "+-" and depth == 0:
            if cur in ("+", "-"):
                raise FormParseError(f"consecutive signs in {s!r}")
            if cur:
                terms.append(cur)
            cur = ch
        else:
            cur += ch
    if depth != 0:
        raise FormParseError(f"unbalanced '(' in {s!r}")
    if cur in ("", "+", "-"):
        raise FormParseError(f"dangling sign in {s!r}")
    terms.append(cur)
    return terms


def _split_factors(term: str):
    factors = []
    depth = 0
    cur = ""
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            factors.append(cur)
            cur = ""
        else:
            cur += ch
    factors.append(cur)
    if any(not f for f in factors):
        raise FormParseError(f"empty factor in {term!r}")
    return factors


def parse_linear_expr(text: str, symbols: Sequence[str]) -> dict:
    """Parse an expression into {symbol_name: CRational}; '' keys the
    constant.

    ``symbols`` lists the symbol names allowed (e.g. f1..f8, or theta).
    """
    s = "".join(text.split())
    if not s:
        raise FormParseError("empty expression")
    out = {name: CRational(0) for name in symbols}
    out[""] = CRational(0)
    for term in _split_terms(s):
        sign = 1
        if term[0] in "+-":
            sign = -1 if term[0] == "-" else 1
            term = term[1:]
        coeff = CRational(sign)
        sym = None
        for factor in _split_factors(term):
            if factor in symbols:
                if sym is not None:
                    raise FormParseError(f"two symbols in one term: {text!r}")
                sym = factor
                continue
            if factor.startswith("(") and factor.endswith(")"):
                factor = factor[1:-1]
            try:
                coeff = coeff * parse_cdyadic(factor)
            except FormParseError:
                raise
            except ScalarParseError as exc:
                # unknown names land here too; report at form level
                raise FormParseError(str(exc)) from None
        key = sym if sym is not None else ""
        out[key] = out[key] + coeff
    return out


# fixtures repeat few tokens; a LinearForm is immutable, errors are not cached
@functools.lru_cache(maxsize=1024)
def parse_linear_form(text: str) -> LinearForm:
    d = parse_linear_expr(text, [f"f{k}" for k in range(1, 9)])
    return LinearForm([d[""]] + [d[f"f{k}"] for k in range(1, 9)])


def parse_theta_affine(text: str) -> tuple:
    """Parse a token over {1, theta} into (const, theta_coeff) scalars."""
    d = parse_linear_expr(text, ["theta"])
    return d[""], d["theta"]
