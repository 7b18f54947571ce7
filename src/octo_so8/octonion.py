"""Octonion algebra over exact coefficient rings.

The multiplication table of the eight basis units e0..e7 (e0 the
identity) is entered verbatim as data -- it is ground truth here, never
regenerated from a Fano-plane convention, because the whole point is to
audit derived objects against this exact table.

``Octonion`` is coefficient-ring agnostic: plain ints, exact complex
``CRational`` scalars (bioctonions) and even floats/complex all work,
since multiplication only needs +, *, unary - and a false zero on the
coefficients.  Its immutable coefficient tuple, with +, -, negation,
``==``, ``hash`` and ``is_zero``, is ``exact.CoeffTuple``, shared with
``LinearForm``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

from .exact import CoeffTuple, CRational

# cell (i, j) = (sign, k) meaning e_i * e_j = sign * e_k
TABLE = (
    ((+1, 0), (+1, 1), (+1, 2), (+1, 3), (+1, 4), (+1, 5), (+1, 6), (+1, 7)),
    ((+1, 1), (-1, 0), (+1, 3), (-1, 2), (+1, 7), (-1, 6), (+1, 5), (-1, 4)),
    ((+1, 2), (-1, 3), (-1, 0), (+1, 1), (+1, 6), (+1, 7), (-1, 4), (-1, 5)),
    ((+1, 3), (+1, 2), (-1, 1), (-1, 0), (-1, 5), (+1, 4), (+1, 7), (-1, 6)),
    ((+1, 4), (-1, 7), (-1, 6), (+1, 5), (-1, 0), (-1, 3), (+1, 2), (+1, 1)),
    ((+1, 5), (+1, 6), (-1, 7), (-1, 4), (+1, 3), (-1, 0), (-1, 1), (+1, 2)),
    ((+1, 6), (-1, 5), (+1, 4), (-1, 7), (-1, 2), (+1, 1), (-1, 0), (+1, 3)),
    ((+1, 7), (+1, 4), (+1, 5), (+1, 6), (-1, 1), (-1, 2), (-1, 3), (-1, 0)),
)


def oriented_triples():
    """The seven oriented imaginary triples (i, j, k) with
    e_i e_j = e_k, smallest index first, implied by the table."""
    triples = []
    seen = set()
    for i in range(1, 8):
        for j in range(i + 1, 8):
            sign, k = TABLE[i][j]
            key = frozenset((i, j, k))
            if key in seen:
                continue
            seen.add(key)
            triples.append((i, j, k) if sign > 0 else (i, k, j))
    return triples


class Octonion(CoeffTuple):
    """Eight coefficients over any ring supporting +, *, unary -."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        if len(coeffs) != 8:
            raise ValueError("octonion needs 8 coefficients")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def unit(cls, k: int) -> "Octonion":
        c = [0] * 8
        c[k] = 1
        return cls(c)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls([0] * 8)

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            # scalar on the right
            return Octonion([a * other for a in self.coeffs])
        out = [self.coeffs[0] * 0] * 8
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                sign, k = TABLE[i][j]
                p = a * b
                out[k] = out[k] + (p if sign > 0 else -p)
        return Octonion(out)

    def __rmul__(self, scalar):
        return Octonion([scalar * a for a in self.coeffs])

    def conj(self) -> "Octonion":
        return Octonion([self.coeffs[0]] + [-a for a in self.coeffs[1:]])

    def norm(self):
        """Sum of squared coefficients.  For complex coefficient rings
        this is the bilinear extension (squares, not absolute values),
        which is what makes zero divisors detectable."""
        acc = self.coeffs[0] * self.coeffs[0]
        for a in self.coeffs[1:]:
            acc = acc + a * a
        return acc

    def __str__(self):
        parts = [f"({a})*e{k}" for k, a in enumerate(self.coeffs) if a]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Octonion({self})"


# ---------------------------------------------------------------------------
# split basis
#
# u_0 = (e0 + i e7)/2 and u_m = (e_m + i e_{m+3})/2 for m = 1..3, with
# the starred elements their bioctonion conjugates (i -> -i).

SPLIT_PAIRS = ((0, 7), (1, 4), (2, 5), (3, 6))   # (a, b) of each u_m


@functools.cache   # immutable: a tuple of Octonions
def build_split_basis() -> tuple:
    """(u0, u1, u2, u3, u0*, u1*, u2*, u3*)."""
    u, us = [], []
    for a, b in SPLIT_PAIRS:
        coeffs = [CRational(0)] * 8
        coeffs[a] = CRational(1, 0, 2)
        coeffs[b] = CRational(0, 1, 2)
        u.append(Octonion(coeffs))
        us.append(Octonion([c.conj() for c in coeffs]))
    return tuple(u + us)


_EPS = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}


class IdentityCheck(NamedTuple):
    name: str
    lhs: str
    rhs: str
    ok: bool


def verify_split_relations():
    """Evaluate the whole split-basis relation family; one record per
    identity instance, exact verdicts."""
    b = build_split_basis()
    u, us = b[:4], b[4:]
    zero = Octonion.zero()
    checks = []

    def rec(name, lhs, rhs):
        checks.append(IdentityCheck(name, str(lhs), str(rhs), lhs == rhs))

    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                rhs1, rhs2 = zero, zero
            else:
                sign, k = _EPS[(i, j)]
                rhs1 = us[k] * sign
                rhs2 = u[k] * sign
            rec(f"u{i}*u{j} = eps*u_k_star", u[i] * u[j], rhs1)
            rec(f"u{i}*_u{j}* = eps*u_k", us[i] * us[j], rhs2)
            rec(f"u{i}*u{j}_star = -delta*u0",
                u[i] * us[j], -u[0] if i == j else zero)
            rec(f"u{i}_star*u{j} = -delta*u0_star",
                us[i] * u[j], -us[0] if i == j else zero)
    for i in range(1, 4):
        rec(f"u0*u{i} = u{i}", u[0] * u[i], u[i])
        rec(f"u{i}*u0_star = u{i}", u[i] * us[0], u[i])
        rec(f"u0_star*u{i}_star = u{i}_star", us[0] * us[i], us[i])
        rec(f"u{i}_star*u0 = u{i}_star", us[i] * u[0], us[i])
        rec(f"u{i}*u0 = 0", u[i] * u[0], zero)
        rec(f"u0*u{i}_star = 0", u[0] * us[i], zero)
        rec(f"u{i}_star*u0_star = 0", us[i] * us[0], zero)
        rec(f"u0_star*u{i} = 0", us[0] * u[i], zero)
    rec("u0*u0 = u0", u[0] * u[0], u[0])
    rec("u0_star*u0_star = u0_star", us[0] * us[0], us[0])
    rec("u0*u0_star = 0", u[0] * us[0], zero)
    rec("u0_star*u0 = 0", us[0] * u[0], zero)
    return checks
