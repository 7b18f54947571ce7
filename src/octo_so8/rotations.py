"""SO(8) rotation machinery over the generator matrices.

The symbolic object of interest is X = sum_A f_A beta_A, an 8x8 matrix
of linear forms.  Rotations act by conjugation with R_kl = I + theta *
N, where N = beta_k beta_l is a signed permutation (a ``Monomial``)
with N^2 = s*I, s = +1 or -1, for every plane of both readings.  So
R (I - theta N) = (1 - s theta^2) I and

    R X R^-1 = (X + theta (N X - X N) - theta^2 N X N) / (1 - s theta^2),

three permutations of X's entries and no dense product or elimination.
The module provides that exact conjugation (f symbols carried
linearly), component extraction by the trace projection
Tr(beta_A M) / 8, the first-order component map, the duplicate-plane
scan, and the numeric matrix exponential used for spinor transport.

Only the numeric section uses floats.  Its functions import numpy on
their first call, so the exact layers, and the subcommands built on
them alone, never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import CRational
from .matrices import BetaSet, Monomial, SquareMatrix, beta_set, gram
from .octonion import Octonion
from .symbolic import LinearForm


class StructureMismatch(ValueError):
    """Block structure of a symbolic matrix is not the expected compact
    form; carries the offending 1-indexed cells."""

    def __init__(self, message, cells):
        super().__init__(message)
        self.cells = cells


class SingularRotation(ValueError):
    """A matrix to be inverted is singular: a rotation operator
    I + theta N, or the input of invert_exact."""


class DegenerateBasis(ValueError):
    """Component extraction attempted against a singular Gram matrix."""


class NonFiniteInput(ValueError):
    """Numeric path fed NaN or infinity."""


class ToleranceNotMet(ArithmeticError):
    """Series did not reach tolerance within the iteration cap."""


# ---------------------------------------------------------------------------
# symbolic assembly

def assemble_X(betas: Optional[BetaSet] = None) -> SquareMatrix:
    """X with entry (i,j) = sum_A beta_A[i][j] * f_A."""
    bs = betas or beta_set()
    rows = []
    for i in range(8):
        row = []
        for j in range(8):
            coeffs = [0] + [bs.mats[a].at(i, j) for a in range(8)]
            row.append(LinearForm(coeffs))
        rows.append(row)
    return SquareMatrix(rows)


@dataclass(frozen=True)
class BlockDecomp:
    """X = [[A, B+], [B, -A]] reading; a and b are the 4x4 form blocks."""
    a: SquareMatrix
    b: SquareMatrix


def block_decompose(x: SquareMatrix) -> BlockDecomp:
    tl, tr = x.block(0, 0, 4), x.block(0, 1, 4)
    bl, br = x.block(1, 0, 4), x.block(1, 1, 4)
    bad = []
    expect_tr = bl.conj_transpose()
    for i in range(4):
        for j in range(4):
            if not tr.at(i, j) == expect_tr.at(i, j):
                bad.append((i + 1, j + 5))
            if not br.at(i, j) == -tl.at(i, j):
                bad.append((i + 5, j + 5))
    if bad:
        raise StructureMismatch("matrix is not in compact block form", bad)
    return BlockDecomp(tl, bl)


# ---------------------------------------------------------------------------
# rotation operators

def plane_product(k: int, l: int, betas: Optional[BetaSet] = None) -> Monomial:
    """beta_k beta_l for a rotation plane (k, l), 1-indexed, k != l."""
    if k == l:
        raise ValueError("rotation plane needs two distinct indices")
    if not (1 <= k <= 8 and 1 <= l <= 8):
        raise ValueError("plane indices out of range 1..8")
    bs = betas or beta_set()
    return bs.beta(k) @ bs.beta(l)


def invert_exact(m: SquareMatrix) -> SquareMatrix:
    """Gauss-Jordan inverse over exact scalar entries.  Rotations and
    component extraction do not need it; the gram-orthogonality claim
    does, for its singular flags."""
    n = m.n
    a = [list(row) + list(unit)
         for row, unit in zip(m.rows, SquareMatrix.identity(n).rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise SingularRotation(f"singular at column {col + 1}")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inv()
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return SquareMatrix([row[n:] for row in a])


def rotate_exact(x: SquareMatrix, k: int, l: int, theta: CRational,
                 betas: Optional[BetaSet] = None) -> SquareMatrix:
    """R x R^-1 exactly, with R = I + theta N and N = beta_k beta_l.

    N^2 = s*I, so R^-1 = (I - theta N) / (1 - s theta^2) and the result
    is (x + theta (N x - x N) - theta^2 N x N) / (1 - s theta^2); form
    coefficients leave the dyadics there.  R is singular exactly when
    1 - s theta^2 = 0, except for a scalar N = c*I (plane (1,8) of the
    tensor reading, N = I): then R = (1 + c theta) I, singular only at
    1 + c theta = 0, and x comes back unchanged.  Raises
    SingularRotation, naming the plane and theta, when R has no inverse.
    """
    n = plane_product(k, l, betas)
    scalar = n.perm == tuple(range(8)) and len(set(n.phase)) == 1
    det = (1 + n.at(0, 0) * theta if scalar
           else 1 - (n @ n).at(0, 0) * theta * theta)
    if det.is_zero():
        raise SingularRotation(
            f"rotation of plane ({k},{l}) with theta={theta} is singular")
    if scalar:
        return x
    nx = n @ x
    num = x + (nx - x @ n).scale(theta) - (nx @ n).scale(theta * theta)
    return num.scale(det.inv())


# ---------------------------------------------------------------------------
# component extraction

def extract_components(m: SquareMatrix, betas: Optional[BetaSet] = None):
    """Project a symbolic matrix onto the generator span.

    Returns (forms, residual): forms[A] = Tr(beta_A m) / 8, the
    coefficient of beta_A as a LinearForm, and residual = m - sum_A
    forms[A] * beta_A (exact).  That projection needs the Gram matrix
    G[A][B] = Tr(beta_A beta_B) to be 8*I, as it is under the sigma
    reading; otherwise raises DegenerateBasis.  The only other reading,
    tensor, has a singular G (beta_8 repeats beta_1).
    """
    bs = betas or beta_set()
    if gram(bs) != SquareMatrix.identity(8).scale(CRational(8)):
        raise DegenerateBasis("generator Gram matrix is singular")
    eighth = CRational(1, 0, 8)
    forms = tuple(LinearForm.zero() + eighth * b.trace_with(m)
                  for b in bs.mats)
    rows = [[LinearForm.zero() + e for e in row] for row in m.rows]
    for form, b in zip(forms, bs.mats):
        for r, c in enumerate(b.perm):
            rows[r][c] = rows[r][c] - b.at(r, c) * form
    return forms, SquareMatrix(rows)


@dataclass(frozen=True)
class ComponentMap:
    """First-order component flow f_A -> f_A + theta * lines[A](f)."""
    k: int
    l: int
    lines: tuple         # 8 LinearForms, the theta coefficients
    residual: SquareMatrix   # per-theta residual outside the span

    def apply(self, fvals: Sequence, theta) -> list:
        out = []
        for a in range(8):
            out.append(fvals[a] + theta * self.lines[a].substitute(fvals))
        return out


def rotation_component_map(k: int, l: int,
                           betas: Optional[BetaSet] = None) -> ComponentMap:
    """Trace-projected first-order action of the (k, l) rotation.
    Raises DegenerateBasis, naming the plane and the reading, when the
    generator Gram matrix is singular."""
    bs = betas or beta_set()
    x = assemble_X(bs)
    n = plane_product(k, l, bs)
    comm = (n @ x) - (x @ n)
    try:
        forms, residual = extract_components(comm, bs)
    except DegenerateBasis as exc:
        raise DegenerateBasis(
            f"plane ({k},{l}) under the {bs.variant} reading: {exc}") from None
    return ComponentMap(k, l, forms, residual)


# ---------------------------------------------------------------------------
# duplicate-plane scan

def duplicate_rotation_scan(betas: Optional[BetaSet] = None):
    """Partition all 28 planes (k < l) by exact equality of
    beta_k beta_l; classes come back sorted by first member."""
    bs = betas or beta_set()
    groups: dict = {}
    order = []
    for k in range(1, 9):
        for l in range(k + 1, 9):
            key = plane_product(k, l, bs)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((k, l))
    return [tuple(groups[key]) for key in order]


# ---------------------------------------------------------------------------
# numeric exponential and spinor transport

def substitute_matrix(x: SquareMatrix, fvals: Sequence) -> SquareMatrix:
    """Evaluate every linear-form entry at f = fvals."""
    return x.map(lambda form: form.substitute(fvals))


# i**q as complex, for q = 0..3
_UNITS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def numeric_X(fvals: Sequence, betas: Optional[BetaSet] = None):
    """sum_A f_A beta_A as a complex array; fvals may be floats.

    Each generator adds f_A * i**phase at its cells (r, perm[r]), in A
    order.  For finite f the skipped cells would only add signed zeros
    to a sum that starts at +0, so the array is bit-identical to the
    dense sum of f_A times each generator's complex array.
    """
    import numpy as np
    rows = [[0j] * 8 for _ in range(8)]
    for a, b in enumerate((betas or beta_set()).mats):
        z = complex(fvals[a])
        for r, (c, q) in enumerate(zip(b.perm, b.phase)):
            rows[r][c] += z * _UNITS[q]
    return np.array(rows, dtype=np.complex128)


def substitute_numeric(x: SquareMatrix, fvals: Sequence):
    """Every linear-form entry evaluated at float f = fvals, as a
    complex array: the numeric twin of substitute_matrix."""
    import numpy as np
    out = np.empty((x.n, x.n), dtype=np.complex128)
    for i in range(x.n):
        for j in range(x.n):
            form = x.at(i, j)
            acc = complex(form.constant)
            for a in range(8):
                acc += complex(form.coeff(a + 1)) * fvals[a]
            out[i, j] = acc
    return out


DEFAULT_TOL = 2.0 ** -40
DEFAULT_MAX_TERMS = 64


def matrix_exp(m, tol: float = DEFAULT_TOL):
    """Scaling-and-squaring Taylor exponential.

    Scales by 2**-s until the max-row-sum norm is <= 1/2, sums at most
    DEFAULT_MAX_TERMS Taylor terms, stopping once the next term's
    max-entry magnitude drops below tol, then squares s times.  So tol
    bounds the last Taylor term of the 2**-s-scaled series, not the
    error of e^X: the squarings amplify truncation and rounding.  On
    generator sums X with |f_A| up to about 100, the relative max-entry
    error against scipy.linalg.expm reaches a few 1e-11 at the default
    tol.  Raises NonFiniteInput when the input or the result holds NaN
    or infinity, or when the norm or 2**s is not a finite binary64;
    ToleranceNotMet when the series does not converge.
    """
    import numpy as np
    a = np.asarray(m, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    with np.errstate(over="ignore"):
        norm = float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0
    s = 0
    while 0.5 < norm < math.inf:
        norm /= 2.0
        s += 1
    if norm == math.inf or s >= 1024:    # 2.0 ** 1024 overflows
        raise NonFiniteInput("matrix norm overflows binary64")
    scaled = a / (2.0 ** s)
    n = a.shape[0]
    result = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, DEFAULT_MAX_TERMS + 1):
        term = term @ scaled / k
        result = result + term
        if float(np.max(np.abs(term))) < tol:
            break
    else:
        raise ToleranceNotMet(f"exponential series above tol {tol} after "
                              f"{DEFAULT_MAX_TERMS} terms")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise NonFiniteInput("exponential overflows binary64")
    return result


def spinor_transform(psi: Sequence[Octonion], x_num,
                     tol: float = DEFAULT_TOL):
    """The coefficients of psi' = exp(X) psi as one product exp(X) C,
    where row j of C holds psi_j's coefficients on e0..e7; row i of the
    complex result is psi'_i."""
    import numpy as np
    if len(psi) != x_num.shape[0]:
        raise ValueError("spinor length does not match the matrix")
    c = np.array([[complex(v) for v in o.coeffs] for o in psi],
                 dtype=np.complex128)
    return matrix_exp(x_num, tol) @ c


def standard_spinor() -> list:
    """(1, e1, ..., e7) as exact bioctonions; its coefficient array is
    the identity."""
    return [Octonion.unit(k, CRational(1)) for k in range(8)]


def hermiticity_defect(e) -> float:
    import numpy as np
    return float(np.max(np.abs(e - e.conj().T)))


def unitarity_defect(e) -> float:
    import numpy as np
    n = e.shape[0]
    return float(np.max(np.abs(e.conj().T @ e - np.eye(n))))
