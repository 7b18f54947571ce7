"""Split-octonion spinor representation and the transcribed Y fixtures.

The split spinor phi is ``octonion.build_split_basis()``, in the order
(u0, u1, u2, u3, u0*, u1*, u2*, u3*).  The transcribed source gives the
split-frame generator sum Y as two verbatim 8x8 symbolic matrices plus
two 4x4 blocks C and D; ``audit_Y_blocks`` re-derives the claimed block
structure and reports agreement cell by cell instead of repairing the
transcription.
"""

from __future__ import annotations

from .fixtures import FixtureStore
from .matrices import SquareMatrix, diff_cells
from .rotations import spinor_transform


def audit_Y_blocks(fx: FixtureStore, b: SquareMatrix, y1: SquareMatrix):
    """Three sub-audits of the transcribed split-frame matrices, given
    the derived block B of X and y1 = [[A, A], [B, B]] from its blocks.

    (a) eq21_y1 == y1;
    (b) eq21_y2 == [[C, -C], [D, -D]] from the transcribed C, D, a -C
        or -D cell compared field by field with the sign flipped;
    (c) the stated top-left block of the total, A + B, equals the formal
        top-left A + C  (equivalently B == C): the cells of B - C.
    Returns (audits, b_minus_c): each audit a {"name", "ok", "cells"}
    dict, cells empty when ok, and b_minus_c the 4x4 difference.
    """
    c, d = fx.eq23_c, fx.eq24_d
    y2_cells = []
    for i, (row, cd_row) in enumerate(zip(fx.eq21_y2.rows, c.rows + d.rows)):
        for j, (y, e) in enumerate(zip(row, cd_row * 2)):
            if not (y == e if j < 4 else _negates(y, e)):
                y2_cells.append({"row": i + 1, "col": j + 1, "left": str(y),
                                 "right": str(e if j < 4 else -e)})
    audits = [
        {"name": name, "ok": not cells, "cells": cells}
        for name, cells in (
            ("first-matrix-block-form", diff_cells(fx.eq21_y1, y1)),
            ("second-matrix-block-form", y2_cells),
            ("stated-sum-top-left", diff_cells(b, c)))]
    return audits, b - c


def _negates(y, e) -> bool:
    """y == -e for two linear forms, without building -e."""
    return all(p.a == -q.a and p.b == -q.b and p.d == q.d
               for p, q in zip(y.coeffs, e.coeffs))


# The split spinor is transported exactly like the standard one.
split_transform = spinor_transform
