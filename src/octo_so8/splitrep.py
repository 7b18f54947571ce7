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
from .matrices import SquareMatrix, diff_cells, from_blocks
from .rotations import spinor_transform


def audit_Y_blocks(fx: FixtureStore, b: SquareMatrix, y1: SquareMatrix):
    """Three sub-audits of the transcribed split-frame matrices, given
    the derived block B of X and y1 = [[A, A], [B, B]] from its blocks.

    (a) eq21_y1 == y1;
    (b) eq21_y2 == [[C, -C], [D, -D]] from the transcribed C, D;
    (c) the stated top-left block of the total, A + B, equals the formal
        top-left A + C  (equivalently B == C).
    Returns (audits, b_minus_c): each audit a {"name", "ok", "cells"}
    dict, cells empty when ok, and b_minus_c the 4x4 difference.
    """
    c, d = fx.eq23_c, fx.eq24_d
    audits = [
        {"name": name, "ok": not cells, "cells": cells}
        for name, cells in (
            ("first-matrix-block-form", diff_cells(fx.eq21_y1, y1)),
            ("second-matrix-block-form",
             diff_cells(fx.eq21_y2, from_blocks(c, -c, d, -d))),
            ("stated-sum-top-left", diff_cells(b, c)))]
    return audits, b - c


# The split spinor is transported exactly like the standard one.
split_transform = spinor_transform
