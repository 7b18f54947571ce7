"""Split-octonion spinor representation and the transcribed Y fixtures.

The split spinor phi packs the split basis in the order
(u0, u1, u2, u3, u0*, u1*, u2*, u3*).  The transcribed source gives the
split-frame generator sum Y as two verbatim 8x8 symbolic matrices plus
two 4x4 blocks C and D; ``audit_Y_blocks`` re-derives the claimed block
structure and reports agreement cell by cell instead of repairing the
transcription.
"""

from __future__ import annotations

from typing import NamedTuple

from .matrices import SquareMatrix, from_blocks, diff_cells
from .octonion import build_split_basis
from .rotations import BlockDecomp, spinor_transform


class SplitSpinor(NamedTuple):
    components: tuple   # 8 bioctonions


def build_split_spinor() -> SplitSpinor:
    """phi = (u0, u1, u2, u3, u0*, u1*, u2*, u3*)."""
    return SplitSpinor(build_split_basis().ordered())


class YFixture(NamedTuple):
    """The two verbatim symbolic matrices and the C/D blocks."""
    first: SquareMatrix    # claimed [[A, A], [B, B]]
    second: SquareMatrix   # claimed [[C, -C], [D, -D]]
    c_block: SquareMatrix  # 4x4
    d_block: SquareMatrix  # 4x4


class BlockAudit(NamedTuple):
    name: str
    ok: bool
    cells: tuple   # diff cells, empty when ok

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "cells": list(self.cells)}


def audit_Y_blocks(fix: YFixture, decomp: BlockDecomp):
    """Three sub-audits of the transcribed split-frame matrices.

    (a) first matrix == [[A, A], [B, B]] with A, B the derived blocks;
    (b) second matrix == [[C, -C], [D, -D]] from the transcribed C, D;
    (c) the stated top-left block of the total, A + B, equals the formal
        top-left A + C  (equivalently B == C).
    Returns (audits, b_minus_c) where b_minus_c is the 4x4 difference.
    """
    a, b = decomp.a, decomp.b
    first_expected = from_blocks(a, a, b, b)
    second_expected = from_blocks(fix.c_block, -fix.c_block,
                                  fix.d_block, -fix.d_block)
    d1 = diff_cells(fix.first, first_expected)
    d2 = diff_cells(fix.second, second_expected)
    d3 = diff_cells(b, fix.c_block)
    audits = (
        BlockAudit("first-matrix-block-form", not d1, tuple(d1)),
        BlockAudit("second-matrix-block-form", not d2, tuple(d2)),
        BlockAudit("stated-sum-top-left", not d3, tuple(d3)),
    )
    return audits, b - fix.c_block


# The split spinor is transported exactly like the standard one.
split_transform = spinor_transform
