"""Split-frame spinor, Y-matrix block audits, formal block-sum oracle."""

import random

import numpy as np
import pytest

from octo_so8 import (
    CDyadic,
    Dyadic,
    LinearForm,
    SquareMatrix,
    assemble_X,
    audit_Y_blocks,
    block_decompose,
    build_split_basis,
)
from octo_so8.matrices import from_blocks
from octo_so8.splitrep import split_transform
from oracles import block_sum_oracle


def rand_form(rng):
    def c():
        re = Dyadic(rng.randint(-4, 4), rng.randint(0, 2))
        return re + CDyadic(0, 1) * Dyadic(rng.randint(-4, 4),
                                           rng.randint(0, 2))
    return LinearForm([c() for _ in range(9)])


def rand_form_matrix(rng, n=4):
    return SquareMatrix([[rand_form(rng) for _ in range(n)] for _ in range(n)])


class TestSplitSpinor:
    def test_component_layout(self):
        phi = list(build_split_basis())
        assert len(phi) == 8
        # phi[0] = u0 = (e0 + i e7) / 2
        assert complex(phi[0].coeffs[0]) == 0.5
        assert complex(phi[0].coeffs[7]) == 0.5j
        # phi[4] = u0*, the conjugate coefficient pattern
        assert complex(phi[4].coeffs[7]) == -0.5j
        for m, pair in enumerate([(0, 7), (1, 4), (2, 5), (3, 6)]):
            for k in range(8):
                expected_zero = k not in pair
                assert phi[m].coeffs[k].is_zero() == expected_zero
                assert phi[m + 4].coeffs[k].is_zero() == expected_zero


class TestYBlockAudits:
    @pytest.fixture()
    def audits(self, fx):
        a, b, _ = block_decompose(assemble_X())
        return audit_Y_blocks(fx, b, from_blocks(a, a, b, b))

    def test_first_matrix_form_holds(self, audits):
        (a1, _, _), _ = audits
        assert a1["name"] == "first-matrix-block-form"
        assert a1["ok"] and a1["cells"] == []

    def test_second_matrix_single_cell(self, audits):
        (_, a2, _), _ = audits
        assert not a2["ok"]
        assert [dict(c) for c in a2["cells"]] == [
            {"row": 4, "col": 8, "left": "-f8", "right": "0"},
        ]

    def test_stated_top_left_fails_broadly(self, audits):
        (_, _, a3), _ = audits
        assert not a3["ok"]
        assert len(a3["cells"]) == 16

    def test_b_minus_c_support(self, audits):
        _, bmc = audits
        cells = bmc.nonzero_cells()
        assert len(cells) == 16
        i, j, e = cells[0]
        assert (i, j, str(e)) == (1, 1, "f1+f7")

    def test_as_dict_shape(self, audits):
        for d in audits[0]:
            assert list(d) == ["name", "ok", "cells"]


class TestBlockSumOracle:
    def test_100_random_quadruples(self):
        rng = random.Random(1729)
        for _ in range(100):
            a, b, c, d = (rand_form_matrix(rng) for _ in range(4))
            assert block_sum_oracle(a, b, c, d)

    def test_reconstruction_consistency(self, fx):
        dec = block_decompose(assemble_X())
        a, b, c, d = dec.a, dec.b, fx.eq23_c, fx.eq24_d
        y = from_blocks(a + c, a - c, b + d, b - d)
        assert y.block(0, 0, 4) == dec.a + fx.eq23_c
        assert y.block(1, 1, 4) == dec.b - fx.eq24_d


class TestSplitTransform:
    def test_zero_matrix_is_identity(self):
        phi = list(build_split_basis())
        out = split_transform(phi, np.zeros((8, 8)))
        for before, row in zip(phi, out):
            assert list(row) == [complex(c) for c in before.coeffs]

    def test_length_checked(self):
        with pytest.raises(ValueError):
            split_transform(build_split_basis()[:2],
                            np.zeros((8, 8)))
