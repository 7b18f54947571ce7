"""Generator matrices, the E family, and signed-table comparison."""

import random

import pytest

from octo_so8 import (
    CDyadic,
    SquareMatrix,
    anticommutator_audit,
    audit_E_alternates,
    beta_set,
    build_E,
    compare_tables,
    gram,
    signed_table,
)
from octo_so8.matrices import (
    SIGMA_TERMS,
    Pauli,
    beta_sigma_expansion,
    beta_tensor_text,
    diff_cells,
    from_blocks,
    render_table,
)
from oracles import (Monomial, gamma, is_hermitian, is_traceless, kron,
                     pauli, to_dense)

I = CDyadic(0, 1)


def rand_monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return Monomial(perm, [rng.randrange(4) for _ in range(n)])


def rand_matrix(rng, n=4):
    return SquareMatrix([[CDyadic(rng.randint(-3, 3), rng.randint(-3, 3))
                          for _ in range(n)] for _ in range(n)])


class TestBuildingBlocks:
    """The Pauli and Dirac matrices of the dense reference."""

    def test_pauli_values(self):
        assert pauli(1).at(0, 1) == CDyadic(1)
        assert pauli(2).at(0, 1) == -I
        assert pauli(2).at(1, 0) == I
        assert pauli(3).at(1, 1) == CDyadic(-1)
        for j in (1, 2, 3):
            assert pauli(j) @ pauli(j) == SquareMatrix.identity(2)

    def test_gamma_values(self):
        assert gamma(1).at(0, 3) == -I
        assert gamma(1).at(3, 0) == I
        assert gamma(4).at(0, 0) == CDyadic(1)
        assert gamma(4).at(2, 2) == CDyadic(-1)
        for j in (1, 2, 3, 4):
            assert gamma(j) @ gamma(j) == SquareMatrix.identity(4)
            assert is_hermitian(gamma(j).to_dense())

    def test_kron_mixed_product(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = rand_monomial(rng, 2), rand_monomial(rng, 3)
            c, d = rand_monomial(rng, 2), rand_monomial(rng, 3)
            assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    def test_matmul_shape_check(self):
        with pytest.raises(TypeError):
            pauli(1) @ gamma(1)


class TestGenerators:
    def test_each_expansion_has_eight_terms(self):
        for a, (_, terms) in SIGMA_TERMS.items():
            assert len(terms) == 8
            signs = [s for s, _, _ in terms]
            assert signs.count(1) == 4 and signs.count(-1) == 4

    def test_variants_agree_on_first_seven(self):
        for a in range(1, 8):
            assert beta_sigma_expansion(a) == beta_tensor_text(a)

    def test_variants_disagree_on_eighth(self):
        cells = diff_cells(beta_sigma_expansion(8), beta_tensor_text(8))
        assert len(cells) == 16

    @pytest.mark.parametrize("a", range(1, 9))
    def test_involutive_hermitian_traceless(self, a):
        b = beta_sigma_expansion(a)
        assert is_hermitian(to_dense(b))
        assert is_traceless(to_dense(b))
        assert to_dense(b @ b) == SquareMatrix.identity(8)

    def test_beta_set_variants(self):
        assert beta_set("sigma").variant == "sigma"
        assert beta_set("tensor").beta(8) == beta_tensor_text(8)
        with pytest.raises(ValueError):
            beta_set("other")

    def test_gram_sigma_is_8I(self):
        g = gram(beta_set("sigma"))
        assert g == SquareMatrix.identity(8).scale(CDyadic(8))

    def test_gram_tensor_off_diagonal(self):
        g = gram(beta_set("tensor"))
        assert g.at(0, 7) == CDyadic(8)
        assert g.at(7, 0) == CDyadic(8)

    def test_anticommuting_pairs(self):
        pairs = anticommutator_audit(beta_set("sigma"))
        assert len(pairs) == 14
        assert (1, 2) in pairs and (7, 8) in pairs
        assert (1, 8) not in pairs


class TestEFamily:
    def test_e0_is_identity(self):
        ems = build_E(beta_set())
        assert to_dense(ems[0]) == SquareMatrix.identity(8)

    def test_alternate_products_all_agree(self):
        bs = beta_set()
        records = audit_E_alternates(bs, build_E(bs))
        assert records and all(r["equal"] for r in records)
        assert any(r["alternate"] == "E3*E6" for r in records)

    def test_products_all_resolve_to_signed_e(self):
        table = signed_table(build_E(beta_set()))
        for i in range(8):
            for j in range(8):
                assert table[i][j] is not None

    def test_derived_row_col_zero_trivial(self):
        table = signed_table(build_E(beta_set()))
        for k in range(8):
            assert table[0][k] == (1, k)
            assert table[k][0] == (1, k)


class TestTableComparison:
    def test_self_comparison_is_clean(self, fx):
        d = compare_tables(fx.table2, fx.table2)
        assert d["counts"] == {"identical": 64, "sign_flipped": 0,
                               "structurally_different": 0}
        assert d["cells"] == []

    def test_counts_always_partition_64(self, fx):
        derived = signed_table(build_E(beta_set()))
        d = compare_tables(fx.table2, derived)
        assert sum(d["counts"].values()) == 64

    def test_render_tokens(self, fx):
        grid = render_table(fx.table2, "e")
        assert grid[0][3] == "e3"
        assert grid[1][1] == "-e0"


class TestBlockHelpers:
    def test_from_blocks_roundtrip(self):
        rng = random.Random(5)
        tl, tr, bl, br = (rand_matrix(rng, 4) for _ in range(4))
        m = from_blocks(tl, tr, bl, br)
        assert m.block(0, 0, 4) == tl
        assert m.block(0, 1, 4) == tr
        assert m.block(1, 0, 4) == bl
        assert m.block(1, 1, 4) == br

    def test_diff_cells_reports_one_indexed(self):
        a = SquareMatrix.identity(2)
        b = SquareMatrix([[CDyadic(0)] * 2] * 2)
        cells = diff_cells(a, b)
        assert cells == [
            {"row": 1, "col": 1, "left": "1", "right": "0"},
            {"row": 2, "col": 2, "left": "1", "right": "0"},
        ]

    def test_diff_cells_reads_a_code_as_its_dense_form(self, fx):
        # every (x, z, q) code, as either side, against eq12's two parts
        # and seeded matrices of phases and zeros, and against the code
        # with some cells redrawn
        rng = random.Random("diff cells codes")
        phases = [CDyadic(0), CDyadic(1), CDyadic(-1), I, -I, CDyadic(1, 1)]
        drawn = [SquareMatrix([[rng.choice(phases) for _ in range(8)]
                               for _ in range(8)]) for _ in range(3)]
        for x in range(8):
            for z in range(8):
                for q in range(4):
                    code = Pauli(x, z, q)
                    dense = to_dense(code)
                    rows = [list(r) for r in dense.rows]
                    for _ in range(3):
                        rows[rng.randrange(8)][rng.randrange(8)] = \
                            rng.choice(phases)
                    near = SquareMatrix(rows)
                    for m in (fx.eq12_const, fx.eq12_theta, near, *drawn):
                        assert diff_cells(m, code) == diff_cells(m, dense)
                        assert diff_cells(code, m) == diff_cells(dense, m)
                    assert code.rows == [list(r) for r in dense.rows]
