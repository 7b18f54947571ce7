"""Octonion algebra laws and the split null basis."""

import random

from octo_so8 import Octonion, build_split_basis, verify_split_relations
from octo_so8.octonion import TABLE


def associator(x, y, z):
    return (x * y) * z - x * (y * z)


def rand_octonion(rng):
    return Octonion([rng.randint(-9, 9) for _ in range(8)])


class TestBasisProducts:
    def test_all_64_against_fixture(self, fx):
        # the bundled signed table is the ground truth for e_i * e_j
        for i in range(8):
            for j in range(8):
                sign, k = fx.table2.cell(i, j)
                expected = Octonion.unit(k) * sign
                assert Octonion.unit(i) * Octonion.unit(j) == expected

    def test_structure_table_matches_fixture(self, fx):
        assert TABLE.to_signed_table() == fx.table2

    def test_identity_element(self):
        e0 = Octonion.unit(0)
        x = Octonion(list(range(1, 9)))
        assert e0 * x == x and x * e0 == x

    def test_imaginary_units_square_to_minus_one(self):
        for k in range(1, 8):
            ek = Octonion.unit(k)
            assert ek * ek == -Octonion.unit(0)

    def test_oriented_triples(self):
        # (i, j, k) with i < j and e_i * e_j = +e_k, one per Fano line
        assert set(TABLE.oriented_triples()) == {
            (1, 2, 3), (1, 4, 7), (1, 6, 5),
            (2, 4, 6), (2, 5, 7), (3, 5, 4), (3, 6, 7),
        }


class TestAlgebraLaws:
    def test_norm_composition_500_pairs(self):
        rng = random.Random(8128)
        for _ in range(500):
            x, y = rand_octonion(rng), rand_octonion(rng)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_alternativity(self):
        rng = random.Random(496)
        for _ in range(300):
            x, y = rand_octonion(rng), rand_octonion(rng)
            assert x * (x * y) == (x * x) * y
            assert (y * x) * x == y * (x * x)

    def test_moufang_identity(self):
        rng = random.Random(28)
        for _ in range(200):
            x, y, z = (rand_octonion(rng) for _ in range(3))
            assert ((x * y) * x) * z == x * (y * (x * z))

    def test_nonassociative(self):
        e1, e2, e4 = (Octonion.unit(k) for k in (1, 2, 4))
        assert not associator(e1, e2, e4).is_zero()

    def test_associator_alternating_on_basis(self):
        units = [Octonion.unit(k) for k in range(8)]
        for i in range(1, 8):
            for j in range(1, 8):
                for k in range(1, 8):
                    a = associator(units[i], units[j], units[k])
                    assert a == -associator(units[j], units[i], units[k])
                    if len({i, j, k}) < 3:
                        assert a.is_zero()

    def test_conjugation_antihomomorphism(self):
        rng = random.Random(6)
        for _ in range(100):
            x, y = rand_octonion(rng), rand_octonion(rng)
            assert (x * y).conj() == y.conj() * x.conj()

    def test_commutator_of_commuting_pair(self):
        x = Octonion.unit(1)
        y = x * 3
        assert (x * y - y * x).is_zero()


class TestSplitBasis:
    def test_component_pattern(self):
        b = build_split_basis()
        pairs = [(0, 7), (1, 4), (2, 5), (3, 6)]
        for m, (a, bidx) in enumerate(pairs):
            u = b.u[m]
            for k, c in enumerate(u.coeffs):
                if k == a:
                    assert complex(c) == 0.5
                elif k == bidx:
                    assert complex(c) == 0.5j
                else:
                    assert c.is_zero()

    def test_relation_family_all_hold(self):
        checks = verify_split_relations()
        assert len(checks) == 64
        assert all(c.ok for c in checks)

    def test_spot_checks(self):
        b = build_split_basis()
        u, us = b.u, b.u_star
        assert u[1] * u[2] == us[3]
        assert u[0] * u[0] == u[0]
        assert (u[0] * us[0]).is_zero()

    def test_zero_divisors_have_zero_norm(self):
        b = build_split_basis()
        assert b.u[0].norm().is_zero()
        assert not (b.u[0] + b.u_star[0]).norm().is_zero()

    def test_element_lookup(self):
        b = build_split_basis()
        assert b.ordered()[6] == b.u_star[2]
        assert b.ordered()[0] == b.u[0]
