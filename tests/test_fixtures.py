"""Fixture loading: grammar validation, locations in errors, digests."""

import pytest

from octo_so8 import FixtureError, load_fixtures
from octo_so8.fixtures import (
    FIXTURE_FILES,
    parse_form_matrix,
    parse_map_lines,
    parse_signed_grid,
    parse_term_lines,
    parse_theta_grid,
)


class TestLoading:
    def test_bundled_set_is_complete(self, fx):
        assert sorted(fx.digests) == sorted(FIXTURE_FILES)
        assert len(FIXTURE_FILES) == 11
        for digest in fx.digests.values():
            assert len(digest) == 64
            int(digest, 16)

    def test_parsed_shapes(self, fx):
        assert fx.eq6.n == 8
        assert fx.eq13.n == 8
        assert fx.eq23_c.n == 4
        assert fx.eq24_d.n == 4
        assert len(fx.eq14) == 8
        assert sorted(fx.eq2) == list(range(1, 9))

    def test_directory_copy_loads_identically(self, fx, data_copy):
        other = load_fixtures(str(data_copy))
        assert other.digests == fx.digests
        assert other.table2 == fx.table2
        assert other.eq6 == fx.eq6

    def test_missing_directory(self):
        with pytest.raises(FixtureError, match="directory not found"):
            load_fixtures("/nonexistent/fixture/dir")

    def test_missing_file(self, data_copy):
        (data_copy / "table2.txt").unlink()
        with pytest.raises(FixtureError, match="missing fixture file"):
            load_fixtures(str(data_copy))

    def test_corrupt_token_is_located(self, data_copy):
        p = data_copy / "table2.txt"
        text = p.read_text()
        p.write_text(text.replace("e3", "e9", 1))
        with pytest.raises(FixtureError, match=r"table2\.txt:1:"):
            load_fixtures(str(data_copy))

    def test_non_utf8_file_is_named(self, data_copy):
        p = data_copy / "table1.txt"
        p.write_bytes(b"E0 E1\n\xff" + p.read_bytes())
        with pytest.raises(FixtureError, match=r"table1\.txt:2: not UTF-8"):
            load_fixtures(str(data_copy))


GOOD_GRID = "\n".join(["e0 e1 e2 e3 e4 e5 e6 e7"] * 8)


class TestSignedGridGrammar:
    def test_accepts_signs_and_blank_lines(self):
        text = "\n" + GOOD_GRID.replace("e1", "-e1") + "\n\n"
        t = parse_signed_grid(text, "t.txt", "e")
        assert t.cell(0, 1) == (-1, 1)

    def test_wrong_label_letter(self):
        with pytest.raises(FixtureError, match="bad cell token 'e0'"):
            parse_signed_grid(GOOD_GRID, "t.txt", "E")

    def test_wrong_row_count(self):
        with pytest.raises(FixtureError, match="expected 8 rows, found 7"):
            parse_signed_grid("\n".join(["e0"] * 7), "t.txt", "e")

    def test_wrong_cell_count(self):
        bad = GOOD_GRID.replace("e0 e1 e2 e3 e4 e5 e6 e7",
                                "e0 e1 e2 e3 e4 e5 e6", 1)
        with pytest.raises(FixtureError, match="t.txt:1: expected 8 cells"):
            parse_signed_grid(bad, "t.txt", "e")

    def test_index_out_of_range(self):
        with pytest.raises(FixtureError, match="out of range 0..7"):
            parse_signed_grid(GOOD_GRID.replace("e7", "e8"), "t.txt", "e")


class TestTermLineGrammar:
    def make(self, **kw):
        lines = []
        for a in range(1, 9):
            label = kw.get("label", f"beta{a}") if a == 1 else f"beta{a}"
            pref = kw.get("pref", "i") if a == 1 else "i"
            term = kw.get("term", "+S12") if a == 1 else "+S12"
            lines.append(f"{label} {pref} {term} " +
                         " ".join(["-S34", "+S56", "-S78", "+S11",
                                   "-S22", "+S33", "-S44"]))
        return "\n".join(lines)

    def test_accepts_well_formed(self):
        out = parse_term_lines(self.make(), "b.txt")
        assert out[1][0] is True
        assert out[1][1][0] == (1, 1, 2)

    def test_label_order_enforced(self):
        with pytest.raises(FixtureError, match="expected label beta1"):
            parse_term_lines(self.make(label="beta2"), "b.txt")

    def test_prefactor_vocabulary(self):
        with pytest.raises(FixtureError, match="prefactor"):
            parse_term_lines(self.make(pref="2"), "b.txt")

    def test_bad_term_token(self):
        with pytest.raises(FixtureError, match="bad term token"):
            parse_term_lines(self.make(term="+T12"), "b.txt")

    def test_unit_index_range(self):
        with pytest.raises(FixtureError, match="out of range"):
            parse_term_lines(self.make(term="+S09"), "b.txt")


class TestFormMatrixGrammar:
    def test_error_carries_position(self):
        rows = ["0 0 0 0"] * 4
        rows[2] = "0 f9 0 0"
        with pytest.raises(FixtureError, match="m.txt:3: column 2"):
            parse_form_matrix("\n".join(rows), "m.txt", size=4)

    def test_size_mismatch(self):
        with pytest.raises(FixtureError, match="expected 4 rows"):
            parse_form_matrix("0 0 0 0", "m.txt", size=4)


class TestThetaGridGrammar:
    def test_splits_parts(self):
        rows = ["1 theta 0 0 0 0 0 0"] + ["0 0 0 0 0 0 0 0"] * 7
        c, t = parse_theta_grid("\n".join(rows), "r.txt")
        assert not c.at(0, 0).is_zero()
        assert not t.at(0, 1).is_zero()
        assert c.at(0, 1).is_zero()

    def test_rejects_form_symbols(self):
        rows = ["f1 0 0 0 0 0 0 0"] + ["0 0 0 0 0 0 0 0"] * 7
        with pytest.raises(FixtureError, match="r.txt:1: column 1"):
            parse_theta_grid("\n".join(rows), "r.txt")


class TestMapLineGrammar:
    GOOD = "\n".join(f"f{a}: 2*f{a}" for a in range(1, 9))

    def test_accepts_well_formed(self):
        forms = parse_map_lines(self.GOOD, "m.txt")
        assert len(forms) == 8

    def test_label_order(self):
        bad = self.GOOD.replace("f1:", "f2:", 1)
        with pytest.raises(FixtureError, match="expected label f1:"):
            parse_map_lines(bad, "m.txt")

    def test_shape(self):
        bad = self.GOOD.replace("f1: 2*f1", "f1: 2 * f1", 1)
        with pytest.raises(FixtureError, match="expected 'fA: <form>'"):
            parse_map_lines(bad, "m.txt")
