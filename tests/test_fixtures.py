"""Fixture loading: grammar validation, locations in errors, digests."""

import hashlib
from types import SimpleNamespace

import pytest

from octo_so8 import (FixtureError, beta_set, fixtures, load_fixtures,
                      parse_linear_form, rotation_component_map)
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

    def test_split_y_is_summed_once(self, fx):
        y = fx.eq21_y1 + fx.eq21_y2
        for y_row, terms_row in zip(y.rows, fx.eq21_y_terms, strict=True):
            for form, (const, terms) in zip(y_row, terms_row, strict=True):
                assert const == complex(form.constant)
                assert terms == tuple((a, complex(c)) for a, c in
                                      enumerate(form.coeffs[1:]) if c)
        assert load_fixtures().eq21_y_terms is fx.eq21_y_terms

    def test_directory_copy_loads_identically(self, fx, data_copy):
        # the bundled set and a copy are read through one path
        other = load_fixtures(str(data_copy))
        assert other.digests == fx.digests
        assert other == fx

    def test_missing_directory(self):
        with pytest.raises(FixtureError, match="directory not found"):
            load_fixtures("/nonexistent/fixture/dir")

    def test_missing_file(self, data_copy):
        (data_copy / "table2.txt").unlink()
        with pytest.raises(FixtureError, match="missing fixture file"):
            load_fixtures(str(data_copy))

    def test_missing_bundled_file_names_its_path(self, data_copy,
                                                 monkeypatch):
        package = data_copy / "package"
        (package / "data").mkdir(parents=True)
        for name in FIXTURE_FILES:
            if name != "eq23_C.txt":
                (data_copy / name).rename(package / "data" / name)
        monkeypatch.setattr(fixtures, "resources",
                            SimpleNamespace(files=lambda _: package))
        with pytest.raises(FixtureError) as err:
            load_fixtures()
        assert str(err.value) == (
            f"missing fixture file: {package / 'data' / 'eq23_C.txt'}")

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


class TestParseMemo:
    """load_fixtures reuses the parse of bytes it has parsed before, but
    reads and digests every file on every call."""

    def test_repeat_load_is_equal(self, fx):
        first, second = load_fixtures(), load_fixtures()
        assert first == second == fx
        assert second.eq6 is first.eq6           # the parse was reused

    def test_edit_between_calls_gives_new_parse_and_digest(self, data_copy):
        first = load_fixtures(str(data_copy))
        p = data_copy / "eq14_map.txt"
        p.write_text(p.read_text().replace("f7: 2*f8", "f7: 3*f8"))
        second = load_fixtures(str(data_copy))
        assert second.eq14[6] != first.eq14[6]
        assert second.eq14[6] == parse_linear_form("3*f8")
        assert second.eq14[:6] == first.eq14[:6]
        changed = {n for n in FIXTURE_FILES
                   if first.digests[n] != second.digests[n]}
        assert changed == {"eq14_map.txt"}
        assert second.digests["eq14_map.txt"] == \
            hashlib.sha256(p.read_bytes()).hexdigest()

    def test_missing_file_after_good_call(self, data_copy):
        load_fixtures(str(data_copy))
        (data_copy / "table2.txt").unlink()
        with pytest.raises(FixtureError) as exc:
            load_fixtures(str(data_copy))
        assert str(exc.value) == \
            f"missing fixture file: {data_copy / 'table2.txt'}"

    def test_non_utf8_file_after_good_call(self, data_copy):
        load_fixtures(str(data_copy))
        p = data_copy / "table1.txt"
        p.write_bytes(b"E0 E1\n\xff" + p.read_bytes())
        with pytest.raises(FixtureError) as exc:
            load_fixtures(str(data_copy))
        assert str(exc.value) == \
            "table1.txt:2: not UTF-8 text (invalid start byte at byte 6)"

    def test_malformed_file_after_good_call(self, data_copy):
        load_fixtures(str(data_copy))
        p = data_copy / "table2.txt"
        p.write_text(p.read_text().replace("e3", "e9", 1))
        for _ in range(2):      # a failed parse is not remembered either
            with pytest.raises(FixtureError) as exc:
                load_fixtures(str(data_copy))
            assert str(exc.value) == \
                "table2.txt:1: basis index out of range 0..7 in 'e9'"

    def test_bad_form_token_after_good_call(self, data_copy):
        load_fixtures(str(data_copy))    # every good token is memoised
        p = data_copy / "eq6_X.txt"
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("f4+i*f2", "f4+i*f9", 1)
        p.write_text("\n".join(lines) + "\n")
        for _ in range(2):      # a failed token parse is not memoised
            with pytest.raises(FixtureError) as exc:
                load_fixtures(str(data_copy))
            assert str(exc.value) == \
                "eq6_X.txt:3: column 2: bad scalar atom 'f9' in 'f9'"

    def test_form_memo_is_bounded(self):
        assert parse_linear_form.cache_info().maxsize is not None

    def test_returned_dicts_are_not_shared(self):
        first = load_fixtures()
        digests, eq2 = dict(first.digests), dict(first.eq2)
        first.digests["table1.txt"] = "0" * 64
        first.digests.pop("table2.txt")
        first.eq2[1] = None
        first.eq2.clear()
        second = load_fixtures()
        assert second.digests == digests
        assert second.eq2 == eq2
        assert second.digests is not first.digests
        assert second.eq2 is not first.eq2


class TestRecords:
    """The records are NamedTuples: read-only, iterable, and equal to a
    tuple with the same values."""

    @pytest.fixture()
    def records(self, fx, report):
        return [beta_set("sigma"), fx, report.claims[0],
                rotation_component_map(1, 2)]

    def test_fields_are_read_only(self, records):
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_tuple_semantics(self, records):
        for record in records:
            assert record == tuple(record)


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


ROW_E = "e0 e1 e2 e3 e4 e5 e6 e7\n"
ROW_0 = "0 0 0 0 0 0 0 0\n"


@pytest.mark.parametrize("parse, text, message", [
    # row counts, all five parsers
    (lambda t: parse_signed_grid(t, "t.txt", "e"), ROW_E * 7,
     "t.txt: expected 8 rows, found 7"),
    (lambda t: parse_term_lines(t, "b.txt"), "\n\nbeta1 i\n",
     "b.txt: expected 8 rows, found 1"),
    (lambda t: parse_form_matrix(t, "m.txt", size=4), "0 0 0 0\n" * 5,
     "m.txt: expected 4 rows, found 5"),
    (lambda t: parse_theta_grid(t, "r.txt"), "",
     "r.txt: expected 8 rows, found 0"),
    (lambda t: parse_map_lines(t, "p.txt"), "f1: 0\n" * 9,
     "p.txt: expected 8 rows, found 9"),
    # cell counts, the three grid parsers; the line number counts blanks
    (lambda t: parse_signed_grid(t, "t.txt", "e"),
     "\n" + ROW_E + "e0 e1 e2 e3 e4 e5 e6\n" + ROW_E * 6,
     "t.txt:3: expected 8 cells, found 7"),
    (lambda t: parse_form_matrix(t, "m.txt", size=4),
     "0 0 0 0\n0 0 0 0 0\n0 0 0 0\n0 0 0 0\n",
     "m.txt:2: expected 4 cells, found 5"),
    (lambda t: parse_theta_grid(t, "r.txt"), "0\n" + ROW_0 * 7,
     "r.txt:1: expected 8 cells, found 1"),
])
def test_shape_messages_pinned(parse, text, message):
    with pytest.raises(FixtureError) as exc:
        parse(text)
    assert str(exc.value) == message


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
