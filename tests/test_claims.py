"""Claim registry: frozen verdicts, details payloads, report rendering."""

import enum
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octo_so8 import (TOOLKIT_VERSION, beta_set, cli, compare_tables,
                      render_markdown, run_all, to_json)
from octo_so8.claims import CLAIMS, context, dump_json
from octo_so8.octonion import TABLE

EXPECTED_STATUSES = {
    "beta-consistency": "confirmed",
    "beta8-consistency": "refuted",
    "dup-rotations": "confirmed",
    "eq12-fixture": "confirmed",
    "eq13-increment": "confirmed",
    "eq14-map": "refuted",
    "eq15-alternates": "confirmed",
    "eq18-relations": "confirmed",
    "eq19-split-spinor": "confirmed",
    "eq2-fixture": "confirmed",
    "eq22-blocks": "refuted",
    "eq6-fixture": "confirmed",
    "eq8-eq9-blocks": "confirmed",
    "exp-action": "confirmed",
    "gram-orthogonality": "confirmed",
    "table-48-16": "refuted",
    "table1-self-consistency": "refuted",
    "table2-fixture": "confirmed",
    "x-traceless-hermitian": "confirmed",
}


def claim(report, cid):
    return next(r for r in report["claims"] if r["id"] == cid)


@pytest.fixture(scope="module")
def treport(fx):
    return run_all(fx, variant="tensor")


class TestRegistry:
    def test_ids_unique_and_complete(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids)) == 19
        assert set(ids) == set(EXPECTED_STATUSES)

    def test_every_claim_has_anchor(self):
        for c in CLAIMS:
            assert c.anchor.strip()


class TestDefaultRun:
    def test_summary(self, report):
        assert report["summary"] == {"confirmed": 14, "refuted": 5,
                                     "degenerate": 0}

    def test_statuses(self, report):
        got = {r["id"]: r["status"] for r in report["claims"]}
        assert got == EXPECTED_STATUSES

    def test_claims_sorted_by_id(self, report):
        ids = [r["id"] for r in report["claims"]]
        assert ids == sorted(ids)

    def test_fixture_rows_sorted_by_name(self, report):
        names = [f["name"] for f in report["fixtures"]]
        assert names == sorted(names) and len(names) == 11

    def test_version(self, report):
        assert report["version"] == TOOLKIT_VERSION == "0.1.0"


class TestFrozenDetails:
    def test_table_48_16(self, report):
        det = claim(report, "table-48-16")["details"]
        assert det["stated"] == {"identical": 48, "sign_flipped": 16}
        assert det["counts"] == {"identical": 44, "sign_flipped": 20,
                                 "structurally_different": 0}
        flips = {(c["row"], c["col"]) for c in det["cells"]}
        assert flips == {
            (1, 4), (1, 5), (1, 6), (1, 7),
            (4, 4), (4, 5), (4, 6), (4, 7),
            (5, 1), (5, 2), (5, 4), (5, 5),
            (6, 1), (6, 3), (6, 4), (6, 6),
            (7, 2), (7, 3), (7, 5), (7, 6),
        }
        assert all(c["kind"] == "sign-flipped" for c in det["cells"])

    def test_table1_self_consistency(self, report):
        det = claim(report, "table1-self-consistency")["details"]
        assert det["counts"] == {"identical": 63, "sign_flipped": 1,
                                 "structurally_different": 0}
        assert det["cells"] == [{"row": 6, "col": 5, "left": "+1",
                                 "right": "-1", "kind": "sign-flipped"}]

    def test_eq14_map(self, report):
        det = claim(report, "eq14-map")["details"]
        mismatched = {l["component"] for l in det["lines"] if not l["match"]}
        assert mismatched == {1, 3, 4}
        by_comp = {l["component"]: l for l in det["lines"]}
        assert by_comp[1]["derived"] == "2*f2"
        assert by_comp[1]["stated"] == "2*f2-2i*f4"
        assert by_comp[3] == {"component": 3, "derived": "0",
                              "stated": "2i*f6", "match": False,
                              "stated_has_imaginary_coeff": True}
        assert by_comp[4]["stated"] == "-2i*f1"
        residual = [(c["row"], c["col"], c["entry"])
                    for c in det["projection_residual_cells"]]
        assert residual == [
            (1, 8, "-2*f4"), (2, 7, "2*f4"), (3, 6, "2*f4"), (4, 5, "-2*f4"),
            (5, 4, "-2*f4"), (6, 3, "2*f4"), (7, 2, "2*f4"), (8, 1, "-2*f4"),
        ]

    def test_beta8(self, report):
        det = claim(report, "beta8-consistency")["details"]
        assert det["differing_cells"] == 16
        assert len(det["cells"]) == 16
        assert det["cells"][0] == {"row": 1, "col": 1,
                                   "left": "1", "right": "0"}

    def test_eq22_blocks(self, report):
        det = claim(report, "eq22-blocks")["details"]
        by_name = {a["name"]: a for a in det["audits"]}
        assert by_name["first-matrix-block-form"]["ok"] is True
        assert by_name["second-matrix-block-form"]["cells"] == [
            {"row": 4, "col": 8, "left": "-f8", "right": "0"},
        ]
        assert len(by_name["stated-sum-top-left"]["cells"]) == 16
        bmc = det["b_minus_c_cells"]
        assert len(bmc) == 16
        assert bmc[0] == {"row": 1, "col": 1, "entry": "f1+f7"}

    def test_dup_rotations(self, report):
        det = claim(report, "dup-rotations")["details"]
        assert det["class_of_plane_1_2"] == [[1, 2], [5, 6], [7, 8]]
        partition = det["partition"]
        assert sum(len(c) for c in partition) == 28
        assert len(partition) == 23

    def test_gram(self, report):
        det = claim(report, "gram-orthogonality")["details"]
        assert det["variant"] == "sigma"
        assert det["cells_off_8I"] == []
        assert [1, 2] in det["anticommuting_pairs"]
        assert len(det["anticommuting_pairs"]) == 14
        assert det["tensor_reading_entry_1_8"] == "8"
        assert det["tensor_reading_singular"] is True

    def test_exp_action(self, report):
        det = claim(report, "exp-action")["details"]
        assert det["zero_exponent_is_exact_identity"] is True
        assert det["zero_action_fixes_spinor"] is True
        assert det["diagonal_oracle_max_error"] <= det["tolerance_bound"]
        assert det["hermiticity_defect"] <= det["tolerance_bound"]
        assert det["norm_preserving"] is False
        assert det["generator_reading"] == "sigma"

    def test_eq19(self, report):
        det = claim(report, "eq19-split-spinor")["details"]
        assert det["components"] == 8
        assert [p["pair"] for p in det["pairs"]] == [[0, 7], [1, 4],
                                                     [2, 5], [3, 6]]
        assert all(p["sum_recovers_unit"]
                   and p["difference_recovers_i_unit"]
                   and p["starred_is_conjugate"] for p in det["pairs"])

    def test_eq18(self, report):
        det = claim(report, "eq18-relations")["details"]
        assert det["identities_checked"] == 64
        assert len(det["verdicts"]) == 64
        assert all(v["ok"] for v in det["verdicts"])
        names = [v["name"] for v in det["verdicts"]]
        assert len(set(names)) == 64
        assert "u0*u0 = u0" in names
        assert det["failed"] == []


class TestTensorVariant:
    def test_summary(self, treport):
        assert treport["summary"] == {"confirmed": 8, "refuted": 9,
                                      "degenerate": 2}

    def test_degenerate_claims(self, treport):
        assert claim(treport, "eq14-map")["status"] == "degenerate"
        assert claim(treport, "gram-orthogonality")["status"] == "degenerate"
        assert claim(treport, "eq14-map")["details"] == {
            "reason": "generator Gram matrix is singular",
        }

    def test_variant_sensitive_flips(self, treport):
        # these five hold under the orthogonal reading but not here
        for cid in ("dup-rotations", "eq13-increment", "eq15-alternates",
                    "eq6-fixture", "eq8-eq9-blocks"):
            assert claim(treport, cid)["status"] == "refuted"

    def test_variant_insensitive_claims(self, treport):
        for cid in ("beta-consistency", "eq2-fixture", "table2-fixture",
                    "eq18-relations", "exp-action"):
            assert claim(treport, cid)["status"] == "confirmed"

    def test_gram_details(self, treport):
        det = claim(treport, "gram-orthogonality")["details"]
        assert det["gram_singular"] is True
        assert {"row": 1, "col": 8, "left": "8", "right": "0"} \
            in det["cells_off_8I"]


class TestSerialization:
    def test_json_is_deterministic(self, fx, report):
        # an independent run must serialize byte-for-byte like the shared one
        assert to_json(run_all(fx)).encode() == to_json(report).encode()

    def test_json_round_trips(self, report):
        s = to_json(report)
        assert json.dumps(json.loads(s), indent=2) == s

    def test_dict_schema(self, report):
        assert list(report) == ["version", "fixtures", "claims", "summary"]
        for row in report["claims"]:
            assert list(row) == ["id", "anchor", "status", "details"]
        for row in report["fixtures"]:
            assert list(row) == ["name", "digest"]

    def test_markdown_rendering(self, report):
        md = render_markdown(report)
        assert md.startswith("# Verification report")
        assert "confirmed: 14, refuted: 5, degenerate: 0" in md
        for cid in EXPECTED_STATUSES:
            assert f"### {cid}" in md
        assert md.endswith("\n")


class TestPlainData:
    """The report and each table diff are the JSON data they print: a
    round trip through the encoder gives back an equal value, so no
    tuple or record hides inside them."""

    def test_report_round_trips(self, report, treport):
        for r in (report, treport):
            assert json.loads(to_json(r)) == r

    @pytest.mark.parametrize("reading", ["sigma", "tensor"])
    def test_table_diffs_round_trip(self, fx, reading):
        derived = context(beta_set(reading)).table
        for left, right in ((fx.table2, derived), (derived, fx.table1),
                            (TABLE, fx.table2)):
            diff = compare_tables(left, right)
            assert list(diff) == ["counts", "cells"]
            assert json.loads(dump_json(diff)) == diff

    @pytest.mark.parametrize("reading", ["sigma", "tensor"])
    def test_tables_json_prints_the_diff(self, fx, reading, capsys):
        assert cli.main(["tables", "--beta-variant", reading,
                         "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)["diff"]
        assert printed == compare_tables(fx.table2,
                                         context(beta_set(reading)).table)


# values json.dumps writes: escapes, control, non-ASCII and astral
# characters in strings; big ints; the float edge cases; empty containers
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d546'),
    st.characters()))
JSON_LEAVES = st.one_of(
    JSON_TEXT, st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1.5e300, 0.1, -2.5]))


# subclasses, which dump_json reads as json.dumps does, by isinstance
class Str(str):
    pass


class Int(int):
    pass


class Float(float):
    pass


class List(list):
    pass


class Dict(dict):
    pass


class Pair(NamedTuple):
    first: object
    second: object


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2 ** 70


SUBCLASS_LEAVES = st.one_of(
    JSON_TEXT.map(Str), st.integers().map(Int), st.sampled_from(Level),
    st.floats(allow_nan=False, allow_infinity=False).map(Float))
JSON_VALUES = st.recursive(
    st.one_of(JSON_LEAVES, SUBCLASS_LEAVES),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(List),
        st.builds(Pair, inner, inner),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
        st.dictionaries(JSON_TEXT.map(Str), inner, max_size=5).map(Dict)),
    max_leaves=40)


class TestDumpJson:
    @settings(deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, obj):
        assert dump_json(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [{}, [], [[]], {"a": {}}, [{}, []]])
    def test_empty_containers(self, obj):
        assert dump_json(obj) == json.dumps(obj, indent=2)

    def test_reports_match_json_dumps(self, report, treport):
        for r in (report, treport):
            assert to_json(r) == json.dumps(r, indent=2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError, match="non-finite float"):
            dump_json({"claims": [{"x": value}]})

    def test_cli_exits_2_on_a_non_finite_float(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "residual_max", lambda terms: math.nan)
        rc = cli.main(["rotate", "1", "2", "--theta=1/4",
                       "--f=1,0,0,0,0,0,0,0", "--format", "json"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "error: non-finite float nan is not JSON\n"
