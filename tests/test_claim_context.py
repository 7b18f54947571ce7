"""The per-reading claim context: ``verify`` derives the generator
objects of a reading once per process, and still reads the fixtures and
compares against them on every call."""

import json
from collections import Counter

import pytest
from test_golden import GOLDEN, _pin_json, _pin_md

from octo_so8 import claims, cli, load_fixtures
from octo_so8.claims import dump_json, run_all, to_json
from octo_so8.exact import CRational
from octo_so8.matrices import (BetaSet, Pauli, SquareMatrix, beta_set,
                               diff_cells, from_blocks, gram, gram_fault)
from octo_so8.rotations import (DegenerateBasis, SingularRotation,
                                assemble_X, invert_exact,
                                rotation_component_map)
from oracles import is_hermitian, is_traceless

READINGS = ("sigma", "tensor")
BUILDERS = ("assemble_X", "block_decompose", "gram", "verify_split_relations")


def _matches_golden(got: str, name: str, pin) -> bool:
    want = (GOLDEN / name).read_bytes().decode("utf-8")
    return (got if got == want else pin(got, want)) == want


def test_fixtures_are_read_on_every_call(capsys, data_copy):
    assert cli.main(["verify"]) == 0
    capsys.readouterr()

    eq6 = data_copy / "eq6_X.txt"
    rows = [line.split() for line in eq6.read_text().splitlines()]
    assert rows[2][5] == "i*f1"
    rows[2][5] = "f1"
    eq6.write_text("".join(" ".join(r) + "\n" for r in rows))
    argv = ["verify", "--fixtures", str(data_copy), "--format", "json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    eq6_claim = next(c for c in doc["claims"] if c["id"] == "eq6-fixture")
    assert eq6_claim["status"] == "refuted"
    assert eq6_claim["details"]["cells"] == [
        {"row": 3, "col": 6, "left": "i*f1", "right": "f1"}]

    delta = data_copy / "eq13_delta.txt"
    text = delta.read_text()
    delta.write_text("f9" + text[text.index(" "):])   # no symbol f9
    assert cli.main(["verify", "--fixtures", str(data_copy)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: eq13_delta.txt:1: ")

    assert cli.main(["verify"]) == 0
    assert _matches_golden(capsys.readouterr().out, "verify-sigma.md", _pin_md)


def _mutate(obj) -> int:
    """Change every list and dict nested in obj in place; how many."""
    if isinstance(obj, dict):
        n = sum(_mutate(v) for v in obj.values())
        obj["mutated"] = True
        return n + 1
    if isinstance(obj, list):
        n = sum(_mutate(v) for v in obj)
        obj.append("mutated")
        return n + 1
    return 0


def test_reports_share_no_mutable_object(fx):
    for reading in READINGS:
        assert _mutate(run_all(fx, reading))   # details, claims and all
    for reading in READINGS:
        got = to_json(run_all(fx, reading)) + "\n"
        assert _matches_golden(got, f"verify-{reading}.json", _pin_json)


def test_each_object_is_built_once_and_on_demand(fx, capsys, monkeypatch):
    built, current = Counter(), []

    def counted(name, fn):
        def wrapper(*args):
            # by the BetaSet argument where there is one, else by the run
            reading = getattr(args[0], "variant", None) if args else None
            built[name, reading or current[-1]] += 1
            return fn(*args)
        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(claims, name, counted(name, getattr(claims, name)))
    claims.context.cache_clear()
    for reading in READINGS:
        current.append(reading)
        run_all(fx, reading)
        run_all(fx, reading)
    assert built == {(name, r): 1 for name in BUILDERS for r in READINGS}

    claims.context.cache_clear()
    assert cli.main(["tables"]) == 0
    capsys.readouterr()
    ctx = claims.context(beta_set("sigma"))
    assert "table" in vars(ctx) and "x" not in vars(ctx)


FIXTURE_FREE = ("audit_E_alternates", "build_split_basis", "generator_exp",
                "oriented_triples")


def test_fixture_free_work_is_done_once_per_reading(fx, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in FIXTURE_FREE:
        monkeypatch.setattr(claims, name, counted(name, getattr(claims, name)))
    monkeypatch.setattr(claims, "from_blocks",
                        counted("from_blocks", claims.from_blocks))
    claims.context.cache_clear()
    runs = []
    for reading in READINGS:
        for _ in range(2):
            before = Counter(calls)
            run_all(fx, reading)
            runs.append(calls - before)
    first = {"audit_E_alternates": 1, "build_split_basis": 1,
             "oriented_triples": 1, "from_blocks": 1}   # Y1
    # exp-action reads the sigma context under either reading; its two
    # exponentials run when that context is first asked
    assert runs[0] == Counter(first, generator_exp=2)
    assert runs[2] == Counter(first)
    # later calls only compare against the fixtures
    assert runs[1] == runs[3] == Counter()


def test_eq13_cells_are_those_of_the_scaled_diff(data_copy):
    delta = data_copy / "eq13_delta.txt"
    rows = [line.split() for line in delta.read_text().splitlines()]
    assert (rows[0][0], rows[1][3], rows[2][3]) == ("-f7", "-i*f5", "0")
    # a half-integer, an imaginary and a constant cell
    rows[0][0], rows[1][3], rows[2][3] = "1/2*f7", "i*f3", "3/4"
    delta.write_text("".join(" ".join(r) + "\n" for r in rows))
    edited = load_fixtures(str(data_copy))
    for reading in READINGS:
        ctx = claims.context(beta_set(reading))
        for fixtures in (load_fixtures(), edited):
            got = next(c for c in run_all(fixtures, reading)["claims"]
                       if c["id"] == "eq13-increment")["details"]["cells"]
            assert got == diff_cells(ctx.comm, fixtures.eq13.scale(2))
        assert {(1, 1), (2, 4), (3, 4)} <= {(c["row"], c["col"]) for c in got}


def _edit_cells(path, edits):
    """Rewrite the (row, col) cells of a fixture grid, 0-indexed, after
    checking each old token."""
    rows = [line.split() for line in path.read_text().splitlines()]
    for (i, j), (old, new) in edits.items():
        assert rows[i][j] == old
        rows[i][j] = new
    path.write_text("".join(" ".join(r) + "\n" for r in rows))


def test_eq22_cells_are_those_of_the_dense_blocks(data_copy):
    # one cell in each quadrant of Y2: a sign flip, a changed
    # denominator, an added constant and a zero made nonzero; then one
    # cell each of C and D
    _edit_cells(data_copy / "eq21_Y2.txt", {
        (0, 1): ("-i*f7", "i*f7"), (0, 4): ("f1", "1/2*f1"),
        (5, 2): ("i*f8", "i*f8+1"), (6, 4): ("0", "i*f3")})
    _edit_cells(data_copy / "eq23_C.txt", {(1, 3): ("-f1", "f1")})
    _edit_cells(data_copy / "eq24_D.txt", {(2, 3): ("f8", "i*f8")})
    edited = load_fixtures(str(data_copy))
    for reading in READINGS:
        b = claims.context(beta_set(reading)).blocks.b
        for fx in (load_fixtures(), edited):
            audits = next(c for c in run_all(fx, reading)["claims"]
                          if c["id"] == "eq22-blocks")["details"]["audits"]
            c, d = fx.eq23_c, fx.eq24_d
            assert audits[1]["cells"] == diff_cells(
                fx.eq21_y2, from_blocks(c, -c, d, -d))
            assert audits[2]["cells"] == diff_cells(b, c)
        assert {(1, 2), (1, 5), (6, 3), (7, 5), (2, 4), (2, 8), (7, 4),
                (7, 8)} <= {(x["row"], x["col"]) for x in audits[1]["cells"]}


# beta_8 of readings the bundled set never reaches, beside sigma's
# beta_1..beta_7: -beta_1 (beta_1's (x, z), another q); tensor's beta_8;
# I(x)X(x)X, Hermitian but off compact block form; i I(x)X(x)X, not
# Hermitian, with an (x, z) of its own; and I(x)I(x)I and i I(x)I(x)I,
# whose nonzero traces leave X with one
_SIGMA, _TENSOR = beta_set("sigma").mats, beta_set("tensor").mats
OFF_SET_BETA8 = {"minus-beta1": -_SIGMA[0], "tensor-beta8": _TENSOR[7],
                 "IXX": Pauli(0b011, 0), "i-IXX": Pauli(0b011, 0, 1),
                 "III": Pauli(0, 0), "i-III": Pauli(0, 0, 1)}
OFF_SET_DETAILS = ("eq22-blocks", "eq8-eq9-blocks", "gram-orthogonality",
                   "x-traceless-hermitian")
OFF_SET_CLAIMS = GOLDEN / "off-set-claims.json"


def off_set_claims(fx, name) -> dict:
    """{id: {"status", "details"}} of every claim on the reading whose
    beta_8 is OFF_SET_BETA8[name]; eq14-map keeps its status only."""
    ctx = claims.context(BetaSet("sigma", _SIGMA[:7] + (OFF_SET_BETA8[name],)))
    out = {}
    for claim in claims.CLAIMS:
        status, details = claim.checker(fx, ctx)
        if claim.id in OFF_SET_DETAILS:
            out[claim.id] = {"status": status, "details": details}
        elif claim.id == "eq14-map":
            out[claim.id] = {"status": status}
    return out


@pytest.mark.parametrize("name", OFF_SET_BETA8)
def test_off_set_readings_keep_their_verdicts(fx, name):
    bs = BetaSet("sigma", _SIGMA[:7] + (OFF_SET_BETA8[name],))
    singular = gram_fault(bs) == "singular"
    try:
        invert_exact(gram(bs))
        assert not singular
    except SingularRotation:
        assert singular
    assert singular == (name in ("minus-beta1", "tensor-beta8"))
    status, details = claims._check_eq14_map(fx, claims.context(bs))
    if status == "degenerate":
        assert details == {"reason": {
            "minus-beta1": "generator Gram matrix is singular",
            "tensor-beta8": "generator Gram matrix is singular",
            "i-IXX": "generator Gram matrix is not 8I",
            "i-III": "generator Gram matrix is not 8I"}[name]}

    got = off_set_claims(fx, name)
    gram_claim = got["gram-orthogonality"]
    assert gram_claim["status"] == {"minus-beta1": "degenerate",
                                    "tensor-beta8": "degenerate",
                                    "IXX": "confirmed",
                                    "i-IXX": "refuted",
                                    "III": "confirmed",
                                    "i-III": "refuted"}[name]
    assert gram_claim["details"].get("gram_singular", False) is singular
    if name == "i-III":
        assert gram_claim["details"]["cells_off_8I"] == [
            {"row": 8, "col": 8, "left": "-8", "right": "8"}]
    assert got["eq14-map"]["status"] == (
        "refuted" if name in ("IXX", "III") else "degenerate")
    assert got["x-traceless-hermitian"]["details"] == {
        "hermitian": name not in ("i-IXX", "i-III"),
        "traceless": name not in ("III", "i-III")}
    compact = name in ("minus-beta1", "tensor-beta8")
    for claim_id in ("eq8-eq9-blocks", "eq22-blocks"):
        details = got[claim_id]["details"]
        assert details.get("compact_form", True) is compact
        if name in ("IXX", "i-IXX"):
            assert details["cells"] == [[5, 8], [6, 7], [7, 6], [8, 5]]
        elif not compact:
            assert details["cells"] == [[5, 5], [6, 6], [7, 7], [8, 8]]

    want = json.loads(OFF_SET_CLAIMS.read_text("utf-8"))[name]
    assert dump_json(got) == dump_json(want)


# sigma with beta_1, then beta_8, replaced by each of the 256 codes
CODES = tuple(Pauli(x, z, q) for x in range(8) for z in range(8)
              for q in range(4))
SWEEP = tuple(BetaSet("sigma", _SIGMA[:a] + (code,) + _SIGMA[a + 1:])
              for a in (0, 7) for code in CODES)


def test_code_flags_agree_with_the_dense_oracle(fx):
    eight = SquareMatrix.identity(8).scale(CRational(8))
    faults = Counter()
    for bs in SWEEP:
        x, ctx = assemble_X(bs), claims._Context(bs)
        _, details = claims._check_x_traceless_hermitian(fx, ctx)
        assert details == {"hermitian": is_hermitian(x),
                           "traceless": is_traceless(x)}, bs
        g = gram(bs)
        try:
            invert_exact(g)
            fault = None if g == eight else "not 8I"
        except SingularRotation:
            fault = "singular"
        faults[fault] += 1
        status, details = claims._check_eq14_map(fx, ctx)
        assert (status == "degenerate") == (fault is not None), bs
        try:
            rotation_component_map(1, 2, bs)
            assert fault is None, bs
        except DegenerateBasis as exc:
            assert str(exc) == details["reason"] == \
                f"generator Gram matrix is {fault}", bs
        status, details = claims._check_gram_orthogonality(fx, ctx)
        assert details.get("gram_singular", False) is \
            (fault == "singular"), bs
        assert status == {None: "confirmed", "singular": "degenerate",
                          "not 8I": "refuted"}[fault], bs
    assert faults == {None: 228, "singular": 56, "not 8I": 228}
