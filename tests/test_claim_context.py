"""The per-reading claim context: ``verify`` derives the generator
objects of a reading once per process, and still reads the fixtures and
compares against them on every call."""

import json
from collections import Counter

from test_golden import GOLDEN, _pin_json, _pin_md

from octo_so8 import claims, cli, load_fixtures, splitrep
from octo_so8.claims import run_all, to_json
from octo_so8.matrices import beta_set, diff_cells

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
        assert sum(_mutate(r.details) for r in run_all(fx, reading).claims)
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


FIXTURE_FREE = ("audit_E_alternates", "beta_sigma_expansion",
                "build_split_basis", "matrix_exp", "oriented_triples")


def test_fixture_free_work_is_done_once_per_reading(fx, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in FIXTURE_FREE:
        monkeypatch.setattr(claims, name, counted(name, getattr(claims, name)))
    for module in (claims, splitrep):
        monkeypatch.setattr(module, "from_blocks",
                            counted("from_blocks", module.from_blocks))
    claims.context.cache_clear()
    runs = []
    for reading in READINGS:
        for _ in range(2):
            before = Counter(calls)
            run_all(fx, reading)
            runs.append(calls - before)
    first = {"audit_E_alternates": 1, "build_split_basis": 1,
             "oriented_triples": 1, "from_blocks": 2,
             # beta_a for a = 1..8, each once
             "beta_sigma_expansion": 8}
    # exp-action reads the sigma context under either reading; its two
    # exponentials run when that context is first asked
    assert runs[0] == Counter(first, matrix_exp=2)
    assert runs[2] == Counter(first)
    # later calls redo only what reads a fixture: [[C, -C], [D, -D]]
    assert runs[1] == runs[3] == Counter(from_blocks=1)


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
            got = next(c for c in run_all(fixtures, reading).claims
                       if c.id == "eq13-increment").details["cells"]
            assert got == diff_cells(ctx.comm, fixtures.eq13.scale(2))
        assert {(1, 1), (2, 4), (3, 4)} <= {(c["row"], c["col"]) for c in got}
