"""The per-reading claim context: ``verify`` derives the generator
objects of a reading once per process, and still reads the fixtures and
compares against them on every call."""

import json
from collections import Counter

from test_golden import GOLDEN, _pin_json, _pin_md

from octo_so8 import claims, cli
from octo_so8.claims import run_all, to_json
from octo_so8.matrices import beta_set

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
