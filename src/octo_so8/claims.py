"""Claim ledger: every checkable statement in the source material gets
one Claim with a stable id, a coordinate anchor, and a checker.

run_all() executes the registry against a FixtureStore and returns the
deterministic report as the JSON document that to_json prints.
Refutations are report content, never exceptions; only operational
failures (missing files, parse errors) raise.  Checkers return
(status, details) with status one of "confirmed", "refuted",
"degenerate".

Everything the checkers derive without reading a fixture lives on
``context(bs)``, built on first use, once per generator reading in a
process: X and its blocks, Y1 = [[A, A], [B, B]], [beta1 beta2, X] and
its half, E with its table and alternates, the Gram matrix, the eq 14
map of plane (1,2) (the rotations.symbolic_map record that rotate
reads too) or why it is degenerate, the plane classes, the eq 18 and
eq 19 records, the beta_8 cells of the two readings, the
oriented triples and the exp-action numbers (read off the sigma
context).  The checkers read X's Hermitian and traceless flags, the
readings' beta_1..beta_7 equalities, Tr(beta_1 beta_8) and the Gram
verdict (matrices.gram_fault) off the codes.  Each call loads the
fixtures, redoes every comparison against them, builds every details
list and dict afresh and renders.  Every checker is exact except
exp-action, which runs the numeric exponential over lists of complex.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from _json import encode_basestring_ascii as _json_str
from typing import Callable, NamedTuple

from .exact import CRational
from .fixtures import FixtureStore
from .matrices import (SIGMA_TERMS, BetaSet, Pauli, SquareMatrix,
                       anticommutator_audit, audit_E_alternates, beta_set,
                       build_E, compare_tables, diff_cells, from_blocks,
                       gram, gram_fault, monomial_sum, signed_table)
from .octonion import (SPLIT_PAIRS, TABLE, Octonion, build_split_basis,
                       oriented_triples, verify_split_relations)
from .rotations import (DEFAULT_TOL, SYMBOLS, ZERO_FORM, DegenerateBasis,
                        assemble_X, block_decompose, commutator_terms,
                        duplicate_rotation_scan, generator_exp,
                        hermiticity_defect, numeric_X, plane_product,
                        spinor_transform, standard_spinor, symbolic_map,
                        unitarity_defect)
from .splitrep import audit_Y_blocks

TOOLKIT_VERSION = "0.1.0"

CONFIRMED = "confirmed"
REFUTED = "refuted"
DEGENERATE = "degenerate"
_EIGHT_I = SquareMatrix.identity(8).scale(CRational(8))


def _status(ok: bool) -> str:
    return CONFIRMED if ok else REFUTED


class _Context:
    """The derived objects of one generator reading, each built on first
    use.  None depends on the fixtures, so ``context`` keeps one context
    per BetaSet; the checkers build every details list and dict afresh."""

    def __init__(self, bs: BetaSet):
        self.bs, self.variant = bs, bs.variant

    x = cached_property(lambda self: assemble_X(self.bs))
    ems = cached_property(lambda self: build_E(self.bs))
    table = cached_property(lambda self: signed_table(self.ems))
    gram_matrix = cached_property(lambda self: gram(self.bs))
    pairs = cached_property(lambda self: tuple(anticommutator_audit(self.bs)))
    planes = cached_property(
        lambda self: tuple(duplicate_rotation_scan(self.bs)))
    split_relations = cached_property(
        lambda self: tuple(verify_split_relations()))
    blocks = cached_property(lambda self: block_decompose(self.x))

    @cached_property
    def comm(self):
        """[beta1 beta2, X]."""
        n = plane_product(1, 2, self.bs)
        return monomial_sum(commutator_terms(n, SYMBOLS, self.bs),
                            ZERO_FORM)

    @cached_property
    def eq14(self):
        """Plane (1,2)'s symbolic_map record, the one rotate reads, or
        the DegenerateBasis message when the Gram matrix is not 8*I."""
        try:
            return symbolic_map(self.bs, plane_product(1, 2, self.bs))
        except DegenerateBasis as exc:
            return str(exc)

    half_comm = cached_property(
        lambda self: self.comm.scale(CRational(1, 0, 2)))
    alternates = cached_property(
        lambda self: tuple(audit_E_alternates(self.bs, self.ems)))
    beta8_cells = cached_property(lambda self: tuple(
        diff_cells(beta_set("sigma").beta(8), beta_set("tensor").beta(8))))
    triples = cached_property(lambda self: tuple(oriented_triples()))

    @cached_property
    def y1(self):
        """[[A, A], [B, B]] from X's blocks: the derived first Y matrix."""
        a, b, _ = self.blocks
        return from_blocks(a, a, b, b)

    @cached_property
    def split_spinor(self):
        """(len(phi), ((a, b), sum, difference, starred) for each pair)."""
        phi = build_split_basis()
        return len(phi), tuple(
            ((a, b), (u + us) == Octonion.unit(a),
             (u - us) == Octonion.unit(b) * CRational(0, 1),
             us == Octonion([c.conj() for c in u.coeffs]))
            for u, us, (a, b) in zip(phi, phi[4:], SPLIT_PAIRS))

    @cached_property
    def exp_action(self):
        """(zero exponent exact, zero action fixes the spinor, diagonal
        oracle error, hermiticity defect, unitarity defect) of e^X, by
        generator_exp, the exponential that spinor prints."""
        zero = [[0j] * 8 for _ in range(8)]
        identity = [[complex(i == j) for j in range(8)] for i in range(8)]
        identity_exact = generator_exp(zero, self.bs) == identity
        # the standard spinor's coefficient array is the identity
        spinor_fixed = spinor_transform(standard_spinor(), zero,
                                        betas=self.bs) == identity
        # scalar oracle: an f8-only vector makes X diagonal, so exp is
        # elementwise on the diagonal signs
        ln2 = math.log(2.0)
        e = generator_exp(numeric_X([0.0] * 7 + [ln2], self.bs), self.bs)
        signs = [1, 1, -1, -1, -1, -1, 1, 1]
        oracle = [[math.exp(s * ln2) if i == j else 0.0 for j in range(8)]
                  for i, s in enumerate(signs)]
        oracle_err = max(abs(v - w) for row, o_row in zip(e, oracle)
                         for v, w in zip(row, o_row))
        return (identity_exact, spinor_fixed, oracle_err,
                hermiticity_defect(e), unitarity_defect(e))


context = lru_cache(maxsize=8)(_Context)


# ---------------------------------------------------------------------------
# records shared with the CLI

def map_line(a: int, derived, stated) -> dict:
    """Component a + 1 of a first-order map, against the stated line;
    "stated" and "match" are None when there is none to compare."""
    return {"component": a + 1, "derived": str(derived),
            "stated": None if stated is None else str(stated),
            "match": None if stated is None else derived == stated}


def form_cells(cells) -> list:
    """{"row", "col", "entry"} for each (row, col, form) nonzero cell;
    a LinearForm keeps its str once rendered."""
    return [{"row": i, "col": j, "entry": str(e)} for i, j, e in cells]


# ---------------------------------------------------------------------------
# checkers (alphabetical by claim id)

def _check_beta_consistency(fx, ctx):
    equal = [s == t for s, t in zip(beta_set("sigma").mats[:7],
                                    beta_set("tensor").mats)]
    records = [{"generator": a, "equal": eq}
               for a, eq in enumerate(equal, start=1)]
    return _status(all(equal)), {"generators": records}


def _check_beta8_consistency(fx, ctx):
    cells = [dict(c) for c in ctx.beta8_cells]
    return _status(not cells), {"differing_cells": len(cells), "cells": cells}


def _check_dup_rotations(fx, ctx):
    cls = next(c for c in ctx.planes if (1, 2) in c)
    ok = (5, 6) in cls and (7, 8) in cls
    return _status(ok), {
        "class_of_plane_1_2": [list(p) for p in cls],
        "partition": [[list(p) for p in c] for c in ctx.planes],
    }


def _check_eq12_fixture(fx, ctx):
    n = plane_product(1, 2, ctx.bs)
    const_cells = diff_cells(fx.eq12_const, Pauli(0, 0))
    theta_cells = diff_cells(fx.eq12_theta, n)
    ok = not const_cells and not theta_cells
    return _status(ok), {"constant_part_cells": const_cells,
                         "theta_part_cells": theta_cells}


def _check_eq13_increment(fx, ctx):
    # half the commutator against the stated matrix; only a differing
    # cell is rendered, as the commutator and twice the stated entry
    comm, half, stated = ctx.comm.rows, ctx.half_comm.rows, fx.eq13.rows
    cells = [{"row": i + 1, "col": j + 1, "left": str(comm[i][j]),
              "right": str(2 * stated[i][j])}
             for i in range(8) for j in range(8)
             if not half[i][j] == stated[i][j]]
    return _status(not cells), {
        "checked": "[beta1 beta2, X] == 2 * stated increment matrix",
        "cells": cells,
    }


def _check_eq14_map(fx, ctx):
    if isinstance(cm := ctx.eq14, str):
        return DEGENERATE, {"reason": cm}
    derived, _, residual = cm
    lines = [{**map_line(a, d, stated),
              "stated_has_imaginary_coeff": stated.has_imaginary_coeff()}
             for a, (d, stated) in enumerate(zip(derived, fx.eq14))]
    cells = form_cells(residual)
    ok = all(ln["match"] for ln in lines) and not cells
    return _status(ok), {"lines": lines, "projection_residual_cells": cells}


def _check_eq15_alternates(fx, ctx):
    records = [dict(r) for r in ctx.alternates]
    return _status(all(r["equal"] for r in records)), {"alternates": records}


def _check_eq18_relations(fx, ctx):
    checks = ctx.split_relations
    failed = [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs}
              for c in checks if not c.ok]
    return _status(not failed), {
        "identities_checked": len(checks),
        "verdicts": [{"name": c.name, "ok": c.ok} for c in checks],
        "failed": failed,
    }


def _check_eq19_split_spinor(fx, ctx):
    n, pairs = ctx.split_spinor
    records = [{"pair": list(p), "sum_recovers_unit": s,
                "difference_recovers_i_unit": d, "starred_is_conjugate": c}
               for p, s, d, c in pairs]
    ok = n == 8 and all(s and d and c for _, s, d, c in pairs)
    return _status(ok), {"components": n, "pairs": records}


def _check_eq2_fixture(fx, ctx):
    bad = [a for a in range(1, 9) if fx.eq2[a] != SIGMA_TERMS[a]]
    return _status(not bad), {"lines_checked": 8, "mismatched_lines": bad}


def _check_eq22_blocks(fx, ctx):
    dec = ctx.blocks
    if dec.bad:
        return REFUTED, {"compact_form": False,
                         "cells": [list(c) for c in dec.bad]}
    audits, b_minus_c = audit_Y_blocks(fx, dec.b, ctx.y1)
    ok = all(a["ok"] for a in audits)
    return _status(ok), {"audits": audits,
                         "b_minus_c_cells": form_cells(
                             b_minus_c.nonzero_cells())}


def _check_eq6_fixture(fx, ctx):
    cells = diff_cells(ctx.x, fx.eq6)
    return _status(not cells), {"cells": cells}


def _check_eq8_eq9_blocks(fx, ctx):
    dec = ctx.blocks
    if dec.bad:
        return REFUTED, {"compact_form": False,
                         "cells": [list(c) for c in dec.bad]}
    a_cells = diff_cells(dec.a, fx.eq6.block(0, 0, 4))
    b_cells = diff_cells(dec.b, fx.eq6.block(1, 0, 4))
    ok = not a_cells and not b_cells
    return _status(ok), {"compact_form": True,
                         "a_block_cells": a_cells,
                         "b_block_cells": b_cells}


def _check_exp_action(fx, ctx):
    # Always run on the canonical sigma reading: a duplicated beta8
    # would test the generator text again, not the exponential.
    identity_exact, spinor_fixed, oracle_err, herm, uni = context(
        beta_set("sigma")).exp_action
    bound = 10 * DEFAULT_TOL
    ok = (identity_exact and spinor_fixed
          and oracle_err <= bound and herm <= bound)
    return _status(ok), {
        "zero_exponent_is_exact_identity": identity_exact,
        "zero_action_fixes_spinor": spinor_fixed,
        "diagonal_oracle_max_error": oracle_err,
        "hermiticity_defect": herm,
        "unitarity_defect": uni,
        "norm_preserving": uni <= bound,
        "tolerance_bound": bound,
        "generator_reading": "sigma",
    }


def _check_gram_orthogonality(fx, ctx):
    cells = diff_cells(ctx.gram_matrix, _EIGHT_I)
    details = {
        "variant": ctx.variant,
        "cells_off_8I": cells,
        "anticommuting_pairs": [list(p) for p in ctx.pairs],
    }
    if ctx.variant != "tensor":
        t = beta_set("tensor")
        entry = (t.beta(1) @ t.beta(8)).trace()
        details["tensor_reading_entry_1_8"] = str(entry)
        details["tensor_reading_singular"] = gram_fault(t) == "singular"
    if (fault := gram_fault(ctx.bs)) == "singular":
        details["gram_singular"] = True
        return DEGENERATE, details
    return _status(fault is None), details


def _check_table_48_16(fx, ctx):
    diff = compare_tables(fx.table2, ctx.table)
    counts = diff["counts"]
    ok = (counts["identical"] == 48 and counts["sign_flipped"] == 16
          and counts["structurally_different"] == 0)
    return _status(ok), {"stated": {"identical": 48, "sign_flipped": 16},
                         **diff}


def _check_table1_self_consistency(fx, ctx):
    diff = compare_tables(ctx.table, fx.table1)
    return _status(diff["counts"]["identical"] == 64), diff


def _check_table2_fixture(fx, ctx):
    diff = compare_tables(TABLE, fx.table2)
    return _status(diff["counts"]["identical"] == 64), {
        **diff, "oriented_triples": [list(t) for t in ctx.triples]}


def _check_x_traceless_hermitian(fx, ctx):
    # X = sum f_A beta_A over independent symbols f_A: Hermitian when
    # every beta_A is, traceless when none has a nonzero trace
    herm = all(b.hermitian() for b in ctx.bs.mats)
    traceless = not any(b.trace() for b in ctx.bs.mats)
    return _status(herm and traceless), {"hermitian": herm,
                                         "traceless": traceless}


# ---------------------------------------------------------------------------
# registry

class Claim(NamedTuple):
    id: str
    anchor: str    # coordinate of the statement being checked
    checker: Callable


CLAIMS = (
    Claim("beta-consistency", "eq (2), lines 1-7", _check_beta_consistency),
    Claim("beta8-consistency", "eq (2), line 8", _check_beta8_consistency),
    Claim("dup-rotations", "sec. 3, after eq (14)", _check_dup_rotations),
    Claim("eq12-fixture", "eq (12)", _check_eq12_fixture),
    Claim("eq13-increment", "eq (13)", _check_eq13_increment),
    Claim("eq14-map", "eq (14)", _check_eq14_map),
    Claim("eq15-alternates", "eq (15)", _check_eq15_alternates),
    Claim("eq18-relations", "eq (18)", _check_eq18_relations),
    Claim("eq19-split-spinor", "eq (19)", _check_eq19_split_spinor),
    Claim("eq2-fixture", "eq (2)", _check_eq2_fixture),
    Claim("eq22-blocks", "eqs (21)-(24)", _check_eq22_blocks),
    Claim("eq6-fixture", "eq (6)", _check_eq6_fixture),
    Claim("eq8-eq9-blocks", "eqs (7)-(9)", _check_eq8_eq9_blocks),
    Claim("exp-action", "eq (3)", _check_exp_action),
    Claim("gram-orthogonality", "sec. 2 generator set",
          _check_gram_orthogonality),
    Claim("table-48-16", "sec. 4, Tables 1-2", _check_table_48_16),
    Claim("table1-self-consistency", "Table 1",
          _check_table1_self_consistency),
    Claim("table2-fixture", "Table 2", _check_table2_fixture),
    Claim("x-traceless-hermitian", "eq (6) remark",
          _check_x_traceless_hermitian),
)


def run_all(fixtures: FixtureStore, variant: str = "sigma") -> dict:
    """The report of every claim under one generator reading, as the
    JSON document to_json prints: version, fixtures ({"name", "digest"}
    sorted by name), claims ({"id", "anchor", "status", "details"}
    sorted by id) and summary (the number of claims with each status)."""
    ctx = context(beta_set(variant))
    claims = []
    summary = {CONFIRMED: 0, REFUTED: 0, DEGENERATE: 0}
    for claim in sorted(CLAIMS, key=lambda c: c.id):
        status, details = claim.checker(fixtures, ctx)
        summary[status] += 1
        claims.append({"id": claim.id, "anchor": claim.anchor,
                       "status": status, "details": details})
    return {"version": TOOLKIT_VERSION,
            "fixtures": [{"name": n, "digest": fixtures.digests[n]}
                         for n in sorted(fixtures.digests)],
            "claims": claims, "summary": summary}


# ---------------------------------------------------------------------------
# serialization (canonical: the bytes of json.dumps(..., indent=2),
# written by dump_json; key order fixed by construction, so two runs
# over the same inputs are byte-identical)

# json.dumps' kind of each type; a subclass takes its base's (isinstance)
_JSON_KINDS = {str: str, float: float, int: int, dict: dict, list: list,
               tuple: list, bool: bool, type(None): bool}


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for str, int, float,
    bool and None values in lists, tuples and str-keyed dicts, and
    their subclasses.  A non-finite float raises ValueError where
    json.dumps prints NaN or Infinity, which is not JSON."""
    out = []
    put = out.append

    def enc(o, pad):
        kind = _JSON_KINDS.get(type(o)) or next(
            (k for t, k in _JSON_KINDS.items() if isinstance(o, t)), None)
        if kind is str:
            put(_json_str(o))
        elif kind is float:
            if not math.isfinite(o):
                raise ValueError(f"non-finite float {o!r} is not JSON")
            put(float.__repr__(o))
        elif kind is dict:
            sep, inner = "{" + pad + "  ", pad + "  "
            for k, v in o.items():
                put(sep + _json_str(k) + ": ")
                enc(v, inner)
                sep = "," + inner
            put(pad + "}" if o else "{}")
        elif kind is list:
            sep, inner = "[" + pad + "  ", pad + "  "
            for v in o:
                put(sep)
                enc(v, inner)
                sep = "," + inner
            put(pad + "]" if o else "[]")
        elif kind is int:
            put(int.__repr__(o))
        elif kind is bool:
            put("null" if o is None else "true" if o else "false")
        else:
            raise TypeError(f"{type(o).__name__} is not JSON serializable")
    enc(obj, "\n")
    return "".join(out)


def to_json(report: dict) -> str:
    return dump_json(report)


def render_markdown(report: dict) -> str:
    lines = [
        "# Verification report",
        "",
        f"version: {report['version']}",
        "",
        "## Fixtures",
        "",
        "| file | sha256 |",
        "| --- | --- |",
    ]
    for f in report["fixtures"]:
        lines.append(f"| {f['name']} | {f['digest']} |")
    s = report["summary"]
    lines += [
        "",
        "## Summary",
        "",
        (f"confirmed: {s[CONFIRMED]}, refuted: {s[REFUTED]}, "
         f"degenerate: {s[DEGENERATE]}"),
        "",
        "## Claims",
        "",
        "| id | anchor | status |",
        "| --- | --- | --- |",
    ]
    for r in report["claims"]:
        lines.append(f"| {r['id']} | {r['anchor']} | {r['status']} |")
    for r in report["claims"]:
        lines += ["", f"### {r['id']}", "", f"- anchor: {r['anchor']}",
                  f"- status: {r['status']}", "", "```json",
                  dump_json(r["details"]), "```"]
    return "\n".join(lines) + "\n"
