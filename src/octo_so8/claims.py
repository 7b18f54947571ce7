"""Claim ledger: every checkable statement in the source material gets
one Claim with a stable id, a coordinate anchor, and a checker.

run_all() executes the registry against a FixtureStore and assembles a
deterministic ClaimReport.  Refutations are report content, never
exceptions; only operational failures (missing files, parse errors)
raise.  Checkers return (status, details) with status one of
"confirmed", "refuted", "degenerate".

Everything the checkers derive without reading a fixture lives on
``context(bs)``, built on first use, once per generator reading in a
process: X and its blocks, Y1 = [[A, A], [B, B]], [beta1 beta2, X] and
its half, E with its table and alternates, the Gram matrix, the plane
classes, the eq 18 and eq 19 records, the beta equalities, the oriented
triples and the exp-action numbers (read off the sigma context).  Each
call loads the fixtures, redoes every comparison against them, builds
every details list and dict afresh and renders.  Every checker is exact
except exp-action, which runs the numeric exponential over lists of
complex.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, NamedTuple

from .exact import CRational
from .fixtures import FixtureStore
from .matrices import (SIGMA_TERMS, BetaSet, SquareMatrix,
                       anticommutator_audit, audit_E_alternates, beta_set,
                       beta_sigma_expansion, beta_tensor_text, build_E,
                       compare_tables, diff_cells, from_blocks, gram,
                       monomial_sum, signed_table)
from .octonion import (TABLE, Octonion, build_split_basis,
                       oriented_triples, verify_split_relations)
from .rotations import (DEFAULT_TOL, SYMBOLS, ZERO_FORM, DegenerateBasis,
                        SingularRotation, StructureMismatch, assemble_X,
                        block_decompose, commutator_terms,
                        duplicate_rotation_scan, hermiticity_defect,
                        invert_exact, matrix_exp, numeric_X, plane_product,
                        rotation_component_map, spinor_transform,
                        standard_spinor, unitarity_defect)
from .splitrep import audit_Y_blocks
from .symbolic import render_linear_form

TOOLKIT_VERSION = "0.1.0"

CONFIRMED = "confirmed"
REFUTED = "refuted"
DEGENERATE = "degenerate"


def _status(ok: bool) -> str:
    return CONFIRMED if ok else REFUTED


class _Context:
    """The derived objects of one generator reading, each built on first
    use.  None depends on the fixtures, so ``context`` keeps one context
    per BetaSet; the checkers build every details list and dict afresh."""

    def __init__(self, bs: BetaSet):
        self.bs, self.variant = bs, bs.variant

    x = cached_property(lambda self: assemble_X(self.bs))
    x_flags = cached_property(lambda self: (self.x.is_hermitian(),
                                            self.x.is_traceless()))
    ems = cached_property(lambda self: build_E(self.bs))
    table = cached_property(lambda self: signed_table(self.ems))
    gram_matrix = cached_property(lambda self: gram(self.bs))
    pairs = cached_property(lambda self: tuple(anticommutator_audit(self.bs)))
    planes = cached_property(
        lambda self: tuple(duplicate_rotation_scan(self.bs)))
    split_relations = cached_property(
        lambda self: tuple(verify_split_relations()))

    @cached_property
    def blocks(self):
        """(X's BlockDecomp, ()), or (None, the cells off compact form)."""
        try:
            return block_decompose(self.x), ()
        except StructureMismatch as exc:
            return None, tuple(exc.cells)

    @cached_property
    def comm(self):
        """[beta1 beta2, X]."""
        n = plane_product(1, 2, self.bs)
        return monomial_sum(commutator_terms(n, SYMBOLS, self.bs),
                            ZERO_FORM)

    @cached_property
    def gram_singular(self):
        try:
            invert_exact(self.gram_matrix)
        except SingularRotation:
            return True
        return False

    @cached_property
    def eq14(self):
        """The component map of plane (1,2); None if the Gram is singular."""
        try:
            return rotation_component_map(1, 2, self.bs)
        except DegenerateBasis:
            return None

    half_comm = cached_property(
        lambda self: self.comm.scale(CRational(1, 0, 2)))
    alternates = cached_property(
        lambda self: tuple(audit_E_alternates(self.bs, self.ems)))
    beta_equal = cached_property(lambda self: tuple(
        beta_sigma_expansion(a) == beta_tensor_text(a) for a in range(1, 8)))
    beta8_cells = cached_property(lambda self: tuple(
        diff_cells(beta_sigma_expansion(8), beta_tensor_text(8))))
    triples = cached_property(lambda self: tuple(oriented_triples()))

    @cached_property
    def y1(self):
        """[[A, A], [B, B]] from X's blocks: the derived first Y matrix."""
        a, b = self.blocks[0]
        return from_blocks(a, a, b, b)

    @cached_property
    def split_spinor(self):
        """(len(phi), ((a, b), sum, difference, starred) for each pair)."""
        phi = build_split_basis()
        return len(phi), tuple(
            ((a, b), (u + us) == Octonion.unit(a),
             (u - us) == Octonion.unit(b) * CRational(0, 1),
             us == Octonion([c.conj() for c in u.coeffs]))
            for u, us, (a, b) in zip(phi, phi[4:],
                                     [(0, 7), (1, 4), (2, 5), (3, 6)]))

    @cached_property
    def exp_action(self):
        """(zero exponent exact, zero action fixes the spinor, diagonal
        oracle error, hermiticity defect, unitarity defect) of e^X."""
        zero = [[0j] * 8 for _ in range(8)]
        identity = [[complex(i == j) for j in range(8)] for i in range(8)]
        identity_exact = matrix_exp(zero) == identity
        # the standard spinor's coefficient array is the identity
        spinor_fixed = spinor_transform(standard_spinor(), zero) == identity
        # scalar oracle: an f8-only vector makes X diagonal, so exp is
        # elementwise on the diagonal signs
        ln2 = math.log(2.0)
        e = matrix_exp(numeric_X([0.0] * 7 + [ln2], self.bs))
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
    return {"component": a + 1, "derived": render_linear_form(derived),
            "stated": None if stated is None else render_linear_form(stated),
            "match": None if stated is None else derived == stated}


def form_cells(m: SquareMatrix) -> list:
    """{"row", "col", "entry"} for each nonzero cell of a form matrix."""
    return [{"row": i, "col": j, "entry": render_linear_form(e)}
            for i, j, e in m.nonzero_cells()]


# ---------------------------------------------------------------------------
# checkers (alphabetical by claim id)

def _check_beta_consistency(fx, ctx):
    records = [{"generator": a, "equal": eq}
               for a, eq in enumerate(ctx.beta_equal, start=1)]
    return _status(all(ctx.beta_equal)), {"generators": records}


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
    const_cells = diff_cells(fx.eq12_const, SquareMatrix.identity(8))
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
    if (cm := ctx.eq14) is None:
        return DEGENERATE, {"reason": "generator Gram matrix is singular"}
    lines = [{**map_line(a, derived, stated),
              "stated_has_imaginary_coeff": stated.has_imaginary_coeff()}
             for a, (derived, stated) in enumerate(zip(cm.lines, fx.eq14))]
    residual = form_cells(cm.residual)
    ok = all(ln["match"] for ln in lines) and not residual
    return _status(ok), {"lines": lines,
                         "projection_residual_cells": residual}


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
    dec, bad = ctx.blocks
    if bad:
        return REFUTED, {"compact_form": False,
                         "cells": [list(c) for c in bad]}
    audits, b_minus_c = audit_Y_blocks(fx, dec.b, ctx.y1)
    ok = all(a["ok"] for a in audits)
    return _status(ok), {"audits": audits,
                         "b_minus_c_cells": form_cells(b_minus_c)}


def _check_eq6_fixture(fx, ctx):
    cells = diff_cells(ctx.x, fx.eq6)
    return _status(not cells), {"cells": cells}


def _check_eq8_eq9_blocks(fx, ctx):
    dec, bad = ctx.blocks
    if bad:
        return REFUTED, {"compact_form": False,
                         "cells": [list(c) for c in bad]}
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
    target = SquareMatrix.identity(8).scale(CRational(8))
    cells = diff_cells(ctx.gram_matrix, target)
    details = {
        "variant": ctx.variant,
        "cells_off_8I": cells,
        "anticommuting_pairs": [list(p) for p in ctx.pairs],
    }
    if ctx.variant != "tensor":
        tensor = context(beta_set("tensor"))
        details["tensor_reading_entry_1_8"] = str(tensor.gram_matrix.at(0, 7))
        details["tensor_reading_singular"] = tensor.gram_singular
    if not cells:
        return CONFIRMED, details
    if ctx.gram_singular:
        details["gram_singular"] = True
        return DEGENERATE, details
    return REFUTED, details


def _check_table_48_16(fx, ctx):
    diff = compare_tables(fx.table2, ctx.table)
    counts = diff.counts
    ok = (counts["identical"] == 48 and counts["sign_flipped"] == 16
          and counts["structurally_different"] == 0)
    return _status(ok), {"stated": {"identical": 48, "sign_flipped": 16},
                         "counts": counts, "cells": list(diff.cells)}


def _check_table1_self_consistency(fx, ctx):
    diff = compare_tables(ctx.table, fx.table1)
    ok = diff.counts["identical"] == 64
    return _status(ok), {"counts": diff.counts, "cells": list(diff.cells)}


def _check_table2_fixture(fx, ctx):
    diff = compare_tables(TABLE, fx.table2)
    ok = diff.counts["identical"] == 64
    return _status(ok), {
        "counts": diff.counts,
        "cells": list(diff.cells),
        "oriented_triples": [list(t) for t in ctx.triples],
    }


def _check_x_traceless_hermitian(fx, ctx):
    herm, traceless = ctx.x_flags
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


class ClaimResult(NamedTuple):
    id: str
    anchor: str
    status: str
    details: dict


class ClaimReport(NamedTuple):
    version: str
    fixtures: tuple   # ({"name", "digest"}, ...) sorted by name
    claims: tuple     # ClaimResult, sorted by id
    summary: dict     # {"confirmed", "refuted", "degenerate"}


def run_all(fixtures: FixtureStore, variant: str = "sigma") -> ClaimReport:
    ctx = context(beta_set(variant))
    results = []
    for claim in sorted(CLAIMS, key=lambda c: c.id):
        status, details = claim.checker(fixtures, ctx)
        results.append(ClaimResult(claim.id, claim.anchor, status, details))
    summary = {CONFIRMED: 0, REFUTED: 0, DEGENERATE: 0}
    for r in results:
        summary[r.status] += 1
    fx_rows = tuple({"name": n, "digest": fixtures.digests[n]}
                    for n in sorted(fixtures.digests))
    return ClaimReport(TOOLKIT_VERSION, fx_rows, tuple(results), summary)


# ---------------------------------------------------------------------------
# serialization (canonical: the bytes of json.dumps(..., indent=2),
# written by dump_json; key order fixed by construction, so two runs
# over the same inputs are byte-identical)

def dump_json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for str, int, float,
    bool and None values in lists, tuples and str-keyed dicts.  A
    non-finite float raises ValueError where json.dumps prints NaN or
    Infinity, which is not JSON."""
    out = []
    put = out.append

    def enc(o, pad):
        if isinstance(o, str):
            put(_json_str(o))
        elif isinstance(o, dict):
            sep, inner = "{" + pad + "  ", pad + "  "
            for k, v in o.items():
                put(sep + _json_str(k) + ": ")
                enc(v, inner)
                sep = "," + inner
            put(pad + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            sep, inner = "[" + pad + "  ", pad + "  "
            for v in o:
                put(sep)
                enc(v, inner)
                sep = "," + inner
            put(pad + "]" if o else "[]")
        elif o is None or o is True or o is False:
            put("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            if not math.isfinite(o):
                raise ValueError(f"non-finite float {o!r} is not JSON")
            put(float.__repr__(o))
        else:
            raise TypeError(f"{type(o).__name__} is not JSON serializable")
    enc(obj, "\n")
    return "".join(out)


def report_dict(report: ClaimReport) -> dict:
    return {
        "version": report.version,
        "fixtures": [dict(f) for f in report.fixtures],
        "claims": [{"id": r.id, "anchor": r.anchor, "status": r.status,
                    "details": r.details} for r in report.claims],
        "summary": dict(report.summary),
    }


def to_json(report: ClaimReport) -> str:
    return dump_json(report_dict(report))


def render_markdown(report: ClaimReport) -> str:
    lines = [
        "# Verification report",
        "",
        f"version: {report.version}",
        "",
        "## Fixtures",
        "",
        "| file | sha256 |",
        "| --- | --- |",
    ]
    for f in report.fixtures:
        lines.append(f"| {f['name']} | {f['digest']} |")
    s = report.summary
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
    for r in report.claims:
        lines.append(f"| {r.id} | {r.anchor} | {r.status} |")
    for r in report.claims:
        lines += ["", f"### {r.id}", "", f"- anchor: {r.anchor}",
                  f"- status: {r.status}", "", "```json",
                  dump_json(r.details), "```"]
    return "\n".join(lines) + "\n"
