"""Claim ledger: every checkable statement in the source material gets
one Claim with a stable id, a coordinate anchor, and a checker.

run_all() executes the registry against a FixtureStore and assembles a
deterministic ClaimReport.  Refutations are report content, never
exceptions; only operational failures (missing files, parse errors)
raise.  Checkers return (status, details) with status one of
"confirmed", "refuted", "degenerate".

Every checker is exact except exp-action, which runs the numeric
exponential over lists of complex.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, NamedTuple

from .exact import CRational
from .fixtures import FixtureStore
from .matrices import (SIGMA_TERMS, SquareMatrix, anticommutator_audit,
                       audit_E_alternates, beta_set, beta_sigma_expansion,
                       beta_tensor_text, build_E, compare_tables, diff_cells,
                       gram, monomial_sum, signed_table)
from .octonion import TABLE, Octonion, verify_split_relations
from .rotations import (DEFAULT_TOL, SYMBOLS, ZERO_FORM, DegenerateBasis,
                        SingularRotation, StructureMismatch, assemble_X,
                        block_decompose, commutator_terms,
                        duplicate_rotation_scan, hermiticity_defect,
                        invert_exact, matrix_exp, numeric_X, plane_product,
                        rotation_component_map, spinor_transform,
                        standard_spinor, unitarity_defect)
from .splitrep import YFixture, audit_Y_blocks, build_split_spinor
from .symbolic import render_linear_form

TOOLKIT_VERSION = "0.1.0"

CONFIRMED = "confirmed"
REFUTED = "refuted"
DEGENERATE = "degenerate"


def _status(ok: bool) -> str:
    return CONFIRMED if ok else REFUTED


class _Context:
    """Derived objects shared by the checkers of one run."""

    def __init__(self, fixtures: FixtureStore, variant: str = "sigma"):
        self.fixtures = fixtures
        self.variant = variant

    @functools.cached_property
    def bs(self):
        return beta_set(self.variant)

    @functools.cached_property
    def ems(self):
        return build_E(self.bs)

    @functools.cached_property
    def x(self):
        return assemble_X(self.bs)


# ---------------------------------------------------------------------------
# checkers (alphabetical by claim id)

def _check_beta_consistency(fx, ctx):
    records = []
    for a in range(1, 8):
        records.append({"generator": a,
                        "equal": beta_sigma_expansion(a) == beta_tensor_text(a)})
    ok = all(r["equal"] for r in records)
    return _status(ok), {"generators": records}


def _check_beta8_consistency(fx, ctx):
    cells = diff_cells(beta_sigma_expansion(8), beta_tensor_text(8))
    return _status(not cells), {"differing_cells": len(cells), "cells": cells}


def _check_dup_rotations(fx, ctx):
    classes = duplicate_rotation_scan(ctx.bs)
    cls = next(c for c in classes if (1, 2) in c)
    ok = (5, 6) in cls and (7, 8) in cls
    return _status(ok), {
        "class_of_plane_1_2": [list(p) for p in cls],
        "partition": [[list(p) for p in c] for c in classes],
    }


def _check_eq12_fixture(fx, ctx):
    n = plane_product(1, 2, ctx.bs)
    const_cells = diff_cells(fx.eq12_const, SquareMatrix.identity(8))
    theta_cells = diff_cells(fx.eq12_theta, n)
    ok = not const_cells and not theta_cells
    return _status(ok), {"constant_part_cells": const_cells,
                         "theta_part_cells": theta_cells}


def _check_eq13_increment(fx, ctx):
    n = plane_product(1, 2, ctx.bs)
    comm = monomial_sum(commutator_terms(n, SYMBOLS, ctx.bs), ZERO_FORM)
    cells = diff_cells(comm, fx.eq13.scale(2))
    return _status(not cells), {
        "checked": "[beta1 beta2, X] == 2 * stated increment matrix",
        "cells": cells,
    }


def _check_eq14_map(fx, ctx):
    try:
        cm = rotation_component_map(1, 2, ctx.bs)
    except DegenerateBasis:
        return DEGENERATE, {"reason": "generator Gram matrix is singular"}
    lines = []
    for a in range(8):
        derived, stated = cm.lines[a], fx.eq14[a]
        lines.append({
            "component": a + 1,
            "derived": render_linear_form(derived),
            "stated": render_linear_form(stated),
            "match": derived == stated,
            "stated_has_imaginary_coeff": stated.has_imaginary_coeff(),
        })
    residual = [{"row": i, "col": j, "entry": render_linear_form(e)}
                for i, j, e in cm.residual.nonzero_cells()]
    ok = all(ln["match"] for ln in lines) and not residual
    return _status(ok), {"lines": lines,
                         "projection_residual_cells": residual}


def _check_eq15_alternates(fx, ctx):
    records = audit_E_alternates(ctx.bs, ctx.ems)
    return _status(all(r["equal"] for r in records)), {"alternates": records}


def _check_eq18_relations(fx, ctx):
    checks = verify_split_relations()
    failed = [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs}
              for c in checks if not c.ok]
    return _status(not failed), {
        "identities_checked": len(checks),
        "verdicts": [{"name": c.name, "ok": c.ok} for c in checks],
        "failed": failed,
    }


def _check_eq19_split_spinor(fx, ctx):
    comps = build_split_spinor().components
    records = []
    for m, (a, b) in enumerate([(0, 7), (1, 4), (2, 5), (3, 6)]):
        u, us = comps[m], comps[m + 4]
        records.append({
            "pair": [a, b],
            "sum_recovers_unit": (u + us) == Octonion.unit(a, CRational(1)),
            "difference_recovers_i_unit":
                (u - us) == Octonion.unit(b, CRational(0, 1)),
            "starred_is_conjugate":
                us == Octonion([c.conj() for c in u.coeffs]),
        })
    ok = len(comps) == 8 and all(
        r["sum_recovers_unit"] and r["difference_recovers_i_unit"]
        and r["starred_is_conjugate"] for r in records)
    return _status(ok), {"components": len(comps), "pairs": records}


def _check_eq2_fixture(fx, ctx):
    bad = [a for a in range(1, 9) if fx.eq2[a] != SIGMA_TERMS[a]]
    return _status(not bad), {"lines_checked": 8, "mismatched_lines": bad}


def _check_eq22_blocks(fx, ctx):
    try:
        dec = block_decompose(ctx.x)
    except StructureMismatch as exc:
        return REFUTED, {"compact_form": False,
                         "cells": [list(c) for c in exc.cells]}
    yfix = YFixture(fx.eq21_y1, fx.eq21_y2, fx.eq23_c, fx.eq24_d)
    audits, b_minus_c = audit_Y_blocks(yfix, dec)
    ok = all(a.ok for a in audits)
    return _status(ok), {
        "audits": [a.as_dict() for a in audits],
        "b_minus_c_cells": [
            {"row": i, "col": j, "entry": render_linear_form(e)}
            for i, j, e in b_minus_c.nonzero_cells()],
    }


def _check_eq6_fixture(fx, ctx):
    cells = diff_cells(ctx.x, fx.eq6)
    return _status(not cells), {"cells": cells}


def _check_eq8_eq9_blocks(fx, ctx):
    try:
        dec = block_decompose(ctx.x)
    except StructureMismatch as exc:
        return REFUTED, {"compact_form": False,
                         "cells": [list(c) for c in exc.cells]}
    a_cells = diff_cells(dec.a, fx.eq6.block(0, 0, 4))
    b_cells = diff_cells(dec.b, fx.eq6.block(1, 0, 4))
    ok = not a_cells and not b_cells
    return _status(ok), {"compact_form": True,
                         "a_block_cells": a_cells,
                         "b_block_cells": b_cells}


def _check_exp_action(fx, ctx):
    # Always run on the canonical sigma reading: a duplicated beta8
    # would test the generator text again, not the exponential.
    bs = beta_set("sigma")
    zero = [[0j] * 8 for _ in range(8)]
    identity = [[complex(i == j) for j in range(8)] for i in range(8)]
    identity_exact = matrix_exp(zero) == identity
    # the standard spinor's coefficient array is the identity
    spinor_fixed = spinor_transform(standard_spinor(), zero) == identity
    # scalar oracle: an f8-only vector makes X diagonal, so exp is
    # elementwise on the diagonal signs
    ln2 = math.log(2.0)
    e = matrix_exp(numeric_X([0.0] * 7 + [ln2], bs))
    signs = [1, 1, -1, -1, -1, -1, 1, 1]
    oracle = [[math.exp(s * ln2) if i == j else 0.0 for j in range(8)]
              for i, s in enumerate(signs)]
    oracle_err = max(abs(v - w) for row, o_row in zip(e, oracle)
                     for v, w in zip(row, o_row))
    herm = hermiticity_defect(e)
    uni = unitarity_defect(e)
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
    g = gram(ctx.bs)
    target = SquareMatrix.identity(8).scale(CRational(8))
    cells = diff_cells(g, target)
    details = {
        "variant": ctx.variant,
        "cells_off_8I": cells,
        "anticommuting_pairs": [list(p) for p in anticommutator_audit(ctx.bs)],
    }
    if ctx.variant != "tensor":
        gt = gram(beta_set("tensor"))
        details["tensor_reading_entry_1_8"] = str(gt.at(0, 7))
        try:
            invert_exact(gt)
            details["tensor_reading_singular"] = False
        except SingularRotation:
            details["tensor_reading_singular"] = True
    if not cells:
        return CONFIRMED, details
    try:
        invert_exact(g)
    except SingularRotation:
        details["gram_singular"] = True
        return DEGENERATE, details
    return REFUTED, details


def _check_table_48_16(fx, ctx):
    diff = compare_tables(fx.table2, signed_table(ctx.ems))
    counts = diff.counts()
    ok = (counts["identical"] == 48 and counts["sign_flipped"] == 16
          and counts["structurally_different"] == 0)
    return _status(ok), {"stated": {"identical": 48, "sign_flipped": 16},
                         "counts": counts, "cells": list(diff.cells)}


def _check_table1_self_consistency(fx, ctx):
    diff = compare_tables(signed_table(ctx.ems), fx.table1)
    ok = diff.counts()["identical"] == 64
    return _status(ok), {"counts": diff.counts(), "cells": list(diff.cells)}


def _check_table2_fixture(fx, ctx):
    diff = compare_tables(TABLE.to_signed_table(), fx.table2)
    ok = diff.counts()["identical"] == 64
    return _status(ok), {
        "counts": diff.counts(),
        "cells": list(diff.cells),
        "oriented_triples": [list(t) for t in TABLE.oriented_triples()],
    }


def _check_x_traceless_hermitian(fx, ctx):
    herm, traceless = ctx.x.is_hermitian(), ctx.x.is_traceless()
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
    ctx = _Context(fixtures, variant)
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
# serialization (canonical: json.dumps(..., indent=2), key order fixed
# by construction; two runs over the same inputs are byte-identical)

def report_dict(report: ClaimReport) -> dict:
    return {
        "version": report.version,
        "fixtures": [dict(f) for f in report.fixtures],
        "claims": [{"id": r.id, "anchor": r.anchor, "status": r.status,
                    "details": r.details} for r in report.claims],
        "summary": dict(report.summary),
    }


def to_json(report: ClaimReport) -> str:
    return json.dumps(report_dict(report), indent=2)


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
                  json.dumps(r.details, indent=2), "```"]
    return "\n".join(lines) + "\n"
