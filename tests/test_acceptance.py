"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``ACCEPTANCE nn <label>: PASS`` (or FAIL) before
asserting, so a plain ``pytest -v`` run shows one verdict line per
criterion and ``pytest -s`` shows the explicit banner too.
"""

import json
import random
import time

from octo_so8 import (
    CDyadic,
    Dyadic,
    LinearForm,
    Octonion,
    SingularRotation,
    SquareMatrix,
    assemble_X,
    audit_Y_blocks,
    beta_set,
    block_decompose,
    build_split_basis,
    compare_tables,
    duplicate_rotation_scan,
    gram,
    invert_exact,
    matrix_exp,
    plane_product,
    rotate_exact,
    rotation_component_map,
    run_all,
    signed_table,
    spinor_transform,
    standard_spinor,
    substitute_matrix,
    to_json,
    verify_split_relations,
)
from octo_so8.matrices import build_E, from_blocks, monomial_sum
from octo_so8.rotations import (
    DEFAULT_TOL,
    SYMBOLS,
    ZERO_FORM,
    commutator_terms,
    hermiticity_defect,
    numeric_X,
)
from octo_so8.symbolic import render_linear_form
from oracles import (Monomial, as_monomial, block_sum_oracle, is_hermitian,
                     is_traceless, kron, pauli, reassemble, to_dense)

import numpy as np


def _record(n, label, ok):
    print(f"ACCEPTANCE {n:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n:02d} ({label}) failed"


def _claim(report, cid):
    return next(r for r in report["claims"] if r["id"] == cid)


def test_criterion_01_octonion_table_and_laws(fx):
    start = time.monotonic()
    ok = True
    for i in range(8):
        for j in range(8):
            sign, k = fx.table2[i][j]
            ok &= Octonion.unit(i) * Octonion.unit(j) == Octonion.unit(k) * sign
    rng = random.Random(8128)
    for _ in range(500):
        x = Octonion([rng.randint(-9, 9) for _ in range(8)])
        y = Octonion([rng.randint(-9, 9) for _ in range(8)])
        ok &= (x * y).norm() == x.norm() * y.norm()
        ok &= x * (x * y) == (x * x) * y
        ok &= (y * x) * x == y * (x * x)
    for _ in range(200):
        x, y, z = (Octonion([rng.randint(-9, 9) for _ in range(8)])
                   for _ in range(3))
        ok &= ((x * y) * x) * z == x * (y * (x * z))
    ok &= (time.monotonic() - start) < 1.0
    _record(1, "octonion-table-and-laws", ok)


def test_criterion_02_split_relation_family(report):
    checks = verify_split_relations()
    ok = len(checks) == 64 and all(c.ok for c in checks)
    verdicts = _claim(report, "eq18-relations")["details"]["verdicts"]
    ok &= len(verdicts) == 64 and all(v["ok"] for v in verdicts)
    b = build_split_basis()
    u, u_star = b[:4], b[4:]
    ok &= u[1] * u[2] == u_star[3]
    ok &= u[0] * u[0] == u[0]
    ok &= (u[0] * u_star[0]).is_zero()
    _record(2, "split-relation-family", ok)


def test_criterion_03_generator_consistency(report):
    sig, ten = beta_set("sigma"), beta_set("tensor")
    ok = all(sig.beta(a) == ten.beta(a) for a in range(1, 8))
    c8 = _claim(report, "beta8-consistency")
    ok &= c8["status"] == "refuted" and len(c8["details"]["cells"]) == 16
    ok &= gram(sig) == SquareMatrix.identity(8).scale(CDyadic(8))
    gt = gram(ten)
    ok &= gt.at(0, 7) == CDyadic(8)
    try:
        invert_exact(gt)
        ok = False          # the duplicated-generator Gram must be singular
    except SingularRotation:
        pass
    _record(3, "generator-consistency", ok)


def test_criterion_04_symbolic_matrix_structure(fx):
    x = assemble_X()
    ok = x == fx.eq6
    ok &= is_hermitian(x) and is_traceless(x)
    dec = block_decompose(x)
    ok &= dec.a == fx.eq6.block(0, 0, 4)
    ok &= dec.b == fx.eq6.block(1, 0, 4)
    ok &= reassemble(dec) == x
    _record(4, "symbolic-matrix-structure", ok)


def test_criterion_05_rotation_machinery(fx):
    theta = Dyadic(1, 1)
    r = SquareMatrix.identity(8) + to_dense(plane_product(1, 2)).scale(theta)
    ok = r == fx.eq12_const + fx.eq12_theta.scale(theta)
    ok &= fx.eq12_const == SquareMatrix.identity(8)
    ok &= fx.eq12_theta == to_dense(plane_product(1, 2))

    n = plane_product(1, 2)
    increment = monomial_sum(commutator_terms(n, SYMBOLS),
                             ZERO_FORM).scale(theta)
    ok &= increment == fx.eq13.scale(theta).scale(2)

    lines, _ = rotation_component_map(1, 2)
    flags = {a + 1 for a in range(8)
             if render_linear_form(lines[a]) !=
             render_linear_form(fx.eq14[a])}
    ok &= flags == {1, 3, 4}

    ones = [Dyadic(1)] * 8
    mats = beta_set().mats
    x_num = substitute_matrix(assemble_X(), ones)
    comm = monomial_sum(commutator_terms(n, ones), Dyadic(0))

    def deviation(t):
        f_prime, residual = rotate_exact(ones, 1, 2, t)
        exact = monomial_sum(zip(f_prime, mats), Dyadic(0)) + residual
        first = x_num + comm.scale(t)
        return max(abs(complex(e)) for row in (exact - first).rows
                   for e in row)

    ratio = deviation(Dyadic(1, 6)) / deviation(Dyadic(1, 7))
    ok &= 3.5 <= ratio <= 4.5
    _record(5, "rotation-machinery", ok)


def test_criterion_06_duplicate_rotation_planes(report):
    classes = duplicate_rotation_scan()
    cls = next(c for c in classes if (1, 2) in c)
    ok = (5, 6) in cls and (7, 8) in cls
    # sigma1 sigma3 = -i sigma2, so the target is -i sigma2 (x) I4
    target = kron(pauli(1) @ pauli(3), Monomial.identity(4))
    ok &= set(cls) == {(k, l) for k in range(1, 9) for l in range(k + 1, 9)
                       if as_monomial(plane_product(k, l)) == target}
    ok &= sum(len(c) for c in classes) == 28
    det = _claim(report, "dup-rotations")["details"]
    ok &= sum(len(c) for c in det["partition"]) == 28
    _record(6, "duplicate-rotation-planes", ok)


def test_criterion_07_table_cross_comparison(fx, report):
    derived = signed_table(build_E(beta_set()))
    d = compare_tables(fx.table2, derived)
    ok = sum(d["counts"].values()) == 64
    ok &= d["counts"] != {"identical": 48, "sign_flipped": 16,
                          "structurally_different": 0}
    c = _claim(report, "table-48-16")
    ok &= c["status"] == "refuted" and len(c["details"]["cells"]) == 20

    d1 = compare_tables(derived, fx.table1)
    ok &= d1["counts"] == {"identical": 63, "sign_flipped": 1,
                           "structurally_different": 0}
    c1 = _claim(report, "table1-self-consistency")
    ok &= c1["status"] == "refuted"
    ok &= c1["details"]["cells"][0]["row"] == 6
    ok &= c1["details"]["cells"][0]["col"] == 5
    _record(7, "table-cross-comparison", ok)


def test_criterion_08_block_sum_audit(fx, report):
    rng = random.Random(1729)

    def rand_form():
        return LinearForm([Dyadic(rng.randint(-4, 4), rng.randint(0, 2))
                           + CDyadic(0, 1)
                           * Dyadic(rng.randint(-4, 4), rng.randint(0, 2))
                           for _ in range(9)])

    def rand_mat():
        return SquareMatrix([[rand_form() for _ in range(4)]
                             for _ in range(4)])

    ok = all(block_sum_oracle(rand_mat(), rand_mat(), rand_mat(), rand_mat())
             for _ in range(100))

    a, b, _ = block_decompose(assemble_X())
    audits, b_minus_c = audit_Y_blocks(fx, b, from_blocks(a, a, b, b))
    ok &= not audits[2]["ok"]                   # stated top-left B == C fails
    ok &= len(b_minus_c.nonzero_cells()) == 16  # ...and the diff is attached
    c = _claim(report, "eq22-blocks")
    ok &= c["status"] == "refuted"
    ok &= len(c["details"]["b_minus_c_cells"]) == 16
    _record(8, "block-sum-audit", ok)


def test_criterion_09_exponential_action():
    bound = 10 * DEFAULT_TOL
    e0 = matrix_exp(np.zeros((8, 8)))
    ok = np.array_equal(e0, np.eye(8, dtype=np.complex128))
    out = spinor_transform(standard_spinor(), np.zeros((8, 8)))
    ok &= all(out[k][k] == 1.0 for k in range(8))

    lam = 0.25
    e8 = matrix_exp(numeric_X([0.0] * 7 + [lam]))
    signs = [1, 1, -1, -1, -1, -1, 1, 1]
    expected = np.diag([np.exp(s * lam) for s in signs])
    ok &= float(np.max(np.abs(e8 - expected))) < bound

    ex = matrix_exp(numeric_X([0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4, 0.9]))
    ok &= hermiticity_defect(ex) < bound
    _record(9, "exponential-action", ok)


def test_criterion_10_deterministic_report(fx):
    start = time.monotonic()
    s1 = to_json(run_all(fx))
    s2 = to_json(run_all(fx))
    elapsed = time.monotonic() - start
    ok = s1.encode("utf-8") == s2.encode("utf-8")
    ok &= json.dumps(json.loads(s1), indent=2) == s1
    ok &= elapsed < 10.0
    _record(10, "deterministic-report", ok)
