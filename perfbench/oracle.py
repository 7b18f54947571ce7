"""Oracles for the octo-so8 CLI, computed apart from the program.

Everything here is rebuilt from the fixture text and from tables this
file states itself, with numpy, scipy and ``fractions``; nothing imports
``octo_so8``.  ``Oracle.check_pass`` takes one pass of a workload (argv
lists plus the captured exit code, stdout and stderr of each command)
and returns one verdict per command.
"""

from __future__ import annotations

import json
import re
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.linalg

# Relative bound on the spinor coefficients, max-entry error over the
# max entry of the scipy result.  See README.md, "Why the bounds hold".
SPINOR_RTOL = 1e-9
# Absolute bound, scaled by the size of the input, on every float the
# rotate command prints.
ROTATE_ATOL = 1e-9

# ---------------------------------------------------------------------------
# generators, stated here

_PAULI = {1: np.array([[0, 1], [1, 0]], dtype=complex),
          2: np.array([[0, -1j], [1j, 0]], dtype=complex),
          3: np.array([[1, 0], [0, -1]], dtype=complex)}


def _dirac(j: int) -> np.ndarray:
    """Dirac matrices: [[0, -i s_j], [i s_j, 0]] for j = 1..3,
    diag(I2, -I2) for j = 4."""
    if j == 4:
        return np.diag([1, 1, -1, -1]).astype(complex)
    z = np.zeros((2, 2), dtype=complex)
    s = _PAULI[j]
    return np.block([[z, -1j * s], [1j * s, z]])


# Tensor reading of the eight generator lines of eq (2):
# beta_A = sigma_p (x) gamma_g.  Line 8 repeats line 1's factors as
# printed in the source.
TENSOR_READING = {1: (1, 1), 2: (3, 1), 3: (2, 3), 4: (3, 2),
                  5: (1, 3), 6: (3, 3), 7: (1, 4), 8: (1, 1)}

# E-family of eq (15): E_k as products of generators.
E_PRODUCTS = {0: (), 1: (1, 5), 2: (1, 7), 3: (7, 5), 4: (7,), 5: (5,),
              6: (1,), 7: (7, 5, 1)}

# Split basis of eq (19): u_m = (e_a + i e_b)/2, u_m* = (e_a - i e_b)/2.
SPLIT_PAIRS = ((0, 7), (1, 4), (2, 5), (3, 6))

PLANES = tuple(combinations(range(1, 9), 2))


def sigma_betas(text: str) -> list:
    """beta_1..beta_8 from the lines ``betaN <i|1> [+-]Smn x8``."""
    out = []
    for line in text.split("\n"):
        toks = line.split()
        if not toks:
            continue
        m = np.zeros((8, 8), dtype=complex)
        for tok in toks[2:]:
            sign = -1 if tok.startswith("-") else 1
            r, c = int(tok[-2]), int(tok[-1])
            m[r - 1, c - 1] += sign
        out.append(m * (1j if toks[1] == "i" else 1))
    if len(out) != 8:
        raise ValueError("eq2_sigma.txt: expected 8 generator lines")
    return out


def tensor_betas() -> list:
    return [np.kron(_PAULI[p], _dirac(g))
            for p, g in (TENSOR_READING[a] for a in range(1, 9))]


def split_basis() -> np.ndarray:
    """Row j: coefficients of the j-th element of
    (u0, u1, u2, u3, u0*, u1*, u2*, u3*) on e0..e7."""
    rows = np.zeros((8, 8), dtype=complex)
    for m, (a, b) in enumerate(SPLIT_PAIRS):
        rows[m, a] = rows[m + 4, a] = 0.5
        rows[m, b], rows[m + 4, b] = 0.5j, -0.5j
    return rows


# ---------------------------------------------------------------------------
# text parsers for the program's tokens

_ATOM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(i?)$")


def parse_scalar(tok: str) -> tuple:
    """'15/17', '-1/2+3/4i', 'i', '-2i' -> (Fraction re, Fraction im)."""
    parts = [0, 0]
    atoms = re.findall(r"[+-]?[^+-]+", tok.strip())
    if not atoms or "".join(atoms) != tok.strip():
        raise ValueError(f"bad scalar {tok!r}")
    for atom in atoms:
        m = _ATOM.match(atom)
        if m is None or (m.group(2) is None and not m.group(3)):
            raise ValueError(f"bad scalar {tok!r}")
        v = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        parts[1 if m.group(3) else 0] += v
    return Fraction(parts[0]), Fraction(parts[1])


def scalar(tok: str) -> complex:
    re_, im = parse_scalar(tok)
    return complex(float(re_), float(im))


def _split_terms(text: str) -> list:
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and i > start:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    return terms


def parse_form(text: str) -> np.ndarray:
    """Linear form over f1..f8 -> [constant, c1, ..., c8] (complex)."""
    out = np.zeros(9, dtype=complex)
    for term in _split_terms(text.strip()):
        coef, sym = -1 if term.startswith("-") else 1, 0
        for fac in term.lstrip("+-").split("*"):
            if re.fullmatch(r"f[1-8]", fac):
                sym = int(fac[1])
            elif fac.startswith("("):
                coef *= scalar(fac[1:-1])
            else:
                coef *= 1j if fac == "i" else scalar(fac)
        out[sym] += coef
    return out


def _form_matrix(text: str) -> np.ndarray:
    """n x n fixture grid of forms -> array (n, n, 9)."""
    rows = [ln.split() for ln in text.split("\n") if ln.strip()]
    return np.array([[parse_form(t) for t in row] for row in rows])


def _signed_grid(rows) -> list:
    """Rows of tokens 'e3' / '-E5' / '?' -> rows of (sign, k) or None."""
    def cell(tok):
        if tok == "?":
            return None
        return (-1 if tok.startswith("-") else 1, int(tok[-1]))
    return [[cell(t) for t in row] for row in rows]


def _floats(text: str) -> list:
    return [float(x) for x in text.split(",")]


# ---------------------------------------------------------------------------
# the oracle

def _signed_table(ems) -> list:
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            p = ems[a] @ ems[b]
            row.append(next(((s, k) for k in range(8) for s in (1, -1)
                             if np.array_equal(p, s * ems[k])), None))
        table.append(row)
    return table


def _compare_tables(left, right) -> dict:
    counts = {"identical": 0, "sign_flipped": 0, "structurally_different": 0}
    cells = []
    for i in range(8):
        for j in range(8):
            a, b = left[i][j], right[i][j]
            if a == b and a is not None:
                counts["identical"] += 1
                continue
            if a is not None and b is not None and a[1] == b[1]:
                kind = "sign_flipped"
            else:
                kind = "structurally_different"
            counts[kind] += 1
            cells.append((i, j, kind))
    return {"counts": counts, "cells": cells}


class Reading:
    """Everything the oracle derives from one generator reading."""

    def __init__(self, betas: list, table2):
        self.b = np.array(betas)
        self.gram = np.einsum("aij,bji->ab", self.b, self.b)
        self.singular = abs(np.linalg.det(self.gram)) < 1e-6
        self.anticommuting = [(a + 1, c + 1) for a, c in combinations(range(8), 2)
                              if not np.any(self.b[a] @ self.b[c]
                                            + self.b[c] @ self.b[a])]
        ems = []
        for k in range(8):
            m = np.eye(8, dtype=complex)
            for a in E_PRODUCTS[k]:
                m = m @ self.b[a - 1]
            ems.append(m)
        self.e_table = _signed_table(ems)
        self.table_diff = _compare_tables(table2, self.e_table)

    def plane(self, k: int, l: int) -> np.ndarray:
        return self.b[k - 1] @ self.b[l - 1]

    def x(self, f) -> np.ndarray:
        return np.einsum("a,aij->ij", np.asarray(f, dtype=complex), self.b)

    def project(self, m: np.ndarray):
        """(coefficients on beta_1..8, residual) of an 8x8 matrix."""
        traces = np.einsum("aij,ji->a", self.b, m)
        coef = np.linalg.solve(self.gram, traces)
        return coef, m - self.x(coef)

    def first_order_map(self, k: int, l: int):
        """lines[A][B]: coefficient of f_B in the theta-coefficient of
        f_A; residual[B]: part of [N, beta_B] outside the span."""
        n = self.plane(k, l)
        lines, residual = np.zeros((8, 8), dtype=complex), []
        for bidx in range(8):
            coef, res = self.project(n @ self.b[bidx] - self.b[bidx] @ n)
            lines[:, bidx] = coef
            residual.append(res)
        return lines, np.array(residual)


class Oracle:
    """Expected outputs for every workload, from the fixture directory
    ``data`` (read as text) and the tables above."""

    def __init__(self, data: Path):
        text = {p.name: p.read_text() for p in data.glob("*.txt")}
        self.table2 = _signed_grid(ln.split() for ln in
                                   text["table2.txt"].split("\n") if ln.strip())
        self.readings = {
            "sigma": Reading(sigma_betas(text["eq2_sigma.txt"]), self.table2),
            "tensor": Reading(tensor_betas(), self.table2),
        }
        self.eq14 = np.array([parse_form(ln.split()[1]) for ln in
                              text["eq14_map.txt"].split("\n") if ln.strip()])
        self.y = _form_matrix(text["eq21_Y1.txt"]) + _form_matrix(text["eq21_Y2.txt"])
        self.split_rows = split_basis()
        self._rotate_maps = {}
        self.errors = []

    def plane_square_sign(self, k: int, l: int) -> int:
        """+1 when (beta_k beta_l)^2 = +I, -1 when it is -I (sigma)."""
        n = self.readings["sigma"].plane(k, l)
        sq = n @ n
        for s in (1, -1):
            if np.array_equal(sq, s * np.eye(8)):
                return s
        raise ValueError(f"plane ({k},{l}) does not square to +-I")

    # -- per-command checks ------------------------------------------------

    def check_pass(self, workload: str, cmds, results) -> list:
        """One verdict per command of a pass; results[i] = (rc, out, err)."""
        verdicts = []
        for argv, res in zip(cmds, results):
            try:
                verdicts.append(bool(self.check(argv, *res)))
            except Exception as exc:  # a malformed output is a failed operation
                verdicts.append(False)
                self.errors.append(f"{' '.join(argv)}: {exc!r}")
        if workload == "audit":
            self._cross_check_verify(cmds, results, verdicts)
        return verdicts

    def check(self, argv, rc, out, err) -> bool:
        opts = _options(argv)
        reading = self.readings[opts.get("--beta-variant", "sigma")]
        fmt = opts.get("--format", "md")
        sub = argv[0]
        if sub == "spinor":
            return self._check_spinor(opts, reading, fmt, rc, out, err)
        if rc != 0 and sub != "rotate":
            return False
        if sub == "dump-beta":
            return self._check_dump_beta(int(opts["_pos"][0]), reading, fmt, out)
        if sub == "gram":
            return self._check_gram(reading, fmt, out)
        if sub == "tables":
            return self._check_tables(reading, fmt, out)
        if sub == "verify":
            return self._check_verify(reading, _parse_report(out, fmt))
        if sub == "rotate":
            return self._check_rotate(opts, reading, fmt, rc, out, err)
        raise ValueError(f"no oracle for {sub!r}")

    def _check_dump_beta(self, a, reading, fmt, out) -> bool:
        if fmt == "json":
            grid = json.loads(out)["matrix"]
        else:
            grid = [ln.split() for ln in out.split("\n")[2:] if ln.strip()]
        return np.array_equal(np.array([[scalar(t) for t in row] for row in grid]),
                              reading.b[a - 1])

    def _check_gram(self, reading, fmt, out) -> bool:
        if fmt == "json":
            doc = json.loads(out)
            grid, pairs = doc["gram"], [tuple(p) for p in doc["anticommuting_pairs"]]
        else:
            lines = out.split("\n")
            grid = [ln.split() for ln in lines[2:10]]
            tail = lines[11].split(": ", 1)[1]
            pairs = ([] if tail == "none" else
                     [tuple(int(v) for v in p.strip("()").split(","))
                      for p in tail.split(", ")])
        g = np.array([[scalar(t) for t in row] for row in grid])
        return np.array_equal(g, reading.gram) and pairs == reading.anticommuting

    def _check_tables(self, reading, fmt, out) -> bool:
        if fmt == "json":
            doc = json.loads(out)
            fixture, derived = doc["octonion_table"], doc["derived_e_table"]
            counts = doc["diff"]["counts"]
            cells = [(c["row"], c["col"], c["kind"].replace("-", "_"))
                     for c in doc["diff"]["cells"]]
        else:
            rows = [[c.strip() for c in ln.strip("|").split("|")]
                    for ln in out.split("\n") if ln.startswith("| ")]
            grids = [r[1:] for r in rows if len(r) == 9 and r[0] not in ("", "---")]
            fixture, derived = grids[0:8], grids[8:16]
            nums = re.findall(r"\d+", next(ln for ln in out.split("\n")
                                            if ln.startswith("identical:")))
            counts = dict(zip(("identical", "sign_flipped",
                               "structurally_different"), map(int, nums)))
            cells = [(int(r[0]), int(r[1]), r[4].replace("-", "_"))
                     for r in rows if len(r) == 5 and r[0].isdigit()]
        want = reading.table_diff
        return (_signed_grid(fixture) == self.table2
                and _signed_grid(derived) == reading.e_table
                and counts == want["counts"] and cells == want["cells"])

    def _check_verify(self, reading, report) -> bool:
        claims = {c["id"]: c for c in report["claims"]}
        statuses = [c["status"] for c in report["claims"]]
        summary = {s: statuses.count(s)
                   for s in ("confirmed", "refuted", "degenerate")}
        if report["summary"] != summary or len(claims) != 19:
            return False
        gram = claims["gram-orthogonality"]
        want_gram = ("confirmed" if np.array_equal(reading.gram, 8 * np.eye(8))
                     else "degenerate" if reading.singular else "refuted")
        table = claims["table-48-16"]
        eq14 = claims["eq14-map"]
        if gram["status"] != want_gram or table["details"]["counts"] != \
                reading.table_diff["counts"]:
            return False
        if reading.singular:
            return eq14["status"] == "degenerate"
        lines, _ = reading.first_order_map(1, 2)
        derived = np.array([parse_form(ln["derived"])
                            for ln in eq14["details"]["lines"]])
        matches = [ln["match"] for ln in eq14["details"]["lines"]]
        return (np.allclose(derived[:, 0], 0, atol=1e-12)
                and np.allclose(derived[:, 1:], lines, atol=1e-12)
                and matches == [bool(np.allclose(derived[a], self.eq14[a],
                                                 atol=1e-12))
                                for a in range(8)])

    def _cross_check_verify(self, cmds, results, verdicts):
        """md and json reports of one reading agree, claim by claim."""
        reports = {}
        for i, (argv, (rc, out, _)) in enumerate(zip(cmds, results)):
            if argv[0] != "verify" or rc != 0:
                continue
            opts = _options(argv)
            key = opts.get("--beta-variant", "sigma")
            try:
                rep = _parse_report(out, opts.get("--format", "md"))
            except Exception:  # check() has failed this command already
                continue
            reports.setdefault(key, []).append((i, rep))
        for pair in reports.values():
            first = pair[0][1]
            for i, rep in pair[1:]:
                if (rep["summary"] != first["summary"]
                        or rep["claims"] != first["claims"]):
                    verdicts[i] = verdicts[pair[0][0]] = False

    def _rotate_map(self, k, l):
        if (k, l) not in self._rotate_maps:
            self._rotate_maps[(k, l)] = self.readings["sigma"].first_order_map(k, l)
        return self._rotate_maps[(k, l)]

    def _check_rotate(self, opts, reading, fmt, rc, out, err) -> bool:
        k, l = (int(v) for v in opts["_pos"])
        if "--f" not in opts:
            return rc == 0 and self._check_rotate_symbolic(k, l, reading, fmt, out)
        theta = Fraction(opts.get("--theta", "0"))
        f = [Fraction(v) for v in opts["--f"].split(",")]
        r = np.eye(8) + float(theta) * reading.plane(k, l)
        if abs(np.linalg.det(r)) < 1e-9:
            return rc == 2 and err.startswith("error:") and "singular" in err
        if rc != 0:
            return False
        if fmt == "json":
            doc = json.loads(out)
            first = [scalar(v) for v in doc["first_order"]["f_prime"]]
            first_res = doc["first_order"]["residual_max"]
            exact_tok = doc["exact"]["f_prime"]
            exact_res = doc["exact"]["residual_max"]
        else:
            lines = [ln.split(": ", 1)[1] for ln in out.split("\n")[1:5]]
            first = [scalar(v) for v in lines[0].split(", ")]
            first_res, exact_tok = float(lines[1]), lines[2].split(", ")
            exact_res = float(lines[3])
        fv = np.array([float(v) for v in f], dtype=complex)
        x = reading.x(fv)
        want, residual = reading.project(r @ x @ np.linalg.inv(r))
        lines_map, res_map = self._rotate_map(k, l)
        want_first = fv + float(theta) * (lines_map @ fv)
        want_first_res = abs(float(theta)) * np.max(
            np.abs(np.einsum("b,bij->ij", fv, res_map)))
        scale = ROTATE_ATOL * max(1.0, float(np.max(np.abs(fv))))
        exact = [parse_scalar(t) for t in exact_tok]
        ok = (np.allclose([complex(float(a), float(b)) for a, b in exact],
                          want, rtol=0, atol=scale)
              and abs(exact_res - np.max(np.abs(residual))) <= scale
              and np.allclose(first, want_first, rtol=0, atol=scale)
              and abs(first_res - want_first_res) <= scale)
        if (k, l) == (1, 2) and theta == Fraction(1, 4) and f == [1] + [0] * 7:
            # Cayley closed form of the package README example, exactly.
            t = theta
            ok = ok and exact[:2] == [((1 - t * t) / (1 + t * t), 0),
                                      (-2 * t / (1 + t * t), 0)]
        return ok

    def _check_rotate_symbolic(self, k, l, reading, fmt, out) -> bool:
        if fmt == "json":
            doc = json.loads(out)
            derived = [ln["derived"] for ln in doc["lines"]]
            stated = [ln["match"] for ln in doc["lines"]]
            cells = {(c["row"], c["col"]): c["entry"] for c in doc["residual_cells"]}
        else:
            lines = out.split("\n")
            body = lines[1:9]
            derived = [re.search(r"theta\*\((.*?)\)(   \[|$)", ln).group(1)
                       for ln in body]
            stated = ["[differs from stated" not in ln for ln in body]
            cells = {}
            for ln in lines[10:]:
                m = re.match(r"\s+\((\d+),(\d+)\): (.*)$", ln)
                if m:
                    cells[(int(m.group(1)), int(m.group(2)))] = m.group(3)
        lines_map, res_map = self._rotate_map(k, l)
        forms = np.array([parse_form(t) for t in derived])
        if not (np.allclose(forms[:, 0], 0) and np.allclose(forms[:, 1:], lines_map)):
            return False
        want_cells = {}
        for i in range(8):
            for j in range(8):
                if np.any(np.abs(res_map[:, i, j]) > 1e-12):
                    want_cells[(i + 1, j + 1)] = res_map[:, i, j]
        if set(cells) != set(want_cells) or not all(
                np.allclose(parse_form(cells[c])[1:], want_cells[c])
                and abs(parse_form(cells[c])[0]) < 1e-12 for c in cells):
            return False
        comparable = np.array_equal(reading.plane(k, l), reading.plane(1, 2))
        want_match = [bool(np.allclose(forms[a], self.eq14[a])) for a in range(8)]
        if fmt == "json":
            return stated == (want_match if comparable else [None] * 8)
        return stated == (want_match if comparable else [True] * 8)

    def _check_spinor(self, opts, reading, fmt, rc, out, err) -> bool:
        f = _floats(opts["--f"])
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = {"psi": scipy.linalg.expm(reading.x(f))}
            if "--split" in opts:
                y = np.einsum("ijk,k->ij", self.y, np.array([1.0] + f))
                want["phi"] = scipy.linalg.expm(y) @ self.split_rows
        if not all(np.all(np.isfinite(w)) for w in want.values()):
            # e^X overflows binary64: the input must be refused by name.
            biggest = max(opts["--f"].split(","), key=lambda t: abs(float(t)))
            return (rc == 2 and "nan" not in out.lower()
                    and biggest.lstrip("+-") in err)
        if rc != 0:
            return False
        got = _spinor_coefficients(out, fmt, "--split" in opts)
        for key, w in want.items():
            bound = SPINOR_RTOL * float(np.max(np.abs(w)))
            if not np.all(np.isfinite(got[key])) or \
                    float(np.max(np.abs(got[key] - w))) > bound:
                return False
        return set(got) == set(want)


def _options(argv) -> dict:
    """argv tail -> {'--opt': value, '--flag': True, '_pos': [...]}."""
    opts, pos, i = {}, [], 1
    while i < len(argv):
        a = argv[i]
        if a.startswith("--"):
            if "=" in a:
                k, v = a.split("=", 1)
                opts[k] = v
            elif a in ("--split", "--strict"):
                opts[a] = True
            else:
                opts[a] = argv[i + 1]
                i += 1
        else:
            pos.append(a)
        i += 1
    opts["_pos"] = pos
    return opts


def _parse_report(out: str, fmt: str) -> dict:
    """verify output -> {'summary': {...}, 'claims': [{'id', 'status',
    'details'}]}, from either format."""
    if fmt == "json":
        doc = json.loads(out)
        return {"summary": doc["summary"],
                "claims": [{"id": c["id"], "status": c["status"],
                            "details": c["details"]} for c in doc["claims"]]}
    summary_line = next(ln for ln in out.split("\n")
                        if ln.startswith("confirmed: "))
    summary = {k: int(v) for k, v in
               (p.split(": ") for p in summary_line.split(", "))}
    claims = []
    for section in out.split("\n### ")[1:]:
        head, rest = section.split("\n", 1)
        status = re.search(r"^- status: (\S+)$", rest, re.M).group(1)
        body = rest.split("```json\n", 1)[1].rsplit("\n```", 1)[0]
        claims.append({"id": head.strip(), "status": status,
                       "details": json.loads(body)})
    return {"summary": summary, "claims": claims}


def _spinor_coefficients(out: str, fmt: str, split: bool) -> dict:
    """Printed coefficients -> {'psi': 8x8, 'phi': 8x8}; row i holds the
    coefficients of component i on e0..e7."""
    keys = ["psi"] + (["phi"] if split else [])
    got = {k: np.zeros((8, 8), dtype=complex) for k in keys}
    if fmt == "json":
        doc = json.loads(out)
        blocks = {"psi": doc["components"]}
        if split:
            blocks["phi"] = doc["split"]["components"]
        for key, comps in blocks.items():
            if len(comps) != 8:
                raise ValueError("expected 8 components")
            for c in comps:
                for t in c["terms"]:
                    got[key][c["index"] - 1, int(t["unit"][1:])] = \
                        complex(t["re"], t["im"])
        return got
    seen = {k: set() for k in keys}
    for ln in out.split("\n"):
        m = re.match(r"(psi|phi)(\d)' = (.*)$", ln)
        if not m:
            continue
        key, i, body = m.group(1), int(m.group(2)) - 1, m.group(3)
        seen[key].add(i)
        for re_, im, unit in re.findall(
                r"\((.*?[^e])([+-][^()]*?)i\)\*e(\d)", body.split("   [")[0]):
            got[key][i, int(unit)] = complex(float(re_), float(im))
    if any(len(s) != 8 for s in seen.values()):
        raise ValueError("expected 8 components")
    return got
