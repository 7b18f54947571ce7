"""Command-line frontend.

Subcommands: ``tables``, ``verify``, ``rotate K L``, ``spinor``,
``gram``, ``dump-beta A``.  Markdown is the default rendering; every
subcommand also emits canonical JSON with ``--format json``.

Exit codes: 0 on success; 1 when ``verify --strict`` finds refuted
claims; 2 on operational errors (missing fixtures, malformed tokens,
degenerate inputs); 141 (128 + SIGPIPE), with nothing on stderr, when
stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain, filterfalse
from typing import Optional, Sequence

from .claims import (REFUTED, context, dump_json, form_cells, map_line,
                     render_markdown, run_all, to_json)
from .exact import ScalarParseError, parse_dyadic
from .fixtures import (FixtureError, load_files, load_fixtures, load_y_terms,
                       sha256_hex)
from .matrices import beta_set, compare_tables, render_table
from .rotations import (DEFAULT_TOL, DegenerateBasis, NonFiniteInput,
                        ToleranceNotMet, numeric_X, plane_product,
                        residual_max, rotate_exact, rotation_component_map,
                        spinor_transform, standard_spinor,
                        substitute_terms, symbolic_map)
from .octonion import build_split_basis

_FORMATS = ("md", "json")
_Y_SOURCE = "fixture sum (eq21_Y1 + eq21_Y2)"


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--fixtures", metavar="DIR", default=None,
                   help="fixture directory (default: bundled set, or "
                        "$OCTO_SO8_FIXTURES)")
    p.add_argument("--format", choices=_FORMATS, default="md",
                   help="output format (default: md)")
    p.add_argument("--beta-variant", choices=("sigma", "tensor"),
                   default="sigma",
                   help="which transcribed generator reading to use")


@functools.cache   # one tree per process; main reuses it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octo-so8",
        description="Exact octonion / 8x8-matrix machinery with a "
                    "fixture-diffing verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print the octonion table, the "
                       "derived E-matrix table, and their diff")
    _add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run every registered claim and "
                       "print the report")
    _add_common(p)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any claim is refuted")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rotate", help="apply the (k,l) plane rotation; "
                       "symbolic map without --f, numeric with --f")
    _add_common(p)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--theta", default="0",
                   help="dyadic rotation parameter, e.g. 1/4 (default 0)")
    p.add_argument("--f", default=None,
                   help="8 comma-separated dyadic components, e.g. "
                        "1,0,0,0,0,0,0,0")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("spinor", help="transform the standard spinor by "
                       "exp(X) at numeric f")
    _add_common(p)
    p.add_argument("--f", required=True,
                   help="8 comma-separated numeric components "
                        "(decimals allowed)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="at least 2^-53; before rounding, exp(X) comes "
                        "out as exp(X + dX), |dX| <= tol*|X| in max row "
                        "sums (a backward error)")
    p.add_argument("--split", action="store_true",
                   help="also transform the split spinor by exp(Y) "
                        "(Y from the bundled fixture)")
    p.set_defaults(func=cmd_spinor)

    p = sub.add_parser("gram", help="print the generator trace Gram matrix")
    _add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("dump-beta", help="print one generator matrix")
    _add_common(p)
    p.add_argument("a", type=int, choices=range(1, 9), metavar="A",
                   help="generator index 1..8")
    p.set_defaults(func=cmd_dump_beta)

    return parser


def _fixture_dir(args) -> Optional[str]:
    if args.fixtures:
        return args.fixtures
    return os.environ.get("OCTO_SO8_FIXTURES") or None


def _md_grid(tokens, prefix: str):
    head = "|   | " + " | ".join(f"{prefix}{j}" for j in range(8)) + " |"
    lines = [head, "|" + " --- |" * 9]
    for i, row in enumerate(tokens):
        lines.append(f"| {prefix}{i} | " + " | ".join(row) + " |")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def cmd_tables(args) -> int:
    table2, = load_files(("table2.txt",), _fixture_dir(args))
    derived = context(beta_set(args.beta_variant)).table
    diff = compare_tables(table2, derived)
    if args.format == "json":
        print(dump_json({
            "octonion_table": render_table(table2, "e"),
            "derived_e_table": render_table(derived, "E"),
            "diff": diff,
        }))
        return 0
    c = diff["counts"]
    out = ["## Octonion multiplication table (fixture)", ""]
    out += _md_grid(render_table(table2, "e"), "e")
    out += ["", "## Derived E-matrix multiplication table", ""]
    out += _md_grid(render_table(derived, "E"), "E")
    out += ["", "## Diff (octonion fixture vs derived E)", "",
            f"identical: {c['identical']}, sign-flipped: {c['sign_flipped']},"
            f" structurally-different: {c['structurally_different']}"]
    if diff["cells"]:
        out += ["", "| row | col | octonion | derived | kind |",
                "| --- | --- | --- | --- | --- |"]
        out += [f"| {d['row']} | {d['col']} | {d['left']} | {d['right']} |"
                f" {d['kind']} |" for d in diff["cells"]]
    print("\n".join(out))
    return 0


def cmd_verify(args) -> int:
    fx = load_fixtures(_fixture_dir(args))
    report = run_all(fx, args.beta_variant)
    if args.format == "json":
        print(to_json(report))
    else:
        print(render_markdown(report), end="")
    if args.strict and report["summary"][REFUTED] > 0:
        return 1
    return 0


def _flag_value(flag: str, text: str, parse):
    """parse(text); a ScalarParseError names the flag and its value."""
    try:
        return parse(text)
    except ScalarParseError as exc:
        raise ScalarParseError(f"{flag}={text}: {exc}") from None


def _f_values(text: str, parse) -> list:
    """The eight comma-separated values of ``--f``, each read by parse."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 8:
        raise ScalarParseError("need exactly 8 comma-separated f values")
    return [parse(p) for p in parts]


def _float(tok: str) -> float:
    """A decimal literal, or else a dyadic token, as a float."""
    try:
        return float(tok)
    except ValueError:
        return float(parse_dyadic(tok))


def _clip(text: str) -> str:
    """text, or past 160 characters its ends around its length and
    sha256, so that a message stays short."""
    if len(text) <= 160:
        return text
    digest = sha256_hex(text.encode("utf-8"))[:16]
    return f"{text[:60]}<...{len(text)} chars, sha256 {digest}...>{text[-60:]}"


def cmd_rotate(args) -> int:
    bs = beta_set(args.beta_variant)
    k, l = args.k, args.l
    n = plane_product(k, l, bs)   # validates the plane
    theta = _flag_value("--theta", args.theta, parse_dyadic)
    fvals = (None if args.f is None else _flag_value(
        "--f", args.f, lambda t: _f_values(t, parse_dyadic)))
    try:     # the lines once per command: both rotations below use them
        if fvals is None:    # the plane's record, built on its first call
            derived, per_theta, cells = symbolic_map(bs, n)
        else:
            derived, per_theta = rotation_component_map(k, l, bs, fvals)
    except DegenerateBasis as exc:
        raise DegenerateBasis(
            f"plane ({k},{l}) under the {bs.variant} reading: {exc}") from None

    if fvals is None:
        # eq14 states the map of plane (1,2); any plane with the same
        # product is compared against it, and only such a plane reads it
        stated = (load_files(("eq14_map.txt",), _fixture_dir(args))[0]
                  if n == plane_product(1, 2, bs) else (None,) * 8)
        lines = [map_line(a, line, stated[a])
                 for a, line in enumerate(derived)]
        residual = form_cells(cells)
        if args.format == "json":
            print(dump_json({"plane": [k, l], "mode": "symbolic",
                             "lines": lines, "residual_cells": residual}))
            return 0
        out = [f"first-order component map for plane ({k},{l}):"]
        for rec in lines:
            s = (f"  f{rec['component']} -> f{rec['component']}"
                 f" + theta*({rec['derived']})")
            if rec["match"] is False:
                s += f"   [differs from stated {rec['stated']}]"
            out.append(s)
        if residual:
            out.append("projection residual (per theta) nonzero at:")
            out += [f"  ({c['row']},{c['col']}): {c['entry']}"
                    for c in residual]
        print("\n".join(out))
        return 0

    first = [f + theta * d for f, d in zip(fvals, derived)]
    exact, residual = rotate_exact(fvals, k, l, theta, bs,
                                   (derived, per_theta))
    try:     # a zero residual is 0 at every theta, even past binary64
        first_residual = (abs(float(theta)) * residual_max(per_theta)
                          if any(c for c, _ in per_theta) else 0.0)
        exact_residual = residual_max(residual)
        if first_residual == math.inf:     # finite factors, infinite product
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"--theta={args.theta} --f={args.f}: residual "
                            "max-entry overflows binary64") from None
    try:     # str() of an int stops at the interpreter's digit limit
        first, exact = [str(v) for v in first], [str(v) for v in exact]
    except ValueError:
        raise ValueError(
            f"--theta={_clip(args.theta)} --f={_clip(args.f)}: an f' value "
            f"has more than {sys.get_int_max_str_digits()} digits") from None
    if args.format == "json":
        print(dump_json({
            "plane": [k, l], "mode": "numeric", "theta": str(theta),
            "f": [str(v) for v in fvals],
            "first_order": {"f_prime": first, "residual_max": first_residual},
            "exact": {"f_prime": exact, "residual_max": exact_residual},
        }))
        return 0
    out = [f"plane ({k},{l}), theta = {theta}:",
           "  first-order f': " + ", ".join(first),
           f"  first-order residual max-entry: {first_residual}",
           "  exact-conjugation f': " + ", ".join(exact),
           f"  exact residual max-entry: {exact_residual}"]
    print("\n".join(out))
    return 0


def _octonion_terms(row, eps: float = 1e-15):
    """The terms (j, re, im, abs) of one row of a spinor coefficient
    array: its coefficients on e_j of magnitude above eps."""
    terms = []
    for j, c in enumerate(row):
        z = complex(c)
        if (mag := abs(z)) <= eps:
            continue
        terms.append((j, z.real, z.imag, mag))
    return terms


def _render_octonion_line(label: str, terms) -> str:
    if not terms:
        return f"{label} = 0"
    body = " + ".join(f"({re:.12g}{im:+.12g}i)*e{j}" for j, re, im, _ in terms)
    mags = ", ".join(f"|e{j}|={mag:.12g}" for j, _, _, mag in terms)
    return f"{label} = {body}   [{mags}]"


def _json_components(rows, n: int) -> str:
    """A spinor's component list, {"index", "terms"} per component and
    {"unit", "re", "im", "abs"} per term, as json.dumps(..., indent=2)
    writes it at an indent of n spaces: one %-template per term, floats
    by float.__repr__."""
    a, b, c, d = ("\n" + " " * (n + k) for k in (2, 4, 6, 8))
    term = (f'{c}{{{d}"unit": "e%d",{d}"re": %r,{d}"im": %r,{d}"abs": %r'
            f'{c}}}')
    comps = [f'{a}{{{b}"index": {i},{b}"terms": '
             + (f"[{','.join([term % t for t in terms])}{b}]" if terms
                else "[]") + f"{a}}}"
             for i, terms in enumerate(rows, 1)]
    return f"[{','.join(comps)}\n{' ' * n}]"


def _spinor_json(fvals, tol: float, psi, phi=None) -> str:
    """The spinor payload, f, tol, psi's components and with phi the
    split block, byte for byte as dump_json writes it from the dict,
    and like it raising ValueError at the first non-finite float."""
    floats = chain(fvals, (tol,), *(t[1:] for rows in (psi, phi or ())
                                    for terms in rows for t in terms))
    if (bad := next(filterfalse(math.isfinite, floats), None)) is not None:
        raise ValueError(f"non-finite float {bad!r} is not JSON")
    f = ",\n    ".join(map(float.__repr__, fvals))
    text = (f'{{\n  "f": [\n    {f}\n  ],\n  "tol": {tol!r},\n'
            f'  "components": {_json_components(psi, 2)}')
    if phi is not None:
        text += (f',\n  "split": {{\n    "y_source": "{_Y_SOURCE}",\n'
                 f'    "components": {_json_components(phi, 4)}\n  }}')
    return text + "\n}"


def cmd_spinor(args) -> int:
    fvals = _flag_value("--f", args.f, lambda t: _f_values(t, _float))
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol={args.tol:g}: must be positive and finite")
    try:
        return _spinor(args, fvals)
    except NonFiniteInput as exc:
        raise NonFiniteInput(f"--f={args.f}: {exc}") from None
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(f"--tol={args.tol:g}: {exc}") from None


def _spinor(args, fvals) -> int:
    """Transform, and print in the one format asked for; --split reads
    eq21_Y1.txt and eq21_Y2.txt alone.  Raises NonFiniteInput when e^X
    or e^Y overflows, ToleranceNotMet when a series misses tol."""
    bs = beta_set(args.beta_variant)
    out = {"psi": spinor_transform(standard_spinor(), numeric_X(fvals, bs),
                                   args.tol, bs)}
    if args.split:
        y_num = substitute_terms(load_y_terms(_fixture_dir(args)), fvals)
        out["phi"] = spinor_transform(build_split_basis(), y_num, args.tol)
    terms = {k: list(map(_octonion_terms, rows)) for k, rows in out.items()}
    if args.format == "json":
        print(_spinor_json(fvals, args.tol, terms["psi"], terms.get("phi")))
        return 0
    lines = [_render_octonion_line(f"{k}{i + 1}'", t)
             for k, v in terms.items() for i, t in enumerate(v)]
    if args.split:
        lines.insert(8, f"Y source: {_Y_SOURCE}")   # after the 8 psi lines
    print("\n".join(lines))
    return 0


def cmd_gram(args) -> int:
    ctx = context(beta_set(args.beta_variant))
    grid = ctx.gram_matrix.render()
    pairs = [list(p) for p in ctx.pairs]
    if args.format == "json":
        print(dump_json({"variant": args.beta_variant, "gram": grid,
                         "anticommuting_pairs": pairs}))
        return 0
    out = [f"trace Gram matrix, {args.beta_variant} reading:", ""]
    out += ["  " + " ".join(f"{t:>3}" for t in row) for row in grid]
    out += ["", f"anticommuting generator pairs: "
            + (", ".join(f"({a},{b})" for a, b in pairs) if pairs else "none")]
    print("\n".join(out))
    return 0


def cmd_dump_beta(args) -> int:
    bs = beta_set(args.beta_variant)
    grid = bs.beta(args.a).render()
    if args.format == "json":
        print(dump_json({"generator": args.a, "variant": args.beta_variant,
                         "matrix": grid}))
        return 0
    out = [f"beta{args.a}, {args.beta_variant} reading:", ""]
    out += ["  " + " ".join(f"{t:>2}" for t in row) for row in grid]
    print("\n".join(out))
    return 0


# ---------------------------------------------------------------------------
# entry points

def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader went away.  Send what is still buffered to devnull,
        # so the flush at exit cannot fail again, and exit quietly as
        # SIGPIPE would (see the SIGPIPE note in the signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FixtureError, ScalarParseError, ValueError, ArithmeticError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
