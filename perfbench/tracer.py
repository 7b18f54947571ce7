"""Spans around the public functions of octo_so8, installed from outside.

``Tracer.install`` replaces each named function (and every module-level
alias of it inside the package, since the CLI imports names directly)
with a wrapper that records one span per call: name, start, end and
parent span.  Spans stay in memory until ``write``; ``layer_metrics``
turns them into times and call counts per layer.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute); a dotted attribute is a method.
LAYERS = (
    ("matrices.beta_set", "octo_so8.matrices", "beta_set"),
    ("matrices.matmul", "octo_so8.matrices", "SquareMatrix.__matmul__"),
    ("matrices.gram", "octo_so8.matrices", "gram"),
    ("matrices.build_E", "octo_so8.matrices", "build_E"),
    ("matrices.signed_table", "octo_so8.matrices", "signed_table"),
    ("matrices.anticommutator_audit", "octo_so8.matrices", "anticommutator_audit"),
    ("rotations.invert_exact", "octo_so8.rotations", "invert_exact"),
    ("rotations.rotate_exact", "octo_so8.rotations", "rotate_exact"),
    ("rotations.extract_components", "octo_so8.rotations", "extract_components"),
    ("rotations.rotation_component_map", "octo_so8.rotations",
     "rotation_component_map"),
    ("rotations.duplicate_rotation_scan", "octo_so8.rotations",
     "duplicate_rotation_scan"),
    ("rotations.substitute_matrix", "octo_so8.rotations", "substitute_matrix"),
    ("rotations.numeric_X", "octo_so8.rotations", "numeric_X"),
    ("rotations.matrix_exp", "octo_so8.rotations", "matrix_exp"),
    ("rotations.spinor_transform", "octo_so8.rotations", "spinor_transform"),
    ("splitrep.split_transform", "octo_so8.splitrep", "split_transform"),
    ("splitrep.audit_Y_blocks", "octo_so8.splitrep", "audit_Y_blocks"),
    ("octonion.verify_split_relations", "octo_so8.octonion",
     "verify_split_relations"),
    ("claims.run_all", "octo_so8.claims", "run_all"),
    ("claims.render", "octo_so8.claims", "to_json"),
    ("claims.render", "octo_so8.claims", "render_markdown"),
)
CALL_COUNTS = ("matrices.matmul", "matrices.gram", "rotations.invert_exact",
               "rotations.extract_components", "rotations.matrix_exp")
READINGS = ("sigma", "tensor")
SCALARS = ("Dyadic", "CDyadic", "CRational")


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_of(args), start, end, parent)
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer function and each claim checker."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "octo_so8" or n.startswith("octo_so8.")]
        for metric, modname, attr in LAYERS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._wrap(getattr(cls, meth),
                                                    lambda a, m=metric: m))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, lambda a, m=metric: m)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, name, wrapped)
        claims = sys.modules["octo_so8.claims"]
        wrapped = tuple(
            type(c)(c.id, c.anchor, self._wrap(
                c.checker, lambda a, cid=c.id: f"claims.{a[1].variant}.{cid}"))
            for c in claims.CLAIMS)
        self._replace(claims, "CLAIMS", wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def reset(self):
        self.spans.clear()

    def totals(self) -> tuple:
        """({name: summed self time}, {name: summed whole time},
        {name: calls}) over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, whole, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            whole[name] += end - start
            calls[name] += 1
        return own, whole, calls

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracer: Tracer, first_build: float) -> dict:
    """Per-layer metrics from one traced warm pass.  ``first_build`` is
    the beta_set self time of the traced warm-up, which built the
    generator sets.  A layer reports its self time; a claim, being a
    slice of run_all rather than a layer, reports its whole time."""
    own, whole, calls = tracer.totals()
    out = {"trace.spans": (len(tracer.spans), "count")}
    for metric in dict.fromkeys(m for m, _, _ in LAYERS):
        out[f"{metric}_s"] = (own.get(metric, 0.0), "s")
        if metric in CALL_COUNTS:
            out[f"{metric}_calls"] = (calls.get(metric, 0), "count")
    out["matrices.beta_set_s"] = (first_build, "s")
    ids = [c.id for c in sys.modules["octo_so8.claims"].CLAIMS]
    for reading in READINGS:
        for cid in ids:
            name = f"claims.{reading}.{cid}"
            out[f"{name}_s"] = (whole.get(name, 0.0), "s")
    return out


def call_counts(run_pass, package_dir: str) -> dict:
    """Python calls inside the package and exact-scalar constructions
    over one pass, counted by cProfile."""
    exact = sys.modules["octo_so8.exact"]
    inits = {(c.__init__.__code__.co_filename, c.__init__.__code__.co_firstlineno)
             for c in (getattr(exact, n) for n in SCALARS)}
    prof = cProfile.Profile(builtins=False)
    prof.enable()
    try:
        run_pass()
    finally:
        prof.disable()
    py_calls = scalar_inits = 0
    for (filename, line, _), (_, ncalls, *_) in pstats.Stats(prof).stats.items():
        if filename.startswith(package_dir):
            py_calls += ncalls
            if (filename, line) in inits:
                scalar_inits += ncalls
    return {"octo_so8.py_calls": (py_calls, "count"),
            "exact.scalar_inits": (scalar_inits, "count")}
