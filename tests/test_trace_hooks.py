"""The names that perfbench/tracer.py wraps must keep resolving.

``perfbench/run.py --trace 1`` wraps every function or method listed in
the tracer's ``LAYERS`` and counts calls to the ``__init__`` of every
scalar class in its ``SCALARS``.  These tests read the tracer as it is,
so a simplification of the package that drops or renames one of those
names fails here instead of in the benchmark.
"""

import contextlib
import importlib
import importlib.util
import io
import types
from pathlib import Path

import pytest

import octo_so8
from octo_so8.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("metric, modname, attr", tracer.LAYERS)
def test_layer_resolves(metric, modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), metric


@pytest.mark.parametrize("name", tracer.SCALARS)
def test_scalar_has_python_init(name):
    cls = getattr(importlib.import_module("octo_so8.exact"), name)
    assert isinstance(cls.__init__.__code__, types.CodeType)


def test_traced_pass_counts_scalars():
    package_dir = str(Path(octo_so8.__file__).parent)
    argv = ["rotate", "1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"]

    def run_pass():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    t = tracer.Tracer()
    t.install()
    try:
        counts = tracer.call_counts(run_pass, package_dir)
    finally:
        t.uninstall()
    _, _, calls = t.totals()
    assert calls["rotations.rotate_exact"] == 1
    assert counts["exact.scalar_inits"][0] > 0
