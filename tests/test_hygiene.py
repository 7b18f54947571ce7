"""Source hygiene of the package, read with ``ast`` alone: in each
module but ``__init__``, every imported name is used and every private
module-level name is referenced again, so a deletion leaves no orphan
import or helper behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "octo_so8"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(name):
    return ast.parse((SRC / name).read_text("utf-8"), filename=name)


def _loaded(tree) -> set:
    """Every name the module reads."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imported(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def _private(tree) -> set:
    """Module-level names bound by def, class or assignment that start
    with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_modules_found():
    assert {"claims.py", "matrices.py", "rotations.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = _parse(name)
    assert sorted(_imported(tree) - _loaded(tree)) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_private_name_is_referenced(name):
    tree = _parse(name)
    assert sorted(_private(tree) - _loaded(tree)) == []


def test_an_orphaned_import_and_helper_are_caught():
    tree = ast.parse("from os import path, sep\n"
                     "import functools as ft\n"
                     "_KEPT = 1\n_DROPPED = 2\n"
                     "def _orphan():\n    return _KEPT + len(sep)\n")
    assert _imported(tree) - _loaded(tree) == {"path", "ft"}
    assert _private(tree) - _loaded(tree) == {"_DROPPED", "_orphan"}
