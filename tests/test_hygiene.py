"""Source hygiene of the package, read with ``ast`` alone: in each
module but ``__init__``, every imported name is used, every private
module-level name is referenced again, and every member of a private
module-level class is read as an attribute somewhere in the package, so
a deletion leaves no orphan import, helper or cached property behind.
No line of any module, ``__init__`` included, exceeds 79 columns."""

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


def _bound(body) -> set:
    """Names a module or class body binds by def, class or assignment."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _is_private(name) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private(tree) -> set:
    """Module-level names that start with one underscore."""
    return set(filter(_is_private, _bound(tree.body)))


def _unread_members(tree, read) -> set:
    """(class, member) for each non-dunder member of a private
    module-level class that is not among the attribute names read."""
    return {(node.name, m) for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_private(node.name)
            for m in _bound(node.body)
            if not (m.startswith("__") and m.endswith("__")) and m not in read}


def _attributes_read(trees) -> set:
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


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


def test_every_private_class_member_is_read():
    trees = [_parse(p.name) for p in SRC.glob("*.py")]
    read = _attributes_read(trees)
    assert sorted(set().union(*(_unread_members(t, read) for t in trees))) \
        == []


def test_no_line_exceeds_79_columns():
    long = [f"{p.name}:{k}" for p in sorted(SRC.glob("*.py"))
            for k, line in enumerate(p.read_text("utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []


def test_an_orphaned_import_and_helper_are_caught():
    tree = ast.parse("from os import path, sep\n"
                     "import functools as ft\n"
                     "_KEPT = 1\n_DROPPED = 2\n"
                     "def _orphan():\n    return _KEPT + len(sep)\n")
    assert _imported(tree) - _loaded(tree) == {"path", "ft"}
    assert _private(tree) - _loaded(tree) == {"_DROPPED", "_orphan"}


def test_an_unread_class_member_is_caught():
    tree = ast.parse("class _Ctx:\n    kept = 1\n    dropped = 2\n"
                     "    def __init__(self):\n        self.x = 0\n"
                     "    def _helper(self):\n        return 0\n"
                     "class Public:\n    unread = 3\n"
                     "print(_Ctx().kept)\n")
    assert _unread_members(tree, _attributes_read([tree])) == {
        ("_Ctx", "dropped"), ("_Ctx", "_helper")}
