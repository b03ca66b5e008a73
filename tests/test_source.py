"""Checks on the package source itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import knncheck

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "knncheck"


def test_no_assert_statements():
    # python -O strips assert statements, and every invariant must hold under it
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_resolves():
    modules = [knncheck] + [
        importlib.import_module(f"knncheck.{info.name}")
        for info in pkgutil.iter_modules(knncheck.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    namespace = {}
    exec("from knncheck import *", namespace)
    assert set(knncheck.__all__) <= namespace.keys()


def _names_used(tree):
    """Every imported name, attribute and bare name in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def test_leaf_matching_goes_through_the_one_query():
    # the tester and the kernel match leaves through core.leaf_pairs only, never
    # through the box bound it is built on
    for name in ("tester.py", "exact.py"):
        used = set(_names_used(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))))
        assert "leaf_pairs" in used and "box_gap2" not in used, name
