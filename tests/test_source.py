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
