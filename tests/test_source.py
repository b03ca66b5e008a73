"""Checks on the package source itself."""

import ast
from pathlib import Path

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
