"""Checks on the package source itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import knncheck
from knncheck import exact, tester

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
    """Every part of an imported name or module, attribute and bare name in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            yield from (part for name in dotted for part in name.split("."))
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


def test_distances_go_through_core():
    # the exact report counts hits by comparing its edge distances with the
    # kernel's k-th distances, and the scan re-checks its candidates against
    # r_k, so both must square and sum only through core's arithmetic
    banned = {"square", "power", "einsum", "dot", "vdot", "inner", "matmul", "linalg", "hypot"}
    for name in ("tester.py", "exact.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        ops = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign))
               and isinstance(node.op, (ast.Pow, ast.MatMult))]
        assert ops == [] and banned.isdisjoint(_names_used(tree)), name


def test_scan_blocks_keep_the_probe_within_the_budget():
    # a block after block 0 holds at most _PAIR_FLOATS // _LEAF_SIZE rows, and
    # the probe pairs each row with _PROBE draws of T, so its distances fit the
    # float budget of a block; block 0 holds the first row that reads T, S
    # position 0, or 1 when T's one value is S position 0
    assert tester._PROBE <= tester._LEAF_SIZE
    assert 2 <= tester._FIRST_BLOCK and tester._FIRST_BLOCK * tester._PROBE <= tester._PAIR_FLOATS


def test_kernel_selections_hold_at_most_one_unit_of_rows(monkeypatch):
    # _select ranks each selection's hits in one padded row per row, and the
    # kernel passes it at most one unit's rows, _UNIT_ROWS of them
    sizes, select = [], exact._select

    def recording(coords, rows, cand, k, bound):
        sizes.append(rows.size)
        return select(coords, rows, cand, k, bound)

    monkeypatch.setattr(exact, "_select", recording)
    rng = np.random.default_rng(32)
    for n, delta, k in ((9, 1, 8), (3000, 2, 10), (1000, 8, 5)):
        exact.NeighborhoodProfile(rng.random((n, delta)), k)
    assert sizes and max(sizes) <= exact._UNIT_ROWS
