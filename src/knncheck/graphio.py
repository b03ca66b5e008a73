"""Reader and writer for the .knng graph text format.

Layout (UTF-8, LF line endings):
  line 1            "knng 1 <n> <delta> <k_hint|0>"
  lines 2 .. n+1    delta space-separated decimal floats, row v in id order
  lines n+2 .. 2n+1 "<deg>" followed by <deg> vertex ids

Floats are written as their shortest round-tripping decimal, so graphs
round-trip bit-exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import GeometricGraph, row_fault

__all__ = ["KnngFormatError", "graph_to_text", "graph_from_text", "write_knng", "read_knng"]

MAGIC = "knng"
FORMAT_VERSION = 1


class KnngFormatError(ValueError):
    """Malformed .knng content, reported with the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def graph_to_text(graph: GeometricGraph) -> str:
    k_hint = graph.k_hint if graph.k_hint is not None else 0
    lines = [f"{MAGIC} {FORMAT_VERSION} {graph.n} {graph.delta} {k_hint}"]
    for row in graph.coords:
        lines.append(" ".join(repr(float(x)) for x in row))
    ids, bounds = graph.indices.tolist(), graph.indptr.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        lines.append(" ".join(map(str, [hi - lo, *ids[lo:hi]])))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> GeometricGraph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise KnngFormatError(1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != MAGIC:
        raise KnngFormatError(1, f"expected header '{MAGIC} {FORMAT_VERSION} <n> <delta> <k_hint|0>'")
    try:
        version, n, delta, k_hint = (int(tok) for tok in header[1:])
    except ValueError:
        raise KnngFormatError(1, "header fields must be integers") from None
    if version != FORMAT_VERSION:
        raise KnngFormatError(1, f"unsupported format version {version}")
    if n < 1:
        raise KnngFormatError(1, f"vertex count must be positive, got {n}")
    if delta < 1:
        raise KnngFormatError(1, f"dimension must be positive, got {delta}")
    if k_hint < 0:
        raise KnngFormatError(1, f"k_hint must be non-negative, got {k_hint}")
    if len(lines) != 1 + 2 * n:
        raise KnngFormatError(len(lines), f"expected {1 + 2 * n} lines for n={n}, found {len(lines)}")

    coords = np.empty((n, delta), dtype=np.float64)
    for v in range(n):
        lineno = 2 + v
        toks = lines[1 + v].split()
        if len(toks) != delta:
            raise KnngFormatError(lineno, f"expected {delta} coordinates, found {len(toks)}")
        try:
            row = [float(t) for t in toks]
        except ValueError:
            raise KnngFormatError(lineno, "coordinates must be decimal floats") from None
        if not all(np.isfinite(row)):
            raise KnngFormatError(lineno, "coordinates must be finite")
        coords[v] = row

    # one pass checks each line's syntax and declared degree; core's row check
    # runs on the rows before the first such fault, so the earlier line wins
    ids: list[int] = []
    ends = [0]
    fault = None
    for v, line in enumerate(lines[1 + n :]):
        toks = line.split()
        if not toks:
            fault = (v, "missing degree field")
            break
        try:
            deg, *nbrs = map(int, toks)
        except ValueError:
            fault = (v, "adjacency entries must be integers")
            break
        if deg < 0 or len(nbrs) != deg:
            fault = (v, f"declared degree {deg} but found {len(nbrs)} ids")
            break
        ids += nbrs
        ends.append(len(ids))
    indptr = np.array(ends, dtype=np.int64)
    try:
        indices = np.array(ids, dtype=np.int64)
    except OverflowError:  # such an id is out of range, and so is its clipped value
        indices = np.clip(np.array(ids, dtype=object), -1, n).astype(np.int64)
    fault = row_fault(n, indptr, indices) or fault
    if fault is not None:
        raise KnngFormatError(2 + n + fault[0], fault[1])

    return GeometricGraph(coords, indptr, indices, k_hint=k_hint if k_hint > 0 else None)


def write_knng(graph: GeometricGraph, path) -> None:
    Path(path).write_bytes(graph_to_text(graph).encode("utf-8"))


def read_knng(path) -> GeometricGraph:
    return graph_from_text(Path(path).read_text(encoding="utf-8"))
