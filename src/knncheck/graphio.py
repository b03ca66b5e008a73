"""Reader and writer for the .knng graph text format.

Layout (UTF-8, LF line endings):
  line 1            "knng 1 <n> <delta> <k_hint|0>"
  lines 2 .. n+1    delta space-separated decimal floats, row v in id order
  lines n+2 .. 2n+1 "<deg>" followed by <deg> vertex ids

Floats are written as their shortest round-tripping decimal, so graphs
round-trip bit-exactly. The writer formats each section in one call: the
coordinates by one %-format of repr, the adjacency lines from a table of
the id strings.

Reading takes one of two paths with the same result, a graph or an error.
Both read the header line with ``_header``. The bulk path converts each
section with a few array calls: coordinates by Python's float, as in the
per-line reader, and adjacency ids by one integer conversion. It takes
ASCII text that ends in a newline, has 2n+1 lines and no control byte but
tab, CR and LF, and whose adjacency tokens are runs of at most 18 decimal
digits. Any other text, and any text with a fault, goes to the per-line
reader. It reads signs, "_", non-ASCII digits and other whitespace
("\\x0b", "\\x1c", ...) as Python's int, float and str.split do, and it
alone reports faults in the body, with their line numbers. ``read_knng``
decodes UTF-8 and reads line ends as text mode does: CRLF and a lone CR
become LF.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import GeometricGraph, row_fault

__all__ = ["KnngFormatError", "graph_to_text", "graph_from_text", "write_knng", "read_knng"]

MAGIC = "knng"
FORMAT_VERSION = 1
_MAX_DIGITS = 18  # every run of this many decimal digits fits in int64


class KnngFormatError(ValueError):
    """Malformed .knng content, reported with the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def graph_to_text(graph: GeometricGraph) -> str:
    n = graph.n
    k_hint = graph.k_hint if graph.k_hint is not None else 0
    header = f"{MAGIC} {FORMAT_VERSION} {n} {graph.delta} {k_hint}\n"
    row = " ".join(["%r"] * graph.delta) + "\n"  # %r is repr: the shortest round trip
    coords = (row * n) % tuple(graph.coords.ravel().tolist())
    # each line is its degree, then its ids. Token t < n is "t " and t + n is
    # "t\n", which ends a line; degrees are at most n-1, as rows hold neither
    # repeats nor the vertex itself
    degs = graph.degrees
    deg_pos = graph.indptr[:-1] + np.arange(n)
    tokens = np.empty(n + graph.num_edges, dtype=np.int64)
    is_id = np.ones(tokens.size, dtype=bool)
    is_id[deg_pos] = False
    tokens[deg_pos] = degs
    tokens[is_id] = graph.indices
    tokens[deg_pos + degs] += n
    words = np.array([f"{i} " for i in range(n)] + [f"{i}\n" for i in range(n)], dtype=object)
    return header + coords + "".join(words[tokens].tolist())


def _header(line: str) -> tuple[int, int, int]:
    header = line.split()
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
    return n, delta, k_hint


def _bulk_graph(raw: bytes) -> GeometricGraph | None:
    """The graph in ``raw``, or None where the per-line reader must decide."""
    if not raw.endswith(b"\n") or not raw.isascii():
        return None
    head_end = raw.find(b"\n")
    n, delta, k_hint = _header(raw[:head_end].decode("ascii"))
    buf = np.frombuffer(raw, dtype=np.uint8)
    # below the space, only tab, LF and CR: then the separators are the
    # bytes up to the space, exactly the ones str.split() finds here
    if not np.isin(buf[buf < ord(" ")], list(b"\t\n\r")).all():
        return None
    newlines = np.flatnonzero(buf == ord("\n"))
    if newlines.size != 1 + 2 * n:
        return None

    # tokens start and end where the body switches between separators and
    # other bytes; it opens and closes with a newline, so the switches alternate
    is_sep = buf <= ord(" ")
    edges = np.flatnonzero(is_sep[head_end + 1 :] != is_sep[head_end:-1])
    edges += head_end + 1
    starts, ends = edges[0::2], edges[1::2]
    per_line = np.diff(np.searchsorted(starts, newlines))  # tokens on lines 2 .. 2n+1
    if not (per_line[:n] == delta).all():
        return None
    try:
        coords = np.fromiter(map(float, raw[head_end + 1 : newlines[n]].split()), np.float64, n * delta)
    except ValueError:
        return None

    # the adjacency section: tokens of at most _MAX_DIGITS digits, a degree first
    lo, hi = newlines[n] + 1, newlines[-1]
    section = buf[lo:hi]
    id_lines = per_line[n:]
    if (
        not ((section >= ord("0")) & (section <= ord("9")) | is_sep[lo:hi]).all()
        or id_lines.min() < 1
        or (ends[n * delta :] - starts[n * delta :]).max() > _MAX_DIGITS
    ):
        return None
    del is_sep, edges, starts, ends  # before the id arrays, to lower the peak
    values = np.fromstring(raw[lo:hi], dtype=np.int64, sep=" ")
    deg_pos = np.cumsum(id_lines) - id_lines
    degs = values[deg_pos]
    if not (degs == id_lines - 1).all():
        return None
    indptr = np.concatenate(([0], np.cumsum(degs)))
    try:
        return GeometricGraph(
            coords.reshape(n, delta), indptr, np.delete(values, deg_pos), k_hint=k_hint if k_hint > 0 else None
        )
    except ValueError:  # a non-finite coordinate or a faulty row
        return None


def _graph_from_lines(text: str) -> GeometricGraph:
    """The per-line reader: every file, every error with its line number."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise KnngFormatError(1, "empty file")
    n, delta, k_hint = _header(lines[0])
    if len(lines) != 1 + 2 * n:
        raise KnngFormatError(len(lines), f"expected {1 + 2 * n} lines for n={n}, found {len(lines)}")

    # collected, not preallocated: a huge delta in the header must fail on line 2
    rows = []
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
        rows.append(row)
    coords = np.array(rows, dtype=np.float64)

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


def graph_from_text(text: str) -> GeometricGraph:
    graph = _bulk_graph(text.encode("ascii")) if text.isascii() else None
    return graph if graph is not None else _graph_from_lines(text)


def write_knng(graph: GeometricGraph, path) -> None:
    Path(path).write_bytes(graph_to_text(graph).encode("utf-8"))


def read_knng(path) -> GeometricGraph:
    raw = Path(path).read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    graph = _bulk_graph(raw)
    if graph is not None:
        return graph
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KnngFormatError(raw.count(b"\n", 0, exc.start) + 1, f"invalid UTF-8: {exc.reason}") from None
    return _graph_from_lines(text)
