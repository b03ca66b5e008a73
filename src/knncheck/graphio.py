"""Reader and writer for the .knng graph text format.

Layout (UTF-8, LF line endings):
  line 1            "knng 1 <n> <delta> <k_hint|0>"
  lines 2 .. n+1    delta space-separated decimal floats, row v in id order
  lines n+2 .. 2n+1 "<deg>" followed by <deg> vertex ids

Floats are written as their shortest round-tripping decimal, so graphs
round-trip bit-exactly. The writer makes the text a block of rows at a
time, coordinates by one %-format of repr and adjacency lines as digits
in a byte array, and ``write_knng`` streams the blocks, so it holds one
block, not the text.

Reading takes one of two paths with the same result, a graph or an error.
Both read the header line with ``_header``. The bulk path checks and
converts the body a block of whole lines (about 256 KB) at a time into
arrays allocated once, so it holds the text, the graph and one block:
coordinates by Python's float, as in the per-line reader, and adjacency
ids by integer conversion once a first pass has counted each row's ids. It
takes ASCII text that ends in a newline, has 2n+1 lines and no control
byte but tab, CR and LF after the header, and whose adjacency tokens are
runs of at most 18 decimal digits. Any other text, and any text with a
fault, goes to the per-line reader, whose memory no block bounds. It reads
signs, "_", non-ASCII digits and other whitespace ("\\x0b", "\\x1c", ...)
as Python's int, float and str.split do, and it alone reports faults in
the body, with their line numbers. ``read_knng`` decodes UTF-8 and reads
line ends as text mode does: CRLF and a lone CR become LF.
"""

from __future__ import annotations

import os
import shutil
import uuid
from pathlib import Path

import numpy as np

from .core import GeometricGraph, row_blocks, row_fault

__all__ = ["KnngFormatError", "graph_to_text", "graph_from_text", "write_knng", "read_knng"]

MAGIC = "knng"
FORMAT_VERSION = 1
_MAX_DIGITS = 18  # every run of this many decimal digits fits in int64
_BLOCK_BYTES = 1 << 18  # bytes of whole lines the bulk reader checks and converts at once
_WRITE_BLOCK = 1 << 15  # rows plus numbers per piece of written text


class KnngFormatError(ValueError):
    """Malformed .knng content, reported with the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _text_pieces(graph: GeometricGraph):
    """The .knng text of ``graph`` in pieces of about _WRITE_BLOCK rows plus numbers each."""
    n, delta, indptr = graph.n, graph.delta, graph.indptr
    yield f"{MAGIC} {FORMAT_VERSION} {n} {delta} {graph.k_hint or 0}\n"
    rows = max(1, _WRITE_BLOCK // delta)
    row = " ".join(["%r"] * delta) + "\n"  # %r is repr: the shortest round trip
    for a in range(0, n, rows):
        yield (row * min(rows, n - a)) % tuple(graph.coords[a : a + rows].ravel().tolist())
    for a, b in row_blocks(indptr, _WRITE_BLOCK):
        lo = indptr[a]  # each adjacency line is its degree, then its ids
        tokens = np.insert(graph.indices[lo : indptr[b]], indptr[a:b] - lo, graph.degrees[a:b])
        digits = sum((tokens >= 10**e for e in range(1, len(str(tokens.max())))), np.ones_like(tokens))
        ends = np.cumsum(digits + 1)  # token j's digits, then a space or, where a line ends, a newline
        text = np.full(ends[-1], ord(" "), dtype=np.uint8)
        text[ends[indptr[a + 1 : b + 1] - lo + np.arange(b - a)] - 1] = ord("\n")
        pos = ends - 2
        while tokens.size:  # the last digit not yet written of each token
            text[pos], tokens = tokens % 10 + ord("0"), tokens // 10
            pos, tokens = pos[tokens > 0] - 1, tokens[tokens > 0]
        yield text.tobytes().decode("ascii")


def graph_to_text(graph: GeometricGraph) -> str:
    return "".join(_text_pieces(graph))


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


def _line_blocks(raw: bytes, pos: int, lines: int):
    """Runs of about _BLOCK_BYTES, or of one line, over the next ``lines`` lines from offset ``pos``.

    Yields (first line, start, stop, tokens per line, longest token); the
    tokens per line are None if the run holds a control byte but tab, LF, CR.
    """
    first = 0
    while first < lines:
        stop = raw.rfind(b"\n", pos, pos + _BLOCK_BYTES) + 1 or raw.find(b"\n", pos + _BLOCK_BYTES) + 1
        block = np.frombuffer(raw, np.uint8, stop - pos, pos)
        newlines = np.flatnonzero(block == ord("\n"))[: lines - first]
        block = block[: newlines[-1] + 1]
        # tokens start and end where the run switches between separators and
        # other bytes; a newline comes before it and ends it, so the switches
        # alternate. Below the space, only tab, LF and CR may occur: then the
        # separators are the bytes up to the space, exactly those str.split() finds
        edges = np.flatnonzero(np.diff(block <= ord(" "), prepend=True))
        per_line = np.diff(np.searchsorted(edges[0::2], newlines), prepend=0)
        if not np.isin(block[block < ord(" ")], list(b"\t\n\r")).all():
            per_line = None
        yield first, pos, pos + block.size, per_line, np.diff(edges)[::2].max(initial=0)
        first, pos = first + newlines.size, pos + block.size


def _bulk_graph(raw: bytes) -> GeometricGraph | None:
    """The graph in ``raw``, or None where the per-line reader must decide."""
    if not raw.endswith(b"\n") or not raw.isascii():
        return None
    head_end = raw.find(b"\n")
    n, delta, k_hint = _header(raw[:head_end].decode("ascii"))
    # a coordinate takes at least two bytes, so a header that lies allocates nothing
    if raw.count(b"\n") != 1 + 2 * n or 2 * n * delta > len(raw):
        return None
    coords = np.empty((n, delta))
    for v, start, end, per_line, _ in _line_blocks(raw, head_end + 1, n):
        if per_line is None or (per_line != delta).any():
            return None
        try:
            coords[v : v + per_line.size].flat = np.fromiter(map(float, raw[start:end].split()), np.float64)
        except ValueError:
            return None
    # the adjacency section: tokens of at most _MAX_DIGITS digits, a degree
    # first; one pass checks them and counts each row's ids, a second converts
    blocks, indptr = [], np.zeros(n + 1, dtype=np.int64)
    for v, start, stop, per_line, longest in _line_blocks(raw, end, n):
        block = np.frombuffer(raw, np.uint8, stop - start, start)
        if (per_line is None or per_line.min() < 1 or longest > _MAX_DIGITS
                or not ((block >= ord("0")) & (block <= ord("9")) | (block <= ord(" "))).all()):
            return None
        indptr[1 + v : 1 + v + per_line.size] = per_line - 1
        blocks.append((start, stop, v, v + per_line.size))
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int64)
    for start, stop, a, b in blocks:
        values = np.fromstring(raw[start:stop], dtype=np.int64, sep=" ")
        deg_pos = indptr[a:b] - indptr[a] + np.arange(b - a)
        if not (values[deg_pos] == np.diff(indptr[a : b + 1])).all():
            return None
        indices[indptr[a] : indptr[b]] = np.delete(values, deg_pos)
    try:
        return GeometricGraph(coords, indptr, indices, k_hint=k_hint if k_hint > 0 else None)
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
    """Write ``graph`` a piece at a time to a file beside ``path`` that replaces it once whole.

    An interrupted write leaves ``path`` as it was; a pipe or a device is written directly.
    """
    path, real = Path(path), os.path.realpath(path)
    direct = path.exists() and not path.is_file()
    tmp = path if direct else Path(f"{real}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.writelines(piece.encode("ascii") for piece in _text_pieces(graph))
        if not direct:
            if path.exists():  # the new file takes the old one's permissions
                shutil.copymode(real, tmp)
            os.replace(tmp, real)
    finally:
        if not direct:
            tmp.unlink(missing_ok=True)


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
