"""Reader and writer for the .knng graph text format.

Layout (UTF-8, LF line endings):
  line 1            "knng 1 <n> <delta> <k_hint|0>"
  lines 2 .. n+1    delta space-separated decimal floats, row v in id order
  lines n+2 .. 2n+1 "<deg>" followed by <deg> vertex ids

Floats are written as repr writes them, the shortest decimals that round
trip, so graphs round-trip bit-exactly. The writer makes the text in numpy
a block of rows at a time, as bytes equal to repr's and str's byte for
byte, and ``write_knng`` streams the blocks, so it holds one block, not the
text: coordinates by a Schubfach kernel, subnormals included, and degrees
and ids through a digit table whose size does not depend on n, both
cross-checked against references in tests/helpers.py.

The reader holds the text, the graph and one block of whole lines (about
256 KB) whatever the file: coordinates by Python's float on a block's
tokens, and ids, once a first pass has counted each row's, by numpy where
they are runs of at most 18 digits. Other blocks, split first around odd
bytes, are read line by line as Python's int, float and str.split read
them, and the first faulty line is reported. ``read_knng`` checks UTF-8
first and reads CRLF and a lone CR as LF.
"""

from __future__ import annotations

import contextlib
import math
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
_BLOCK_BYTES = 1 << 18  # bytes of whole lines the reader checks and converts at once
# the bytes of a block of coordinates, and of ids, that numpy reads
_COORDINATE_BYTES, _ADJACENCY_BYTES = bytes(range(32, 128)) + b"\t\n\r", b"0123456789 \t\n\r"
_WRITE_BLOCK = 1 << 14  # rows plus numbers per piece of written text


class KnngFormatError(ValueError):
    """Malformed .knng content, reported with the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# Schubfach's g(k) = floor(beta) + 1 for k in [-324, 292], where 10**-k = beta 2**r, 2**125 <= beta < 2**126
_G = np.array([[g >> 63, g & (1 << 63) - 1] for g in (
    (t << 126 >> t.bit_length()) + 1 if k <= 0 else (1 << 125 + t.bit_length()) // t + 1
    for k, t in ((k, 10 ** abs(k)) for k in range(-324, 293)))], dtype=np.uint64).T.copy()
_POW10 = 10 ** np.arange(18)
_DIGITS4 = sum((np.arange(10**4) // 10 ** (3 - j) % 10 + 48 << 8 * j).astype(np.uint64) for j in range(4))


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, digits, point) for finite x > 0: 0.f 10**point, f of ``digits`` digits, is the shortest decimal
    that rounds to x, the nearest such with ties to even, by Schubfach (R. Giulietti, "The Schubfach
    way to render doubles", 2020), with products rounded to odd from 32-bit halves."""
    bits = x.view(np.uint64)
    e = np.maximum(bits >> 52, 1)  # a subnormal has the exponent of 2**-1022 and no hidden bit
    q, c = e.view(np.int64) - 1075, bits - (e - 1 << 52)
    irregular = (c == 1 << 52) & (q > -1074)  # the gap below a power of two is half the gap above
    k = q * 661971961083 - irregular * 274743187321 >> 41  # floor(log10(2**q)), or of 3/4 2**q
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g1, g0 = _G[0].take(k + 324), _G[1].take(k + 324)
    halves = g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF

    def rop(cp):  # (g1 2**63 + g0) cp / 2**127 rounded down, bit 0 set where that was inexact
        (a1, a0, b1, b0), c1, c0 = halves, cp >> 32, cp & 0xFFFFFFFF
        mid = b1 * c0 + (b0 * c0 >> 32)
        x1 = b1 * c1 + (mid >> 32) + (b0 * c1 + (mid & 0xFFFFFFFF) >> 32)  # the high 64 bits of g0 cp
        mid = a1 * c0 + (a0 * c0 >> 32)
        y1 = a1 * c1 + (mid >> 32) + (a0 * c1 + (mid & 0xFFFFFFFF) >> 32)  # of g1 cp
        z = (g1 * cp >> 1) + x1
        return y1 + (z >> 63) | (z & 0x7FFFFFFFFFFFFFFF) + 0x7FFFFFFFFFFFFFFF >> 63

    cb = c << 2
    vb, vbl, vbr = rop(cb << h), rop(cb - 2 + irregular << h), rop(cb + 2 << h)
    odd, s = c & 1, vb >> 2
    s10 = s // 10 * 10  # s10 and s10 + 10 have one digit less than s
    up, wp = vbl + odd <= s10 << 2, (s10 + 10 << 2) + odd <= vbr
    u, w = vbl + odd <= s << 2, (s + 1 << 2) + odd <= vbr
    down = u & ~w | (vb < 4 * s + 2 + (s & 1 == 0)) & (u == w)  # s, not s + 1: below s + 1/2, or on it with s even
    f = (s + ~down).view(np.int64)
    np.copyto(f, s10.view(np.int64) + 10 * wp, where=up != wp)
    # a normal x has 16 or 17 digits here; a subnormal's are counted
    digits = 16 + (f >= 10**16)
    sub = np.flatnonzero(bits < 1 << 52)
    digits[sub] = np.searchsorted(_POW10, f[sub], side="right")
    point = k + digits
    for p in 16, 8, 4, 2, 1:  # drop the trailing zeros
        r = f // 10**p
        zeros = r * 10**p == f
        np.copyto(f, r, where=zeros)
        digits -= p * zeros
    return f, digits, point


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` >= 0 in decimal, zero-padded, to end each row of little-endian uint64 ``out``."""
    for j in reversed(range(out.shape[1])):
        q = values // 10**8 if j else 0
        r = values - q * 10**8 if j else values
        r4 = r // 10**4
        out[:, j] = _DIGITS4.take(r4) | _DIGITS4.take(r - r4 * 10**4) << 32
        values = q


def _concat(rows: np.ndarray, lengths: np.ndarray) -> bytes:
    """The last ``lengths[i]`` bytes of each uint64 row, rows[0] last. Each row is written to end where its
    piece ends, rows[0] first: its bytes before the piece fall on earlier pieces, written after it."""
    size = rows.shape[1] * 8
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    buf = np.empty(total + size, np.uint8)
    windows = np.ndarray((total + 1,), f"S{size}", buf, 0, (1,))  # windows[i] is buf[i : i + size]
    windows[lengths - ends + total] = rows.view(f"S{size}").ravel()
    return buf[size:].tobytes()


def _float_text(x: np.ndarray, delta: int) -> bytes:
    """Rows of ``delta`` of the finite floats ``x``, each as repr writes it."""
    x = np.ascontiguousarray(x[::-1])  # for _concat, which takes the text's pieces last first
    neg, zero = np.signbit(x), x == 0
    f, digits, point = _shortest(np.abs(x) + zero)  # zero as 1, whose digits are then cleared
    sci = (point < -3) | (point > 16)  # as repr: d.ddde+XX, else ddd.ddd with ".0" on integral values
    tail = np.where(sci, digits - 1, np.maximum(digits - point, 1))  # the digits after the point
    head = np.where(sci, 1, np.maximum(point, 1))  # and before it
    shown = f * _POW10.take(np.where(sci, 0, np.maximum(point - digits + 1, 0))) * ~zero  # as one number
    scale = _POW10.take(np.minimum(tail, 17))
    hi = shown // scale
    # per float, two rows of 24 bytes: the point, fraction, exponent and separator; the sign and integer digits
    words = np.empty((x.size, 2, 3), "<u8")
    frac, text, at = words[:, 0], words.view(np.uint8).ravel(), np.arange(0, 48 * x.size, 48)
    _digits(shown - hi * scale, frac)
    text[at + 23 - tail] = ord(".")
    exp, sep = np.abs(point - 1), np.resize(np.array([10] + [32] * (delta - 1), np.uint64), x.size)  # "\n" ends rows
    big, minus = (exp >= 100).astype(np.uint64) * 8, (point <= 0).astype(np.uint64)  # a third exponent digit
    end = (_DIGITS4.take(exp) >> 16 - big << 16 | ord("e") | 43 + 2 * minus << 8) * sci << 24 - big | sep << 56
    shift = 8 + sci * (32 + big)  # the exponent and separator come after the fraction
    for j in 0, 1:
        frac[:, j] = frac[:, j] >> shift | frac[:, j + 1] << 64 - shift
    frac[:, 2] = frac[:, 2] >> shift | end
    _digits(hi, words[:, 1, -1 - len(str(hi.max())) // 8 :])  # the words before are never shown
    text[at + 47 - head] = ord("0") - 3 * neg  # "-" where negative
    lengths = np.stack([tail + (tail > 0) + (shift // 8).view(np.int64), head + neg], axis=1)
    return _concat(words.reshape(-1, 3), lengths.ravel())


def _int_text(tokens: np.ndarray, line_ends: np.ndarray) -> bytes:
    """The int64 ``tokens`` >= 0 in decimal, each followed by a space, or by a newline at ``line_ends``."""
    width = len(str(tokens.max())) + 1  # the longest token's digits and separator
    t = np.ascontiguousarray(tokens[::-1])  # for _concat, which takes the text's pieces last first
    rows = np.empty((t.size, -(-width // 8)), "<u8")
    high = t // 10**7 if rows.shape[1] > 1 else 0
    _digits(high, rows[:, :-1])
    _digits((t - high * 10**7) * 10, rows[:, -1:])  # the last digit, 0, makes room for the separator
    text = rows.view(np.uint8)
    text[:, -1] = ord(" ")
    text[t.size - 1 - line_ends, -1] = ord("\n")
    lengths = sum(((t >= 10**e).view(np.uint8) for e in range(1, width - 1)), np.full(t.size, 2, np.uint8))
    return _concat(rows, lengths)


def _text_pieces(graph: GeometricGraph):
    """The .knng text of ``graph`` in pieces of about _WRITE_BLOCK rows plus numbers each, as bytes."""
    n, delta, indptr = graph.n, graph.delta, graph.indptr
    yield f"{MAGIC} {FORMAT_VERSION} {n} {delta} {graph.k_hint or 0}\n".encode("ascii")
    rows = max(1, _WRITE_BLOCK // delta)
    for a in range(0, n, rows):
        yield _float_text(graph.coords[a : a + rows].ravel(), delta)
    for a, b in row_blocks(indptr, _WRITE_BLOCK):
        lo = indptr[a]  # each adjacency line is its degree, then its ids
        tokens = np.insert(graph.indices[lo : indptr[b]], indptr[a:b] - lo, graph.degrees[a:b])
        yield _int_text(tokens, indptr[a + 1 : b + 1] - lo + np.arange(b - a))


def graph_to_text(graph: GeometricGraph) -> str:
    return b"".join(_text_pieces(graph)).decode("ascii")


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


def _runs(raw: bytes, pos: int, lines: int, allowed: bytes, size: int):
    """(first line, start, bytes, newline offsets, odd) of runs of about ``size`` bytes, or of one line, over the
    next ``lines`` lines from ``pos``; odd where a run has a byte not in ``allowed``."""
    first = 0
    while first < lines:
        stop = raw.rfind(b"\n", pos, pos + size) + 1 or raw.find(b"\n", pos + size) + 1
        block = np.frombuffer(raw, np.uint8, stop - pos, pos)
        newlines = np.flatnonzero(block == ord("\n"))[: lines - first]
        block = block[: newlines[-1] + 1]
        yield first, pos, block, newlines, bool(raw[pos : pos + block.size].translate(None, allowed))
        first, pos = first + newlines.size, pos + block.size


def _line_blocks(raw: bytes, pos: int, lines: int, allowed: bytes):
    """Runs of about _BLOCK_BYTES bytes, or of one line, over the next ``lines`` lines from ``pos``, as
    (first line, start, stop, tokens per line, longest token). A run with a byte not in ``allowed`` is split
    into runs of an eighth of its size, down to _BLOCK_BYTES / 64, or no further once every eighth has such a
    byte too; a run left with one has None tokens per line."""
    for run in _runs(raw, pos, lines, allowed, _BLOCK_BYTES):
        yield from _pieces(raw, *run, allowed, _BLOCK_BYTES)


def _pieces(raw: bytes, first: int, start: int, block: np.ndarray, newlines: np.ndarray, odd: bool, allowed: bytes,
            size: int):
    """What :func:`_line_blocks` yields for one run of about ``size`` bytes."""
    if not odd:
        # tokens start and end where the run switches between separators and other bytes; a newline
        # comes before it and ends it, so the switches alternate. Below the space, only tab, LF and CR
        # may be allowed: then the separators are the bytes up to the space, those str.split() finds
        edges = np.flatnonzero(np.diff(block <= ord(" "), prepend=True))
        per_line = np.diff(np.searchsorted(edges[0::2], newlines), prepend=0)
        yield first, start, start + block.size, per_line, np.diff(edges)[::2].max(initial=0)
        return
    parts = list(_runs(raw, start, newlines.size, allowed, size // 8)) if size > _BLOCK_BYTES >> 6 else []
    if not parts:
        yield first, start, start + block.size, None, 0
    # eighths that are all odd are split no further
    size = 0 if all(part[-1] for part in parts) else size // 8
    for v, *part in parts:
        yield from _pieces(raw, first + v, *part, allowed, size)


def _lines(chunk: bytes) -> list[str]:
    return chunk.decode("utf-8", "surrogatepass").split("\n")[:-1]


def _coordinate_lines(chunk: bytes, lineno: int, delta: int) -> list[list[float]]:
    """The coordinate rows of ``chunk``'s lines, the first at ``lineno``, read as Python reads them."""
    rows = []
    for lineno, line in enumerate(_lines(chunk), lineno):
        toks = line.split()
        if len(toks) != delta:
            raise KnngFormatError(lineno, f"expected {delta} coordinates, found {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise KnngFormatError(lineno, "coordinates must be decimal floats") from None
        if not all(map(math.isfinite, rows[-1])):
            raise KnngFormatError(lineno, "coordinates must be finite")
    return rows


def _adjacency_lines(chunk: bytes, v: int, n: int) -> tuple[list[int], list[int], tuple[int, str] | None]:
    """The ids of ``chunk``'s adjacency lines, the first row ``v``'s, as Python reads them, up to the first syntax
    fault, their count per line, and that fault as (row, message) or None; a row with an id beyond int64 is
    clipped to [-1, n]."""
    ids, counts = [], []
    for v, line in enumerate(_lines(chunk), v):
        toks = line.split()
        try:
            deg, *nbrs = map(int, toks)
        except ValueError:
            return ids, counts, (v, "adjacency entries must be integers" if toks else "missing degree field")
        if deg < 0 or len(nbrs) != deg:
            return ids, counts, (v, f"declared degree {deg} but found {len(nbrs)} ids")
        ids += nbrs if max(map(abs, nbrs), default=0) >> 63 == 0 else [min(max(u, -1), n) for u in nbrs]
        counts.append(deg)
    return ids, counts, None


def _graph(raw: bytes) -> GeometricGraph:
    """The graph in ``raw``, UTF-8 lines that each end in a newline; the first faulty line raises."""
    if not raw:
        raise KnngFormatError(1, "empty file")
    head_end = raw.find(b"\n")
    n, delta, k_hint = _header(raw[:head_end].decode("utf-8", "surrogatepass"))
    lines = raw.count(b"\n")
    if lines != 1 + 2 * n:
        raise KnngFormatError(lines, f"expected {1 + 2 * n} lines for n={n}, found {lines}")

    # n lines of delta coordinates take 2 n delta bytes or more: a header that lies allocates nothing
    coords = np.empty((n, delta)) if 2 * n * delta <= len(raw) else None
    for v, start, end, per_line, _ in _line_blocks(raw, head_end + 1, n, _COORDINATE_BYTES):
        rows = None
        if per_line is not None and (per_line == delta).all():
            with contextlib.suppress(ValueError):
                rows = np.fromiter(map(float, raw[start:end].split()), np.float64).reshape(-1, delta)
        if rows is None or not np.isfinite(rows).all():
            rows = _coordinate_lines(raw[start:end], 2 + v, delta)
        if coords is not None:
            coords[v : v + len(rows)] = rows

    # the adjacency section: one pass counts each row's ids, reading the runs numpy cannot read up to
    # the first syntax fault in them, and a second converts and checks the others; a run of at most
    # _MAX_DIGITS-digit tokens goes to numpy
    spans, indptr = [], np.zeros(n + 1, dtype=np.int64)
    for v, start, stop, per_line, longest in _line_blocks(raw, end, n, _ADJACENCY_BYTES):
        if per_line is not None and per_line.min() >= 1 and longest <= _MAX_DIGITS:
            ids, counts, fault = None, per_line - 1, None
        else:
            ids, counts, fault = _adjacency_lines(raw[start:stop], v, n)
            ids = np.array(ids, dtype=np.int64)
            if ids.size and -(2**31) <= ids.min() and ids.max() < 2**31:
                ids = ids.astype(np.int32)  # half the memory until the second pass writes them
        indptr[1 + v : 1 + v + len(counts)] = counts
        spans.append((start, stop, v, v + len(counts), ids, fault))
        if fault is not None:
            break
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int64)
    for start, stop, a, b, ids, fault in spans:
        if ids is None:
            values = np.fromstring(raw[start:stop], dtype=np.int64, sep=" ")
            deg_pos = indptr[a:b] - indptr[a] + np.arange(b - a)
            if (values[deg_pos] == np.diff(indptr[a : b + 1])).all():
                indices[indptr[a] : indptr[b]] = np.delete(values, deg_pos)
                continue
            ids, _, fault = _adjacency_lines(raw[start:stop], a, n)  # a fault, or ids numpy cannot read
        indices[indptr[a] : indptr[a] + len(ids)] = ids
        if fault is not None:
            break
    # a row fault before the first syntax fault comes first
    fault = row_fault(n, indptr[: 1 + (n if fault is None else fault[0])], indices) or fault
    if fault is not None:
        raise KnngFormatError(2 + n + fault[0], fault[1])
    return GeometricGraph._of_valid_rows(coords, indptr, indices, k_hint=k_hint if k_hint > 0 else None)


def graph_from_text(text: str) -> GeometricGraph:
    return _graph((text + "\n" if text and text[-1] != "\n" else text).encode("utf-8", "surrogatepass"))


def write_knng(graph: GeometricGraph, path) -> None:
    """Write ``graph`` a piece at a time to a file beside ``path`` that replaces it once whole.

    An interrupted write leaves ``path`` as it was; a pipe or a device is written directly.
    """
    path, real = Path(path), os.path.realpath(path)
    direct = path.exists() and not path.is_file()
    tmp = path if direct else Path(f"{real}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.writelines(_text_pieces(graph))
        if not direct:
            if path.exists():  # the new file takes the old one's permissions
                shutil.copymode(real, tmp)
            os.replace(tmp, real)
    finally:
        if not direct:
            tmp.unlink(missing_ok=True)


def read_knng(path) -> GeometricGraph:
    raw = Path(path).read_bytes()
    if b"\r" in raw:  # in two steps, so at most two copies of the text are alive
        raw = raw.replace(b"\r\n", b"\n")
        raw = raw.replace(b"\r", b"\n")
    pos = 0 if not raw.isascii() else len(raw)  # UTF-8 is checked first, a block of whole lines at a time
    while pos < len(raw):
        stop = raw.find(b"\n", pos + _BLOCK_BYTES) + 1 or len(raw)
        try:
            raw[pos:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise KnngFormatError(raw.count(b"\n", 0, pos + exc.start) + 1, f"invalid UTF-8: {exc.reason}") from None
        pos = stop
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"  # here, so the text it copies is freed before the graph's arrays exist
    return _graph(raw)
