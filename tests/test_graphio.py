"""The .knng text format: round trips and line-numbered rejection."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    circulant_graph,
    graph_from_rows,
    reference_coordinate_lines,
    reference_graph_from_text,
    reference_graph_to_text,
    reference_token_text,
)
from knncheck import core, graphio
from knncheck.core import GeometricGraph
from knncheck.exact import build_exact_knn_graph
from knncheck.generators import line_gadget, sample_d2, tight_witness_construction
from knncheck.graphio import (
    KnngFormatError,
    graph_from_text,
    graph_to_text,
    read_knng,
    write_knng,
)


def _random_graph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    delta = int(rng.integers(1, 5))
    # mix of awkward magnitudes, negative zero included
    coords = rng.normal(size=(n, delta)) * 10.0 ** rng.integers(-12, 12, size=(n, delta))
    coords[0, 0] = -0.0
    adjacency = []
    for v in range(n):
        deg = int(rng.integers(0, n))
        others = np.array([u for u in range(n) if u != v])
        rng.shuffle(others)
        adjacency.append(others[:deg].astype(np.int64))
    k_hint = int(rng.integers(1, 5)) if rng.random() < 0.5 else None
    return graph_from_rows(coords, tuple(adjacency), k_hint=k_hint)


@pytest.mark.parametrize("seed", range(20))
def test_random_graphs_round_trip_bit_exactly(seed):
    g = _random_graph(seed)
    assert graph_to_text(g) == reference_graph_to_text(g)
    assert graph_from_text(graph_to_text(g)).equals(g)


def test_text_round_trip_is_stable():
    g = _random_graph(99)
    text = graph_to_text(g)
    assert graph_to_text(graph_from_text(text)) == text


def test_generator_outputs_round_trip():
    for g in (
        line_gadget(3.25, 2),
        sample_d2(24, 2, 0.21, seed=4),
        tight_witness_construction(3, 2)[0],
        build_exact_knn_graph(np.random.default_rng(0).random((12, 2)), 3),
    ):
        assert graph_to_text(g) == reference_graph_to_text(g)
        assert graph_from_text(graph_to_text(g)).equals(g)


def _coordinate_graph(coords):
    """A graph with these coordinates and no edges."""
    return GeometricGraph(coords, np.zeros(len(coords) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinates_are_written_as_repr_writes_them(data):
    """Any finite floats: subnormals, signed zeros and the extremes."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    shape = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 4))
    g = _coordinate_graph(data.draw(arrays(np.float64, shape, elements=floats)))
    assert graph_to_text(g) == reference_graph_to_text(g)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tokens_are_written_as_str_writes_them(data):
    """int64 values of every length from 1 to 19 digits, 0 included, in lines of any length."""
    length = st.integers(1, 19).flatmap(lambda d: st.integers(10 ** (d - 1) * (d > 1), min(10**d, 2**63) - 1))
    values = data.draw(st.lists(length | st.just(0), min_size=1, max_size=50))
    last = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    last[-1] = True  # whether each token ends its line
    tokens, ends = np.array(values, dtype=np.int64), np.flatnonzero(last)
    want = "".join(f"{v}{chr(10) if end else ' '}" for v, end in zip(values, last))
    assert graphio._int_text(tokens, ends).decode("ascii") == want == reference_token_text(tokens, ends)


def _float_corpus() -> np.ndarray:
    """Floats where a shortest-digit writer errs first, each with both neighbours, and 2**20 random normal ones."""
    rng = np.random.default_rng(2029)
    special = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),  # below a power of two the spacing halves
        [float(f"1e{i}") for i in range(-323, 309)],
        [1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0],  # where repr changes notation, and its largest fixed
        np.arange(2**12, dtype=np.float64),
        rng.integers(0, 2**53, 2**12, endpoint=True).astype(np.float64),
        rng.integers(0, 10**7, 2**12) / 10.0 ** rng.integers(0, 12, 2**12),  # short decimals
        np.arange(1, 2**12, dtype=np.uint64).view(np.float64),  # the smallest subnormals
        rng.integers(1, 2**52, 2**12, dtype=np.uint64).view(np.float64),  # and random ones
    ])
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        special = np.concatenate([special, np.nextafter(special, np.inf), np.nextafter(special, -np.inf)])
    special = special[np.isfinite(special)]
    bits = rng.integers(0, 2**52, 2**20, dtype=np.uint64)  # a significand, then a normal exponent and a sign
    bits |= rng.integers(1, 2047, 2**20, dtype=np.uint64) << 52 | rng.integers(0, 2, 2**20, dtype=np.uint64) << 63
    return np.concatenate([special, -special, bits.view(np.float64)])


def test_coordinates_of_a_float_corpus_are_written_as_repr_writes_them():
    x = np.random.default_rng(2030).permutation(_float_corpus())  # subnormal and normal values share blocks
    coords = np.resize(x, (-(-x.size // 4), 4))
    lines = graph_to_text(_coordinate_graph(coords)).split("\n")[1 : 1 + len(coords)]
    assert "\n".join(lines) + "\n" == reference_coordinate_lines(coords)


def test_the_kernel_writes_subnormals_as_repr_writes_them():
    # a subnormal has no hidden bit and the exponent of 2**-1022; like repr, and unlike
    # Java's two-digit minimum (7.9e-323, 9.9e-323), the kernel takes the shortest decimal
    g = _coordinate_graph(np.array([[8e-323, 0.1], [1e-322, -2.5], [-5e-324, 1e300]]))
    assert graph_to_text(g).split("\n")[1:4] == ["8e-323 0.1", "1e-322 -2.5", "-5e-324 1e+300"]
    assert graph_to_text(g) == reference_graph_to_text(g)


def test_the_digit_count_of_normal_subnormal_zero_and_huge_floats():
    # a normal float's digits are counted as 16 or 17, a subnormal's by its value; the
    # smallest and largest of each, powers of ten and the values next to them, both zeros
    edges = [5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-308, 1e-16, 1e16, 1e17,
             9007199254740993.0, 1.7976931348623157e308, 8.98846567431158e307, 1e308, 0.0, -0.0]
    tens = 10.0 ** np.arange(-323, 309)
    values = np.concatenate([edges, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    values = np.concatenate([values, -values, np.random.default_rng(4).integers(1, 1 << 20, 2000).view(np.float64)])
    g = _coordinate_graph(values[: values.size // 2 * 2].reshape(-1, 2))
    assert graph_to_text(g) == reference_graph_to_text(g)


def test_file_round_trip(tmp_path):
    g = _random_graph(7)
    path = tmp_path / "g.knng"
    write_knng(g, path)
    assert read_knng(path).equals(g)
    # writer emits UTF-8 with LF endings only
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_header_format():
    g = line_gadget(0.0, 2)
    assert graph_to_text(g).splitlines()[0] == "knng 1 3 1 2"


def _lines(g):
    return graph_to_text(g).splitlines()


class TestRejection:
    def test_bad_magic(self):
        with pytest.raises(KnngFormatError, match="line 1"):
            graph_from_text("nope 1 1 1 0\n0.0\n0\n")

    def test_bad_header_arity(self):
        with pytest.raises(KnngFormatError, match="line 1"):
            graph_from_text("knng 1 1 1\n0.0\n0\n")

    def test_wrong_line_count(self):
        with pytest.raises(KnngFormatError):
            graph_from_text("knng 1 2 1 0\n0.0\n1.0\n1 1\n")

    def test_coordinate_arity_reports_line(self):
        lines = _lines(line_gadget(0.0, 2))
        lines[2] = "1.0 2.0"
        with pytest.raises(KnngFormatError, match="line 3"):
            graph_from_text("\n".join(lines) + "\n")

    def test_nonfinite_coordinate_rejected(self):
        lines = _lines(line_gadget(0.0, 2))
        lines[1] = "nan"
        with pytest.raises(KnngFormatError, match="line 2"):
            graph_from_text("\n".join(lines) + "\n")

    def test_self_loop_reports_line(self):
        lines = _lines(line_gadget(0.0, 2))
        lines[4] = "2 0 1"
        with pytest.raises(KnngFormatError, match="line 5"):
            graph_from_text("\n".join(lines) + "\n")

    def test_duplicate_neighbor_reports_line(self):
        lines = _lines(line_gadget(0.0, 2))
        lines[5] = "2 0 0"
        with pytest.raises(KnngFormatError, match="line 6"):
            graph_from_text("\n".join(lines) + "\n")

    def test_out_of_range_id_reports_line(self):
        lines = _lines(line_gadget(0.0, 2))
        lines[6] = "1 3"
        with pytest.raises(KnngFormatError, match="line 7"):
            graph_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("ids", ["1 99999999999999999999", "-99999999999999999999 2"])
    def test_id_beyond_int64_reports_line(self, ids):
        lines = _lines(line_gadget(0.0, 2))
        lines[5] = f"2 {ids}"
        with pytest.raises(KnngFormatError, match="^line 6: vertex 1: neighbor id out of range"):
            graph_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("2 0 1", "2 0 x", "vertex 0: self-loop"),
            ("2 1 x", "2 1 0", "adjacency entries must be integers"),
        ],
    )
    def test_earlier_of_row_and_syntax_faults_is_reported(self, first, second, message):
        lines = _lines(line_gadget(0.0, 2))
        lines[4], lines[5] = first, second
        with pytest.raises(KnngFormatError, match=f"^line 5: {message}$"):
            graph_from_text("\n".join(lines) + "\n")

    def test_degree_mismatch(self):
        lines = _lines(line_gadget(0.0, 2))
        lines[4] = "3 1 2"
        with pytest.raises(KnngFormatError, match="line 5"):
            graph_from_text("\n".join(lines) + "\n")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_round_trip_is_bit_exact_on_any_finite_coordinates_and_rows(data):
    n = data.draw(st.integers(1, 12))
    delta = data.draw(st.integers(1, 4))
    flat = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=n * delta, max_size=n * delta))
    rows = []
    for v in range(n):
        order = data.draw(st.permutations([u for u in range(n) if u != v]))
        rows.append(order[: data.draw(st.integers(0, n - 1))])
    k_hint = data.draw(st.none() | st.integers(1, 20))
    g = graph_from_rows(np.array(flat, dtype=np.float64).reshape(n, delta), rows, k_hint=k_hint)
    assert graph_to_text(g) == reference_graph_to_text(g)
    assert graph_from_text(graph_to_text(g)).equals(g)


# Differential corpus for the reader. A base graph: 4 vertices in 2 dimensions.
_BASE = "knng 1 4 2 2\n0.0 1.0\n1.5 -2.25\n3.0 0.5\n4.0 4.0\n2 1 2\n2 0 2\n2 1 3\n2 2 0\n"


def _edit(line: int, new: str, text: str = _BASE) -> str:
    """``text`` with its 1-based ``line`` replaced."""
    lines = text.split("\n")
    lines[line - 1] = new
    return "\n".join(lines)


_READER_CORPUS = {
    "base": _BASE,
    "degree-0 rows": "knng 1 3 1 0\n0.5\n1.5\n2.5\n0\n1 0\n0\n",
    "n=1": "knng 1 1 3 0\n1 2 3\n0\n",
    "n=1 k_hint 0 no ids": "knng 1 1 1 0\n-7e-3\n0\n",
    "extreme floats": "knng 1 2 2 1\n-0.0 5e-324\n1.7976931348623157e308 -1.7976931348623157e308\n1 1\n1 0\n",
    "CRLF": _BASE.replace("\n", "\r\n"),
    "tabs": _BASE.replace(" ", "\t"),
    "runs of spaces": _BASE.replace(" ", "   "),
    "trailing whitespace": _BASE.replace("\n", " \t \n"),
    "leading whitespace": "  " + _BASE[:-1].replace("\n", "\n  ") + "\n",
    "plus id": _edit(6, "2 +1 2"),
    "plus degree": _edit(6, "+2 1 2"),
    "plus coordinate": _edit(3, "+3 1.0"),
    "leading zeros": _edit(6, "002 001 0000002"),
    "underscore id": _edit(6, "2 0_1 2"),
    "underscore coordinate": _edit(3, "1_0.5 2"),
    "arabic-indic id": _edit(6, "2 1 \u0663"),
    "arabic-indic coordinate": _edit(3, "\u0663.5 2"),
    "22-digit id": _edit(6, "2 1 0000000000000000000002"),
    "19-digit id": _edit(6, "2 1 0000000000000000002"),
    "18-digit id": _edit(6, "2 1 000000000000000002"),
    "id beyond int64": _edit(6, "2 1 99999999999999999999"),
    "vertical tab": _BASE.replace("2 1 3", "2\x0b1 3").replace("1.5 -2.25", "1.5\x0b-2.25"),
    "file separator": _BASE.replace("2 1 3", "2 1\x1c3").replace("3.0 0.5", "3.0\x1c0.5"),
    "form feed": _edit(1, "knng\x0c1 4 2 2"),
    "vertical tab in ids": _edit(7, "2 0\x0b2"),
    "file separator in ids": _edit(7, "2 0\x1c2"),
    "NUL in ids": _edit(7, "2 0\x002"),
    "NUL after a coordinate": _edit(3, "1.5\x00 2"),
    "nan on last coordinate line": _edit(5, "4.0 nan"),
    "inf on last coordinate line": _edit(5, "-inf 4.0"),
    "overflow on last coordinate line": _edit(5, "1e999 4.0"),
    "hex float": _edit(5, "0x1p3 4.0"),
    "coordinate arity on last line": _edit(5, "4.0"),
    "degree mismatch on last line": _edit(9, "3 2 0"),
    "degree short on last line": _edit(9, "1 2 0"),
    "negative degree": _edit(9, "-1"),
    "mismatches that cancel out": _edit(7, "1 3 2", _edit(6, "3 1 2")),
    "missing degree field": _edit(9, ""),
    "float id": _edit(9, "2 2.0 0"),
    "self-loop": _edit(7, "2 1 2"),
    "duplicate": _edit(7, "2 0 0"),
    "out of range": _edit(7, "2 0 4"),
    "row fault before syntax fault": _edit(9, "2 x 0", _edit(6, "2 1 1")),
    "syntax fault before row fault": _edit(9, "2 3 3", _edit(6, "2 1 x")),
    "missing last newline": _BASE[:-1],
    "extra blank line": _BASE + "\n",
    "wrong line count": _BASE + "0\n",
    "empty": "",
    "only a newline": "\n",
    "bad header": _edit(1, "knng 1 4 2"),
    "header with plus": _edit(1, "knng +1 4 2 2"),
    "float header field": _edit(1, "knng 1 4 2.0 2"),
    "version 2": _edit(1, "knng 2 4 2 2"),
    "n=0": _edit(1, "knng 1 0 2 2"),
    "negative k_hint": _edit(1, "knng 1 4 2 -1"),
    "zero dimension": _edit(1, "knng 1 4 0 2"),
    "dimension beyond memory": _edit(1, "knng 1 4 1000000000000 2"),
    "dimension beyond numpy": _edit(1, "knng 1 4 99999999999999999999 2"),
    "lone CR": _BASE.replace("2 1 3\n", "2 1 3\r"),
    "non-ASCII space": _edit(6, "2 1\xa02"),
}


def _outcome(parse, arg):
    try:
        return parse(arg)
    except KnngFormatError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.equals(want)


@pytest.mark.parametrize("name", sorted(_READER_CORPUS))
def test_reader_matches_the_per_line_reference(name, tmp_path):
    text = _READER_CORPUS[name]
    _assert_same_outcome(_outcome(graph_from_text, text), _outcome(reference_graph_from_text, text))
    # a file reads as text mode reads it: CRLF and a lone CR are line ends
    path = tmp_path / "g.knng"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(reference_graph_from_text, path.read_text(encoding="utf-8"))
    _assert_same_outcome(_outcome(read_knng, path), want)


@pytest.mark.parametrize(
    "name", ["base", "degree-0 rows", "n=1", "n=1 k_hint 0 no ids", "extreme floats", "CRLF",
             "tabs", "runs of spaces", "trailing whitespace", "leading whitespace",
             "leading zeros", "18-digit id", "underscore coordinate"],
)
def test_plain_ascii_files_skip_the_per_line_reader(name, monkeypatch):
    text = _READER_CORPUS[name]
    want = reference_graph_from_text(text)

    def per_line(_chunk):
        raise AssertionError("a block was read line by line")

    monkeypatch.setattr(graphio, "_lines", per_line)
    assert graph_from_text(text).equals(want)


@pytest.mark.parametrize("name", ["arabic-indic id", "arabic-indic coordinate", "non-ASCII space", "base", "plus id"])
def test_the_per_line_reader_checks_rows_once(name, tmp_path, monkeypatch):
    # the reader checks the rows itself, to report the line, and builds without a second check,
    # whether its blocks are read by numpy or line by line
    text = _READER_CORPUS[name]
    path = tmp_path / "g.knng"
    path.write_bytes(text.encode("utf-8"))
    want = reference_graph_from_text(text)
    passes, row_fault = [], core.row_fault

    def counting(n, indptr, indices):
        passes.append(n)
        return row_fault(n, indptr, indices)

    # the readers' own check and the constructor's
    monkeypatch.setattr(graphio, "row_fault", counting)
    monkeypatch.setattr(core, "row_fault", counting)
    for read, arg in ((graph_from_text, text), (read_knng, path)):
        passes.clear()
        assert read(arg).equals(want)
        assert passes == [4]


@pytest.mark.parametrize(
    "raw, line",
    [
        (b"knng 1 2 1 1\n0.5\n\xff1.5\n1 1\n1 0\n", 3),
        (b"\xfeknng 1 2 1 1\n0.5\n1.5\n1 1\n1 0\n", 1),
        (b"knng 1 2 1 1\r\n0.5\r1.5\r\n1 1\n1 0\xe2\x82\n", 5),
    ],
)
def test_invalid_utf8_reports_the_line_of_the_first_bad_byte(raw, line, tmp_path):
    path = tmp_path / "g.knng"
    path.write_bytes(raw)
    with pytest.raises(KnngFormatError, match=f"^line {line}: invalid UTF-8"):
        read_knng(path)


# tokens from the corpus that Python reads but numpy does not, or that no reader takes
_ODD_TOKENS = ["+1", "-1", "0_1", "1_0.5", "\u0663", "\x0b", "\x0c", "\x1c", "\x00", "\xa0", "\u2003", "\r",
               "nan", "-inf", "1e999", "0x1p3", "2.0", "x", "00000000000000000001", "99999999999999999999", ""]


def _utf8_fault(raw: bytes) -> str | None:
    """The line of the first byte that is not UTF-8, read line by line, and the whole text's reason, or None."""
    for lineno, line in enumerate(raw.split(b"\n"), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {lineno}: invalid UTF-8: {exc.reason}"
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_files_read_as_the_per_line_reference_reads_them(tmp_path_factory, data):
    """A random graph's text with one byte deleted, inserted or flipped, or an odd token put in or for a token."""
    raw = graph_to_text(_random_graph(data.draw(st.integers(0, 2**32 - 1)))).encode("ascii")
    at = data.draw(st.integers(0, len(raw)))
    edit = data.draw(st.sampled_from(["delete", "insert", "flip", "put in", "put for"]))
    odd = data.draw(st.sampled_from(_ODD_TOKENS)).encode("utf-8")
    if edit == "delete":
        raw = raw[:at] + raw[at + 1 :]
    elif edit in ("insert", "flip"):
        byte = data.draw(st.integers(0, 255)).to_bytes(1, "big")
        raw = raw[:at] + byte + raw[at + (edit == "flip") :]
    elif edit == "put in":
        raw = raw[:at] + odd + raw[at:]
    else:
        start = max(raw.rfind(b" ", 0, at), raw.rfind(b"\n", 0, at)) + 1
        stop = min(i for i in (raw.find(b" ", at), raw.find(b"\n", at), len(raw)) if i >= 0)
        raw = raw[:start] + odd + raw[stop:]
    path = tmp_path_factory.mktemp("edited") / "g.knng"
    path.write_bytes(raw)
    text = raw.decode("utf-8", "surrogateescape")  # a byte that is not UTF-8 becomes a lone surrogate
    utf8_fault = _utf8_fault(raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
    for block in (graphio._BLOCK_BYTES, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphio, "_BLOCK_BYTES", block)
            _assert_same_outcome(_outcome(graph_from_text, text), _outcome(reference_graph_from_text, text))
            if utf8_fault is None:
                want = _outcome(reference_graph_from_text, path.read_text(encoding="utf-8"))
                _assert_same_outcome(_outcome(read_knng, path), want)
            else:
                assert _outcome(read_knng, path) == utf8_fault


def test_a_cut_character_ends_an_unterminated_file_as_it_ends_the_text(tmp_path):
    path = tmp_path / "g.knng"
    path.write_bytes(b"knng 1 2 1 1\n0.5\n1.5\n1 1\n1 0\xe2\x82")
    with pytest.raises(KnngFormatError, match="^line 5: invalid UTF-8: unexpected end of data$"):
        read_knng(path)


def test_a_run_odd_at_every_eighth_is_split_no_further(monkeypatch):
    # every line holds a byte numpy does not read, so the eighths of each run are odd
    # too and are read as they are; one odd line among plain ones is split down to
    # _BLOCK_BYTES / 64 around it
    monkeypatch.setattr(graphio, "_BLOCK_BYTES", 1 << 12)
    odd = b"".join(b"2 +%d +%d\n" % (v, v + 1) for v in range(2000))
    pieces = list(graphio._line_blocks(odd, 0, 2000, graphio._ADJACENCY_BYTES))
    assert all(per_line is None for *_, per_line, _ in pieces)
    # about eight pieces per run, where a split down to 64 bytes would give about 64
    assert len(pieces) <= 9 * -(-len(odd) // (1 << 12))
    line = b"2 +7 +8\n"
    mixed = odd.replace(b"+", b"")[:4000] + line + odd.replace(b"+", b"")[4000:]
    pieces = list(graphio._line_blocks(mixed, 0, 2001, graphio._ADJACENCY_BYTES))
    starts, stops = [start for _, start, *_ in pieces], [stop for _, _, stop, *_ in pieces]
    assert starts == [0] + stops[:-1] and stops[-1] == len(mixed)
    [(start, stop)] = [(start, stop) for _, start, stop, per_line, _ in pieces if per_line is None]
    assert line in mixed[start:stop] and stop - start <= 1 << 12 >> 6


def test_the_first_adjacency_pass_reads_odd_runs_once(tmp_path, monkeypatch):
    # every id carries a plus sign: each run is decoded line by line once, as it is counted
    g = circulant_graph(3000, 4, seed=2)
    lines = graph_to_text(g).split("\n")
    lines[1 + g.n :] = [line.replace(" ", " +") for line in lines[1 + g.n :]]
    path = tmp_path / "g.knng"
    path.write_text("\n".join(lines), encoding="ascii")
    decoded, read_lines = [], graphio._lines
    monkeypatch.setattr(graphio, "_lines", lambda chunk: decoded.append(len(chunk)) or read_lines(chunk))
    assert read_knng(path).equals(g)
    assert sum(decoded) == len("\n".join(lines[1 + g.n :]))


@pytest.fixture(params=[1, 7, 64])
def small_blocks(request, monkeypatch):
    """Blocks of ``param`` bytes, rows plus numbers, floats or rows plus edges: at 1, one line or row each."""
    monkeypatch.setattr(graphio, "_BLOCK_BYTES", request.param)
    monkeypatch.setattr(graphio, "_WRITE_BLOCK", request.param)
    monkeypatch.setattr(core, "_ROW_BLOCK", request.param)


def _assert_same_outcome_or_error(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_outcome(got, want)


@pytest.mark.parametrize("name", sorted(_READER_CORPUS))
def test_reader_outcomes_do_not_depend_on_the_block_sizes(name, tmp_path, small_blocks, monkeypatch):
    text = _READER_CORPUS[name]
    path = tmp_path / "g.knng"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(graph_from_text, text), _outcome(read_knng, path)
    monkeypatch.undo()
    want = _outcome(graph_from_text, text), _outcome(read_knng, path)
    for g, w in zip(got, want):
        _assert_same_outcome_or_error(g, w)
    _assert_same_outcome(want[0], _outcome(reference_graph_from_text, text))


@pytest.mark.parametrize("seed", range(6))
def test_written_bytes_do_not_depend_on_the_block_sizes(seed, tmp_path, small_blocks, monkeypatch):
    coords = np.random.default_rng(seed).normal(size=(80, 2)) * 10.0 ** np.arange(-20, 20, 0.5)[:, None]
    coords[[3, 36], 1] = 5e-324, -1e-310  # blocks with one of these rows are written by repr, the others not
    graphs = [_random_graph(seed), line_gadget(0.0, 2), circulant_graph(300, 4, seed), _coordinate_graph(coords)]
    texts = [graph_to_text(g) for g in graphs]
    assert texts == [reference_graph_to_text(g) for g in graphs]
    for i, g in enumerate(graphs):
        write_knng(g, tmp_path / f"{i}.knng")
        assert read_knng(tmp_path / f"{i}.knng").equals(g)
        assert graph_from_text(texts[i]).equals(g)
    monkeypatch.undo()
    assert texts == [graph_to_text(g) for g in graphs]
    for i, text in enumerate(texts):
        assert (tmp_path / f"{i}.knng").read_bytes() == text.encode("ascii")


def test_a_write_cut_short_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    g = _random_graph(3)
    path = tmp_path / "g.knng"
    write_knng(line_gadget(0.0, 2), path)
    before = path.read_bytes()

    whole = list(graphio._text_pieces(g))

    def pieces(graph):
        yield from whole[: len(whole) // 2]
        raise KeyboardInterrupt

    monkeypatch.setattr(graphio, "_text_pieces", pieces)
    for target in (path, tmp_path / "new.knng"):
        with pytest.raises(KeyboardInterrupt):
            write_knng(g, target)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["g.knng"]
    monkeypatch.undo()
    path.chmod(0o640)
    write_knng(g, path)
    assert read_knng(path).equals(g) and [p.name for p in tmp_path.iterdir()] == ["g.knng"]
    assert path.stat().st_mode & 0o777 == 0o640


def test_a_pipe_is_written_directly_and_a_link_is_followed(tmp_path):
    g = _random_graph(5)
    pipe, got = tmp_path / "pipe", []
    os.mkfifo(pipe)
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_knng(g, pipe)
    reader.join(timeout=30)
    assert got == [graph_to_text(g).encode("ascii")]
    link, target = tmp_path / "link.knng", tmp_path / "target.knng"
    link.symlink_to(target)
    write_knng(g, link)
    assert link.is_symlink() and read_knng(target).equals(g)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.knng", "pipe", "target.knng"]


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory that tracemalloc sees it allocate."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    # at n = 2**16, k = 10 the text is 6.2 MB and the graph's arrays 7 MB; a
    # block's temporaries take about 2 MB, and whole-text ones several times the text
    @pytest.fixture(scope="class")
    def graph(self):
        return circulant_graph(2**16, 10, seed=1)

    def test_write_holds_one_block(self, graph, tmp_path):
        _, peak = _traced_peak(write_knng, graph, tmp_path / "g.knng")
        assert peak < 5 * 2**20

    def test_read_holds_the_text_the_graph_and_one_block(self, graph, tmp_path):
        path = tmp_path / "g.knng"
        write_knng(graph, path)
        g, peak = _traced_peak(read_knng, path)
        assert g.equals(graph)
        outputs = sum(a.nbytes for a in (g.coords, g.indptr, g.indices, g.degrees))
        assert peak < path.stat().st_size + outputs + 4 * 2**20

    @pytest.mark.parametrize("edit", ["a syntax fault on the last line", "one id with a plus sign", "no last newline",
                                      "CRLF and one lone CR", "every id with a plus sign"])
    def test_a_faulty_or_odd_file_reads_within_the_same_bound(self, graph, tmp_path, edit):
        lines = graph_to_text(graph).encode("ascii").split(b"\n")
        want = graph
        if edit == "one id with a plus sign":
            v = 1 + graph.n + graph.n // 2
            lines[v] = lines[v].replace(b" ", b" +", 1)
        elif edit == "every id with a plus sign":  # read line by line, its ids held from the first pass
            lines[1 + graph.n :] = [line.replace(b" ", b" +") for line in lines[1 + graph.n :]]
        elif edit == "no last newline":
            lines.pop()
        elif edit == "a syntax fault on the last line":
            lines[-2] += b"x"
            want = f"line {2 * graph.n + 1}: adjacency entries must be integers"
        path = tmp_path / "g.knng"
        text = b"\n".join(lines)
        path.write_bytes(text.replace(b"\n", b"\r\n").replace(b"\r\n", b"\r", 1) if edit.startswith("CRLF") else text)
        got, peak = _traced_peak(_outcome, read_knng, path)
        _assert_same_outcome(got, want)
        outputs = sum(a.nbytes for a in (graph.coords, graph.indptr, graph.indices, graph.degrees))
        assert peak < path.stat().st_size + outputs + 4 * 2**20
