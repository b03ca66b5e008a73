"""The .knng text format: round trips and line-numbered rejection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graph_from_rows, reference_graph_from_text
from knncheck import graphio
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
        assert graph_from_text(graph_to_text(g)).equals(g)


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

    def per_line(_text):
        raise AssertionError("the bulk path declined")

    monkeypatch.setattr(graphio, "_graph_from_lines", per_line)
    assert graph_from_text(text).equals(want)


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
