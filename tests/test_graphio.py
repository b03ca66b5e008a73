"""The .knng text format: round trips and line-numbered rejection."""

import numpy as np
import pytest

from helpers import graph_from_rows
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
