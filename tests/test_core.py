"""Graph model, distance primitive and oracle accounting."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OVERFLOW_COORDS,
    ReferenceOracle,
    circulant_graph,
    csr_from_rows,
    first_adjacency_error,
    graph_from_rows,
    reference_leaf_index,
    reference_leaf_pairs,
    reference_row_fault,
    rows_of,
)
from knncheck.core import (
    EdgeBudget,
    GeometricGraph,
    OracleSession,
    QueryTally,
    box_gap2,
    dist2,
    dist2_block,
    dist2_filter,
    dist2_row,
    leaf_index,
    leaf_pairs,
    row_blocks,
    row_fault,
)
from knncheck import core
from knncheck.generators import line_gadget


def test_dist2_345_triangle():
    assert dist2((0.0, 0.0), (3.0, 4.0)) == 25.0


def test_dist2_identity():
    p = np.array([1.5, -2.25, 7.0])
    assert dist2(p, p) == 0.0


def test_dist2_adjacent_gadget_vertices():
    g = line_gadget(5.0, 2)
    assert dist2(g.coords[0], g.coords[1]) == 1.0


def test_dist2_dimension_mismatch():
    with pytest.raises(ValueError):
        dist2((1.0, 2.0), (1.0, 2.0, 3.0))


def test_dist2_symmetric_and_order_preserving():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        p, q, r = rng.normal(size=(3, d))
        assert dist2(p, q) == dist2(q, p)
        # squared ordering matches true Euclidean ordering
        assert (dist2(p, q) < dist2(p, r)) == (math.dist(p, q) < math.dist(p, r))


def test_dist2_zero_iff_equal():
    p = np.array([0.5, 0.25])
    q = np.array([0.5, 0.25 + 1e-300])
    assert dist2(p, q) > 0.0 or np.array_equal(p, q)


@pytest.mark.parametrize("delta", [1, 2, 3, 5, 8, 17, 50])
def test_dist2_scalar_row_block_bit_identical(delta):
    """The scalar, row, block and point-box paths must agree bit for bit."""
    rng = np.random.default_rng(delta)
    a = rng.normal(size=(7, delta))
    b = rng.normal(size=(9, delta))
    block = dist2_block(a, b)
    for i in range(a.shape[0]):
        row = dist2_row(a[i], b)
        assert np.array_equal(row, block[i])
        for j in range(b.shape[0]):
            assert dist2(a[i], b[j]) == row[j]
            assert box_gap2(a[i], a[i], b[j], b[j]) == row[j]
    # one point per row, paired row by row
    paired = dist2_row(np.repeat(a, b.shape[0], axis=0), np.tile(b, (a.shape[0], 1)))
    assert np.array_equal(paired, block.ravel())
    # a point is the box with lo == hi
    a_t = a.T[:, :, None]
    assert np.array_equal(box_gap2(a_t, a_t, b.T, b.T), block)

    # a box bound is at most the distance of every pair of points inside the boxes,
    # and equals that of the nearest pair
    for _ in range(50):
        lo, hi = np.sort(rng.normal(size=(2, 2, delta)) + rng.normal(size=(2, 1)), axis=0)
        inside = [np.clip(lo[i] + rng.random((5, delta)) * (hi[i] - lo[i]), lo[i], hi[i])
                  for i in (0, 1)]
        inside = [np.vstack((pts, lo[i], hi[i])) for i, pts in enumerate(inside)]
        bound = box_gap2(lo[0], hi[0], lo[1], hi[1])
        assert bound <= dist2_block(inside[0], inside[1]).min()
        near = np.clip(lo[1], lo[0], hi[0])
        assert bound == dist2(near, np.clip(near, lo[1], hi[1]))


# subnormals and squares that underflow, squares near the largest finite value,
# and differences of the largest values, which overflow to inf
_EXTREMES = (0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1.3407807929942596e154,
             1.7976931348623157e308, -1.7976931348623157e308)


def _assert_paths_bit_identical(a, b):
    """dist2, dist2_row (point and paired), dist2_block and point-box box_gap2 on all pairs."""
    with np.errstate(over="ignore"):
        block = dist2_block(a, b)
        paired = dist2_row(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))).reshape(block.shape)
        for i, j in np.ndindex(block.shape):
            paths = (dist2(a[i], b[j]), dist2_row(a[i], b)[j], paired[i, j],
                     box_gap2(a[i], a[i], b[j], b[j]), block[i, j])
            assert len({np.float64(x).tobytes() for x in paths}) == 1, (a[i], b[j], paths)


def test_dist2_paths_bit_identical_on_extreme_pairs():
    grid = np.array(_EXTREMES)[:, None]
    _assert_paths_bit_identical(grid, grid)
    rng = np.random.default_rng(3)
    for delta in range(2, 9):
        a, b = rng.choice(_EXTREMES, size=(2, 6, delta))
        _assert_paths_bit_identical(a, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dist2_paths_bit_identical_on_any_finite_coordinates(data):
    """Subnormals, the largest finite values and squares that overflow to inf included."""
    delta = data.draw(st.integers(1, 8))
    coord = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES)
    rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b = (np.array(data.draw(st.lists(coord, min_size=m * delta, max_size=m * delta)),
                     dtype=np.float64).reshape(m, delta) for m in rows)
    _assert_paths_bit_identical(a, b)


# (points, leaf size) giving 1, 2, 16 and 512 leaves
_LEAF_COUNTS = ((40, 64), (40, 20), (300, 20), (1024, 2))


def _point_set(kind, m, delta, rng):
    if kind == "uniform":
        return rng.random((m, delta))
    if kind == "coincident":
        return np.full((m, delta), 0.25)
    if kind == "lattice":
        return rng.integers(0, 4, size=(m, delta)).astype(np.float64)
    return rng.choice(OVERFLOW_COORDS, size=(m, delta))


def _assert_leaf_pairs_equal_flat_pass(pts, leaf_size, lo, hi, r):
    with np.errstate(over="ignore"):
        levels = leaf_index(pts, leaf_size)[3]
        got = leaf_pairs(lo, hi, r, levels)
        want = reference_leaf_pairs(lo, hi, r, *levels[-1])
    assert len(got) == 2 and all(np.array_equal(a, b) for a, b in zip(got, want))


class TestLeafIndex:
    """core.leaf_index against the id-permuting, sort-marking index of tests/helpers."""

    @pytest.mark.parametrize("kind", ["uniform", "coincident", "lattice", "overflow"])
    @pytest.mark.parametrize("delta", [1, 2, 8])
    def test_equals_reference(self, kind, delta):
        rng = np.random.default_rng(delta)
        cases = list(_LEAF_COUNTS) + [(m, leaf_size) for _, leaf_size in _LEAF_COUNTS
                                      for m in (1, leaf_size, leaf_size + 1)]
        for m, leaf_size in cases:
            pts = _point_set(kind, m, delta, rng)
            with np.errstate(over="ignore"):
                got, want = leaf_index(pts, leaf_size), reference_leaf_index(pts, leaf_size)
            for a, b in zip(got[:3], want[:3]):
                assert a.dtype == b.dtype and np.array_equal(a, b), (m, leaf_size)
            assert len(got[3]) == len(want[3])
            for a, b in zip(got[3], want[3]):
                assert all(np.array_equal(x, y) for x, y in zip(a, b)), (m, leaf_size)


class TestLeafPairs:
    """core.leaf_pairs against the flat rows x leaves pass of tests/helpers."""

    @pytest.mark.parametrize("m,leaf_size", _LEAF_COUNTS)
    def test_level_boxes_contain_their_children_tightly(self, m, leaf_size):
        pts = np.random.default_rng(m).random((m, 3))
        leaves, _, p, levels = leaf_index(pts, leaf_size)
        assert len(levels) == 1 + int(math.log2(leaves.shape[0]))
        assert np.array_equal(levels[-1][0], p.min(axis=2)) and np.array_equal(levels[-1][1], p.max(axis=2))
        for (lo, hi), (child_lo, child_hi) in zip(levels, levels[1:]):
            assert np.array_equal(lo, child_lo.reshape(3, -1, 2).min(axis=2))
            assert np.array_equal(hi, child_hi.reshape(3, -1, 2).max(axis=2))
        assert np.array_equal(levels[0][0][:, 0], pts.min(axis=0))
        assert np.array_equal(levels[0][1][:, 0], pts.max(axis=0))

    @pytest.mark.parametrize("kind", ["uniform", "coincident", "lattice", "overflow"])
    @pytest.mark.parametrize("delta", range(1, 9))
    def test_point_and_box_rows(self, kind, delta):
        rng = np.random.default_rng(delta)
        for m, leaf_size in _LEAF_COUNTS:
            pts = _point_set(kind, m, delta, rng)
            q = pts[rng.choice(m, size=min(m, 40), replace=False)]
            with np.errstate(over="ignore"):
                d2 = dist2_block(q, pts)
            k = min(m - 1, 5)
            kth = np.partition(d2, k, axis=1)[:, k]
            # point rows, then boxes spanned by two points (unit boxes below)
            corners = np.sort(np.stack((q, pts[rng.integers(0, m, size=q.shape[0])])), axis=0)
            rows = [(q.T, q.T), (corners[0].T, corners[1].T)]
            with np.errstate(over="ignore"):
                levels = leaf_index(pts, leaf_size)[3]
            rows += [levels[len(levels) // 2]]
            for lo, hi in rows:
                for r in (np.zeros(lo.shape[1]), kth[: lo.shape[1]], np.full(lo.shape[1], np.inf)):
                    _assert_leaf_pairs_equal_flat_pass(pts, leaf_size, lo, hi, r)
                # each row's bound to some leaf, so that bounds equal to r are common
                with np.errstate(over="ignore"):
                    bounds = box_gap2(lo[:, :, None], hi[:, :, None], *levels[-1])
                r = np.sort(bounds, axis=1)[:, min(bounds.shape[1] - 1, 3)]
                _assert_leaf_pairs_equal_flat_pass(pts, leaf_size, lo, hi, r)

    @pytest.mark.parametrize("delta", [1, 2, 8])
    def test_row_layouts(self, delta):
        # rows as C-contiguous (coordinate, row) arrays, as the scan passes them,
        # as transposed views and as strided slices: points, and boxes with lo is not hi
        rng = np.random.default_rng(60 + delta)
        pts = rng.random((2048, delta))
        q = pts[rng.choice(2048, size=300, replace=False)]
        kth = np.partition(dist2_block(q, pts), 10, axis=1)[:, 10]

        def layouts(rows):
            wide = np.repeat(rows.T, 2, axis=1)
            return np.ascontiguousarray(rows.T), rows.T, wide[:, ::2]

        for lo in layouts(q):
            _assert_leaf_pairs_equal_flat_pass(pts, 8, lo, lo, kth)
        corners = np.sort(np.stack((q, q + rng.random(q.shape) / 64)), axis=0)
        for lo in layouts(corners[0]):
            for hi in layouts(corners[1]):
                _assert_leaf_pairs_equal_flat_pass(pts, 8, lo, hi, kth)

    def test_descent_evaluates_fewer_bounds_than_the_flat_pass(self, monkeypatch):
        pts = np.random.default_rng(5).random((4096, 2))
        q = pts[:256]
        kth = np.partition(dist2_block(q, pts), 10, axis=1)[:, 10]
        evaluated = []
        gap2 = core.box_gap2

        def gap2_spy(*args):
            out = gap2(*args)
            evaluated.append(out.size)
            return out

        monkeypatch.setattr(core, "box_gap2", gap2_spy)
        _assert_leaf_pairs_equal_flat_pass(pts, 8, q.T, q.T, kth)
        # the flat pass evaluates all 256 x 512 bounds, the descent a few per row, in
        # steps of as many levels as keep their pairs within _FLAT_PAIRS, not 5 single ones
        assert evaluated[0] == 256 * 16 and 2 <= len(evaluated) < 6 and sum(evaluated) < 256 * 512 / 8
        assert all(size <= core._FLAT_PAIRS for size in evaluated[1:])
        evaluated.clear()
        _assert_leaf_pairs_equal_flat_pass(pts, 8, q.T, q.T, np.full(256, np.inf))
        # level 4 keeps every pair, so each of its nodes goes straight to its 32 leaves
        assert evaluated == [256 * 16, 256 * 512]

    @pytest.mark.parametrize("boxes", [False, True])
    def test_wide_level_four_goes_straight_to_the_leaves_under_its_kept_nodes(self, monkeypatch, boxes):
        # in 8 dimensions level 4 keeps more than a quarter of its pairs; the
        # leaves lie 5 levels below it, and only those under a kept node are bounded
        rng = np.random.default_rng(8)
        pts = rng.random((4096, 8))
        q = pts[rng.choice(4096, size=64, replace=False)]
        kth = np.partition(dist2_block(q, pts), 10, axis=1)[:, 10]
        lo = hi = np.ascontiguousarray(q.T)
        if boxes:
            hi = lo + rng.random(lo.shape) / 64
        levels = leaf_index(pts, 8)[3]
        assert len(levels) == 10
        kept = np.count_nonzero(box_gap2(lo[:, :, None], hi[:, :, None], *levels[4]) <= kth[:, None])
        assert 64 * 16 // 4 < kept < 64 * 16
        evaluated = []
        gap2 = core.box_gap2

        def gap2_spy(*args):
            out = gap2(*args)
            evaluated.append(out.size)
            return out

        monkeypatch.setattr(core, "box_gap2", gap2_spy)
        _assert_leaf_pairs_equal_flat_pass(pts, 8, lo, hi, kth)
        assert evaluated == [64 * 16, kept * 32]

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 63, 64, 127])
    def test_small_queries_skip_most_of_the_descent(self, monkeypatch, rows):
        # the leaves are bounded at once when rows x leaves fit _FLAT_PAIRS, level 4
        # otherwise; each step then goes as many levels down as keep the expanded
        # pairs within _FLAT_PAIRS, where one level at a time would take 7 steps
        rng = np.random.default_rng(rows)
        pts = rng.random((8192, 2))
        q = pts[rng.choice(8192, size=rows, replace=False)]
        kth = np.partition(dist2_block(q, pts), 10, axis=1)[:, 10]
        levels = leaf_index(pts, 8)[3]
        assert len(levels) == 11 and 2 << 10 <= core._FLAT_PAIRS < 3 << 10
        evaluated = []
        gap2 = core.box_gap2

        def gap2_spy(*args):
            out = gap2(*args)
            evaluated.append(out.size)
            return out

        monkeypatch.setattr(core, "box_gap2", gap2_spy)
        _assert_leaf_pairs_equal_flat_pass(pts, 8, q.T, q.T, kth)
        if rows <= 2:
            assert evaluated == [rows << 10]
        else:
            assert evaluated[0] == rows << 4 and 2 <= len(evaluated) <= 3
            assert all(size <= core._FLAT_PAIRS for size in evaluated[1:])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leaf_pairs_equal_flat_pass_on_any_input(data):
    """Points from any finite floats, the overflowing ones included; rows are points or boxes."""
    delta = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 600))
    leaf_size = data.draw(st.sampled_from((1, 2, 8, 64)))
    coord = (st.sampled_from(OVERFLOW_COORDS) | st.floats(-4.0, 4.0, width=16)
             | st.floats(allow_nan=False, allow_infinity=False))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # at most 12 distinct values, so that ties and coincident points are common
    palette = np.array(data.draw(st.lists(coord, min_size=1, max_size=12)), dtype=np.float64)
    pts = rng.choice(palette, size=(m, delta))
    rows = data.draw(st.integers(1, 20))
    corners = np.sort(pts[rng.integers(0, m, size=(2, rows))], axis=0)
    if data.draw(st.booleans()):
        corners[1] = corners[0]
    with np.errstate(over="ignore"):
        d2 = dist2_block(corners[0], pts)
    r = data.draw(st.sampled_from(("zero", "kth", "inf", "drawn")))
    if r == "kth":
        r = np.partition(d2, min(m - 1, 3), axis=1)[:, min(m - 1, 3)]
    elif r == "drawn":
        r = np.array(data.draw(st.lists(st.floats(0.0, allow_nan=False), min_size=rows, max_size=rows)))
    else:
        r = np.full(rows, 0.0 if r == "zero" else np.inf)
    _assert_leaf_pairs_equal_flat_pass(pts, leaf_size, corners[0].T, corners[1].T, r)


class TestGeometricGraphInvariants:
    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_rows(np.zeros((2, 1)), (np.array([1]), np.array([2])))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_rows(np.zeros((2, 1)), (np.array([0]), np.array([])))

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_rows(np.zeros((3, 1)), (np.array([1, 1]), np.array([]), np.array([])))

    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            graph_from_rows(np.array([[np.inf]]), (np.array([]),))
        with pytest.raises(ValueError, match="2-d"):
            graph_from_rows(np.zeros(2), (np.array([]), np.array([])))
        with pytest.raises(ValueError, match="at least one vertex"):
            graph_from_rows(np.zeros((0, 2)), ())
        with pytest.raises(ValueError, match="k_hint"):
            graph_from_rows(np.zeros((2, 1)), (np.array([1]), np.array([0])), k_hint=0)

    def test_rejects_wrong_adjacency_length(self):
        with pytest.raises(ValueError, match="adjacency"):
            graph_from_rows(np.zeros((3, 2)), (np.array([]),))

    def test_first_faulty_vertex_and_check_match_row_by_row_reference(self):
        rng = np.random.default_rng(14)
        faults = (
            lambda v, row: np.append(row, v),  # self-loop
            lambda v, row: np.append(row, row[:1]),  # duplicate
            lambda v, row: np.append(row, -1),
            lambda v, row: np.append(row, 30),  # out of range
            lambda v, row: np.append(np.append(row, v), 99),  # two faults at once
        )
        for _ in range(200):
            n = 30
            adjacency = [rng.permutation(np.delete(np.arange(n), v))[: rng.integers(1, 5)]
                         for v in range(n)]
            for v in rng.choice(n, size=int(rng.integers(0, 4)), replace=False):
                adjacency[v] = faults[rng.integers(len(faults))](v, adjacency[v])
            expected = first_adjacency_error(n, adjacency)
            if expected is None:
                GeometricGraph(np.zeros((n, 2)), *csr_from_rows(adjacency))
                continue
            with pytest.raises(ValueError) as err:
                GeometricGraph(np.zeros((n, 2)), *csr_from_rows(adjacency))
            assert str(err.value) == expected

    def test_keeps_and_freezes_the_callers_coordinate_array(self):
        p = np.random.default_rng(3).random((4, 2))
        g = graph_from_rows(p, (np.array([1]), np.array([2]), np.array([3]), np.array([0])))
        assert g.coords is p and not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = 9.0
        # a copy is made, and the caller's array left writable, only where the dtype or layout differs
        q = np.asfortranarray(np.random.default_rng(4).random((4, 2)))
        h = graph_from_rows(q, rows_of(g))
        assert h.coords is not q and q.flags.writeable and not h.coords.flags.writeable

    def test_immutable_arrays(self):
        g = line_gadget(0.0, 1)
        with pytest.raises(ValueError):
            g.coords[0, 0] = 9.0
        with pytest.raises(ValueError):
            g.neighbors(0)[0] = 1
        with pytest.raises(ValueError):
            g.indices[0] = 1
        with pytest.raises(ValueError):
            g.indptr[1] = 0

    def test_neighbors_is_a_view_of_indices(self):
        g = line_gadget(0.0, 2)
        row = g.neighbors(1)
        assert np.shares_memory(row, g.indices)
        assert row.tolist() == g.indices[g.indptr[1] : g.indptr[2]].tolist()

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([0, 1, 2], [1, 2]),  # len(indptr) != n+1
            ([1, 1, 2, 3], [1, 2]),  # indptr[0] != 0
            ([0, 2, 1, 3], [1, 2, 0]),  # decreasing indptr
            ([0, 1, 2, 2], [1, 2, 0]),  # indptr[-1] != len(indices)
            ([0, 1, 2, 3], [[1], [2], [0]]),  # 2-d indices
            ([0, 1, 2, 3], [1.0, 2.0, 0.0]),  # non-integer ids
            ([0.0, 1.0, 2.0, 3.0], [1, 2, 0]),  # non-integer offsets
        ],
    )
    def test_rejects_malformed_csr(self, indptr, indices):
        GeometricGraph(np.zeros((3, 1)), np.array([0, 1, 2, 3]), np.array([1, 2, 0]))
        with pytest.raises(ValueError, match="^adjacency indptr"):
            GeometricGraph(np.zeros((3, 1)), np.array(indptr), np.array(indices))

    @pytest.mark.parametrize("row, message", [
        ([5], "vertex 2: neighbor id out of range [0, 3)"),
        ([2], "vertex 2: self-loop"),
        ([0, 0], "vertex 2: duplicate neighbor"),
    ])
    def test_constructor_checks_rows_and_the_valid_rows_path_does_not(self, row, message):
        coords, indptr = np.zeros((3, 1)), np.array([0, 1, 2, 2 + len(row)])
        indices = np.array([1, 0, *row])
        with pytest.raises(ValueError) as err:
            GeometricGraph(coords, indptr, indices, k_hint=1)
        assert str(err.value) == message
        # rows valid by construction are taken as they are, so a faulty row passes there
        g = GeometricGraph._of_valid_rows(coords, indptr, indices, k_hint=1)
        assert np.array_equal(g.indices, indices) and not g.indices.flags.writeable
        assert g.degrees.tolist() == [1, 1, len(row)]

    def test_the_valid_rows_path_runs_every_other_check(self):
        for args, message in (
            ((np.array([[np.nan]]), [0, 0], []), "coordinates must be finite"),
            ((np.zeros(2), [0, 0, 0], []), "coords must be 2-d"),
            ((np.zeros((2, 1)), [0, 1], [1]), "adjacency indptr must hold"),
            ((np.zeros((2, 1)), [0, 1, 2], [1.0, 0.0]), "adjacency indptr and indices"),
            ((np.zeros((2, 1)), [0, 1, 2], [1, 0], 0), "k_hint must be positive"),
        ):
            with pytest.raises(ValueError, match=message):
                GeometricGraph._of_valid_rows(args[0], np.array(args[1]), np.array(args[2]), *args[3:])

    def test_indices_path_shares_the_parent_arrays_and_checks_only_the_ids(self):
        g = graph_from_rows(np.zeros((3, 1)), (np.array([1]), np.array([2, 0]), np.array([0])), k_hint=1)
        child = g._with_indices(np.array([2, 2, 0, 1]))
        assert child.coords is g.coords and child.indptr is g.indptr and child.degrees is g.degrees
        assert child.equals(GeometricGraph(g.coords, g.indptr, np.array([2, 2, 0, 1]), k_hint=1))
        assert not child.indices.flags.writeable
        for bad in (np.array([2, 0, 1]), np.array([2.0, 0.0, 1.0, 1.0]), np.array([2, 0, 1, 1], dtype=np.int32)):
            with pytest.raises(ValueError, match="^indices must be int64 of shape"):
                g._with_indices(bad)

    def test_coincident_points_are_legal(self):
        g = graph_from_rows(np.zeros((3, 2)), (np.array([1]), np.array([2]), np.array([0])))
        assert g.n == 3 and g.num_edges == 3


def _faulty_csr(rng, n, long_row):
    """Random CSR rows over [0, n): some empty, one of ``long_row`` ids, a few faults injected."""
    rows = [rng.permutation(np.delete(np.arange(n), v))[: rng.integers(0, 4) * rng.integers(0, 2)]
            for v in range(n)]
    rows[int(rng.integers(n))] = rng.permutation(np.delete(np.arange(n), 0))[:long_row]
    for v in rng.choice(n, size=int(rng.integers(0, min(n, 4))), replace=False):
        fault = int(rng.integers(5))
        row = rows[v]
        rows[v] = (np.append(row, v) if fault == 0 else np.append(row, row[:1]) if fault == 1
                   else np.append(row, [-1, n, 2**62][fault - 2]))
        rows[v] = rng.permutation(rows[v])
    return csr_from_rows(rows)


class TestRowFault:
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 40])
    def test_blocked_check_equals_the_one_shot_reference(self, budget, monkeypatch):
        monkeypatch.setattr(core, "_ROW_BLOCK", budget)
        rng = np.random.default_rng(budget)
        for _ in range(150):
            n = int(rng.integers(2, 40))
            indptr, indices = _faulty_csr(rng, n, long_row=int(rng.integers(0, n)))
            for rows in (n, int(rng.integers(0, n + 1))):  # every row, and a prefix
                prefix, ids = indptr[: rows + 1], indices[: indptr[rows]]
                assert row_fault(n, prefix, ids) == reference_row_fault(n, prefix, ids)

    @pytest.mark.parametrize("budget", [1, 4, 9])
    def test_blocks_cover_the_rows_in_order_within_the_budget(self, budget):
        rng = np.random.default_rng(budget)
        for _ in range(100):
            degs = rng.integers(0, 12, size=int(rng.integers(0, 30))) * rng.integers(0, 2, size=1)
            indptr = np.concatenate(([0], np.cumsum(degs)))
            blocks = list(row_blocks(indptr, budget))
            bounds = [0] + [b for _, b in blocks]
            assert [a for a, _ in blocks] == bounds[:-1] and bounds[-1] == degs.size
            for a, b in blocks:
                size = indptr[b] - indptr[a] + b - a
                assert b == a + 1 or size <= budget  # a longer row is its own block
                assert b == degs.size or size + 1 + degs[b] > budget  # as full as it can be

    def test_empty_graphs(self, monkeypatch):
        monkeypatch.setattr(core, "_ROW_BLOCK", 2)
        none = np.zeros(0, dtype=np.int64)
        assert row_fault(5, np.zeros(1, dtype=np.int64), none) is None
        assert row_fault(5, np.zeros(6, dtype=np.int64), none) is None
        assert reference_row_fault(5, np.zeros(6, dtype=np.int64), none) is None


class TestOracleSession:
    """OracleSession's bulk reads, and the single-read query model in ReferenceOracle."""

    def test_neighbor_returns_stored_order(self):
        g = line_gadget(0.0, 2)
        s = ReferenceOracle(g)
        first = s.neighbor(0, 1)
        assert first in (1, 2)
        assert first == int(g.neighbors(0)[0])

    def test_neighbor_star_for_isolated_vertex(self):
        g = graph_from_rows(np.zeros((2, 1)), (np.array([]), np.array([0])))
        s = ReferenceOracle(g)
        assert s.neighbor(0, 1) is None

    def test_repeat_neighbor_query_charged_once(self):
        g = line_gadget(0.0, 2)
        s = ReferenceOracle(g)
        a = s.neighbor(1, 1)
        b = s.neighbor(1, 1)
        assert a == b
        assert s.query_count.neighbor == 1

    def test_degree_of_gadget_vertex(self):
        s = OracleSession(line_gadget(0.0, 2))
        assert s.degrees([1]).tolist() == [2]

    def test_degree_of_isolated_vertex(self):
        g = graph_from_rows(np.zeros((2, 1)), (np.array([]), np.array([0])))
        assert OracleSession(g).degrees([0]).tolist() == [0]

    def test_exact_knn_graph_degrees_at_least_k(self):
        from knncheck.exact import build_exact_knn_graph

        pts = np.random.default_rng(3).random((40, 2))
        g = build_exact_knn_graph(pts, 10)
        s = OracleSession(g)
        assert np.all(s.degrees(np.arange(g.n)) >= 10)

    def test_coord_of_gadget_vertex(self):
        # vertex id 2 sits at coordinate 2 on the line
        s = ReferenceOracle(line_gadget(0.0, 3))
        assert s.coord(2).tolist() == [2.0]

    def test_coord_is_finite_vector_of_length_delta(self):
        g = line_gadget(1.0, 1, delta=4)
        c = ReferenceOracle(g).coord(0)
        assert c.shape == (4,) and np.all(np.isfinite(c))

    def test_n_distinct_coord_queries_tally_n(self):
        g = line_gadget(0.0, 3)
        s = OracleSession(g)
        s.charge_coords(np.repeat(np.arange(g.n), 2))
        s.charge_coords(np.arange(g.n))
        assert s.query_count == QueryTally(coord=g.n)

    def test_out_of_range_queries_rejected(self):
        g = line_gadget(0.0, 1)
        s = ReferenceOracle(g)
        with pytest.raises(ValueError):
            s.degree(2)
        with pytest.raises(ValueError):
            s.neighbor(0, 0)
        with pytest.raises(ValueError):
            s.neighbor(0, 3)
        with pytest.raises(ValueError):
            s.coord(-1)
        bulk = OracleSession(g)
        for call, vs in ((bulk.degrees, [0, 2]), (bulk.charge_coords, [-1, 1]),
                         (bulk.charge_neighbor_rows, [2])):
            with pytest.raises(ValueError, match="out of range"):
                call(vs)
        assert bulk.query_count == QueryTally()

    def test_star_slot_reads_are_charged(self):
        g = graph_from_rows(np.zeros((3, 1)), (np.array([1]), np.array([]), np.array([])))
        s = ReferenceOracle(g)
        assert s.neighbor(0, 2) is None
        assert s.neighbor(0, 2) is None
        assert s.query_count.neighbor == 1

    def test_query_accounting_matches_distinct_triples(self):
        rng = np.random.default_rng(5)
        g = line_gadget(0.0, 4)
        s = ReferenceOracle(g)
        asked = set()
        for _ in range(500):
            kind = rng.integers(0, 3)
            v = int(rng.integers(0, g.n))
            if kind == 0:
                i = int(rng.integers(1, g.n + 1))
                s.neighbor(v, i)
                asked.add(("nbr", v, i))
            elif kind == 1:
                s.degree(v)
                asked.add(("deg", v))
            else:
                s.coord(v)
                asked.add(("coord", v))
        assert s.query_count.total == len(asked)

    def test_bulk_calls_match_single_calls(self):
        g = graph_from_rows(
            np.arange(12.0).reshape(6, 2),
            ([1, 2], [], [0, 1, 3], [4], [5, 0, 1, 2], [2]),
        )
        a, b = OracleSession(g), ReferenceOracle(g)
        vs = [0, 3, 3, 5, 0]
        assert a.degrees(vs).tolist() == [b.degree(v) for v in vs]
        assert a.charge_coords(vs) is None
        assert np.array_equal(g.coords[vs], [b.coord(v) for v in vs])
        assert a.query_count == b.query_count
        # whole rows, some of them read in part on the reference side first
        b.neighbor(4, 3)
        b.neighbor(2, 1)
        b.degree(1)
        a.charge_neighbor_rows([4, 1, 4, 2, 0])
        for v in (4, 1, 2, 0):
            row = [b.neighbor(v, i) for i in range(1, b.degree(v) + 1)]
            assert row == g.neighbors(v).tolist()
        assert a.query_count == b.query_count
        a.charge_neighbor_rows([2, 0])
        a.charge_neighbor_rows([5])
        assert [b.neighbor(5, i) for i in range(1, b.degree(5) + 1)] == [2]
        assert a.query_count == b.query_count == QueryTally(neighbor=10, degree=6, coord=3)

    def test_sessions_on_shared_graph_are_independent(self):
        g = line_gadget(0.0, 2)
        s1, s2 = OracleSession(g), OracleSession(g)
        s1.degrees([0])
        assert s2.query_count.total == 0
        s2.charge_coords([1])
        assert s1.query_count == QueryTally(degree=1)

    def test_concurrent_sessions_on_shared_graph(self):
        import threading

        from knncheck.exact import build_exact_knn_graph

        g = build_exact_knn_graph(np.random.default_rng(9).random((60, 2)), 3)
        tallies = [None] * 4

        def worker(idx):
            s = OracleSession(g)
            for v in range(g.n):
                s.degrees([v])
                s.charge_coords([v])
                s.charge_neighbor_rows([v])
            tallies[idx] = s.query_count

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tally in tallies:
            assert tally.degree == 60 and tally.coord == 60 and tally.neighbor == 180

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_call_sequence_tallies_as_the_single_reads(self, data):
        """Random CSR graphs, degree-0 rows included, under any interleaving of the bulk calls, repeats too."""
        n = data.draw(st.integers(1, 12))
        edges = st.lists(st.booleans(), min_size=n, max_size=n)
        rows = [[u for u, on in enumerate(data.draw(edges)) if on and u != v] for v in range(n)]
        g = graph_from_rows(np.arange(float(n))[:, None], rows)
        a, b = OracleSession(g), ReferenceOracle(g)
        single = {
            "degrees": b.degree,
            "charge_neighbor_rows": lambda v: [b.neighbor(v, i) for i in range(1, b.degree(v) + 1)],
            "charge_coords": b.coord,
        }
        vertices = st.lists(st.integers(0, n - 1), max_size=2 * n)
        for name, vs in data.draw(st.lists(st.tuples(st.sampled_from(sorted(single)), vertices), max_size=8)):
            getattr(a, name)(vs)
            for v in vs:
                single[name](v)
            assert a.query_count == b.query_count

    def test_a_full_charge_holds_no_array_per_edge(self):
        """Three n-entry masks: at n = 2**16, k = 64, well under the n*k bytes of a mask over the slots."""
        g = circulant_graph(2**16, 64, seed=2)
        vs = np.arange(g.n)
        tracemalloc.start()
        try:
            s = OracleSession(g)
            s.charge_neighbor_rows(vs)
            s.charge_coords(vs)
            assert s.query_count == QueryTally(neighbor=g.num_edges, degree=g.n, coord=g.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.n


class TestEdgeBudget:
    def test_computed_is_average_degree(self):
        g = line_gadget(0.0, 3)
        b = EdgeBudget.computed(g)
        assert b.d == g.num_edges / g.n and b.source == "computed"

    def test_provided(self):
        b = EdgeBudget.provided(7.5)
        assert b.d == 7.5 and b.source == "provided"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EdgeBudget.provided(0.0)

    def test_computed_rejects_edgeless_graph(self):
        g = graph_from_rows(np.zeros((2, 1)), (np.array([]), np.array([])))
        with pytest.raises(ValueError, match="the graph has no edges, so the edge budget d must be given"):
            EdgeBudget.computed(g)


def _exact_filter_error(x, y, f, margin):
    """Per pair, |F + X - D| - M in exact rationals, X the exact squared norm of fl(x - x[0])."""
    xc = x - x[0]
    xnorms = [sum(Fraction(float(v)) ** 2 for v in row) for row in xc]
    d = dist2_block(x, y)
    return [[abs(Fraction(float(f[i, j])) + xnorms[i] - Fraction(float(d[i, j]))) - Fraction(float(margin[i]))
             for j in range(y.shape[0])] for i in range(x.shape[0])]


_FILTER_SCALES = (1.0, 1e-3, 1e3, 1e-100, 1e100, 2.0**-240, 2.0**240)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_filter_and_its_recheck_decide_every_pair_as_sum_squares(data):
    # a random centre and scale, on floats or on a few lattice values (ties, repeats)
    m, n, delta = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8)), data.draw(st.integers(1, 9))
    centre = data.draw(st.sampled_from((0.0, 1.0, -3.5, 1e8, -1e12, 2.0**200, 1e-200)))
    scale = data.draw(st.sampled_from(_FILTER_SCALES))
    unit = st.floats(-1, 1) if data.draw(st.booleans()) else st.sampled_from((-1.0, 0.0, 0.5, 1.0))
    pts = np.array(data.draw(st.lists(unit, min_size=(m + n) * delta, max_size=(m + n) * delta)))
    pts = pts.reshape(m + n, delta) * scale + centre
    x, y = pts[:m], pts[m:]
    out = dist2_filter(x, y)
    if out is None:
        top = max(np.sum((x - x[0]) ** 2, axis=1).max(), np.sum((y - x[0]) ** 2, axis=1).max())
        assert not 2.0**-500 <= top <= 2.0**500
        return
    f, xnorm, margin = out
    assert f.shape == (m, n) and xnorm.shape == margin.shape == (m,)
    error = _exact_filter_error(x, y, f, margin)
    assert all(e <= 0 for row in error for e in row)
    # a threshold per row at one of its distances, maybe one step off: the filter
    # decides the pairs its margin clears, and sum_squares re-checks the others
    d = dist2_block(x, y)
    xnorms = [sum(Fraction(float(v)) ** 2 for v in row) for row in x - x[0]]
    for i in range(m):
        t = np.nextafter(d[i, data.draw(st.integers(0, n - 1))], data.draw(st.sampled_from((-np.inf, 0.0, np.inf))))
        for j in range(n):
            value, bound = Fraction(float(f[i, j])) + xnorms[i], Fraction(float(margin[i]))
            inside = (True if value + bound <= Fraction(float(t)) else False if value - bound > Fraction(float(t))
                      else bool(d[i, j] <= t))
            assert inside == bool(d[i, j] <= t)
        # t as a row's bound: the filter's right-hand side, rounded, rules out no pair within it
        assert np.all(f[i][d[i] <= t] <= t - xnorm[i] + margin[i])


def test_filter_margin_covers_underflow():
    # rows and columns near 2**-530 beside one far row: their products and squares are
    # subnormal, so F + X and D differ by a few 2**-1074 where the relative margin is 0
    rng = np.random.default_rng(3)
    x = np.vstack([np.zeros((1, 3)), np.ones((1, 3)), rng.random((6, 3)) * 2.0**-530])
    y = rng.random((8, 3)) * 2.0**-530
    f, _, margin = dist2_filter(x, y)
    error = _exact_filter_error(x, y, f, margin)
    assert all(e <= 0 for row in error for e in row)
    assert any(e + Fraction(float(margin[i])) > 0 for i, row in enumerate(error[2:], 2) for e in row)


@pytest.mark.parametrize("m, delta", [(1, 1), (1, 8), (5, 3), (32, 8), (128, 8), (128, 40)])
def test_filter_products_stay_below_openblas_thread_thresholds(monkeypatch, m, delta):
    # OpenBLAS runs gemm on the calling thread up to m*n*k = 2**18, and gemv (one row) below 9216
    shapes, matmul = [], np.matmul

    def recording(a, b, out):
        shapes.append((a.shape[0], b.shape[1], a.shape[1]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(core.np, "matmul", recording)
    rng = np.random.default_rng(m + delta)
    x, y = rng.random((m, delta)), rng.random((3000, delta))
    f, _, _ = dist2_filter(x, y)
    monkeypatch.undo()
    assert sum(cols for _, cols, _ in shapes) == 3000
    assert all(rows * cols * k <= 2**18 and (rows > 1 or cols * k < 9216) for rows, cols, k in shapes)
    assert np.allclose(f + ((x - x[0]) ** 2).sum(axis=1)[:, None], dist2_block(x, y), atol=1e-12)
