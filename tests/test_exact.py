"""Ground-truth semantics: num_nearer, witnesses, exact construction, distance."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BruteForceProfile,
    corruptible_fraction,
    exhaustive_min_edits,
    graph_from_rows,
    k_reduce,
    num_nearer,
    overflow_points,
    random_small_graph,
    rows_of,
)
from knncheck import exact
from knncheck.core import EdgeBudget, GeometricGraph
from knncheck.exact import (
    NeighborhoodProfile,
    build_exact_knn_graph,
    epsilon_distance,
    k_nearest_set,
    max_shared_knn,
    witnesses_of,
)
from knncheck.generators import (
    corrupt_edges,
    dimension_lb_instances,
    line_gadget,
    sample_d1,
    tight_witness_construction,
)
from knncheck.tester import kissing_number


def _points_graph(coords):
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    return graph_from_rows(coords, tuple(np.empty(0, dtype=np.int64) for _ in coords))


class TestNumNearer:
    def test_collinear(self):
        g = _points_graph([0.0, 1.0, 2.0, 3.0])
        assert num_nearer(g, 0, 3) == 2

    def test_unique_nearest(self):
        g = _points_graph([0.0, 1.0, 5.0])
        assert num_nearer(g, 0, 1) == 0

    def test_tie_does_not_count(self):
        g = _points_graph([0.0, 1.0, -1.0])
        assert num_nearer(g, 0, 1) == 0

    def test_rejects_equal_vertices(self):
        g = _points_graph([0.0, 1.0])
        with pytest.raises(ValueError):
            num_nearer(g, 1, 1)


class TestKNearestSet:
    def test_gadget_endpoint_sees_whole_gadget(self):
        k = 3
        g = line_gadget(0.0, k)
        assert k_nearest_set(g, 0, k) == {1, 2, 3}

    def test_square_corners(self):
        g = _points_graph([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        # brute force on the square: the two edge-adjacent corners
        assert k_nearest_set(g, 0, 2) == {1, 3}
        assert k_nearest_set(g, 2, 2) == {1, 3}

    def test_tie_admits_both(self):
        g = _points_graph([0.0, 1.0, -1.0])
        assert k_nearest_set(g, 0, 1) == {1, 2}


class TestWitnesses:
    def test_exact_knn_graph_has_no_incomplete_vertex(self):
        pts = np.random.default_rng(1).random((30, 2))
        g = build_exact_knn_graph(pts, 3)
        for v in range(g.n):
            w = witnesses_of(g, v, 3)
            assert not w.witnesses and not w.incomplete

    def test_deleted_gadget_edge_leaves_witness(self):
        k = 2
        base = line_gadget(0.0, k)
        adjacency = rows_of(base)
        # remove edge 0 -> 1
        adjacency[0] = np.array([u for u in adjacency[0] if u != 1], dtype=np.int64)
        g = graph_from_rows(base.coords, tuple(adjacency))
        assert 1 in witnesses_of(g, 0, k).witnesses

    def test_low_degree_vertex_incomplete_via_degree_clause(self):
        k = 3
        g = graph_from_rows(
            np.arange(5, dtype=np.float64)[:, None],
            (np.array([1, 2]), np.array([0, 2, 3]), np.array([1, 3, 0]),
             np.array([2, 4, 1]), np.array([3, 2, 1])),
        )
        w = witnesses_of(g, 0, k)
        assert w.degree_deficit == 1 and w.incomplete


class TestBuildExactKnn:
    def test_gadget_points_give_complete_digraph(self):
        k = 3
        gadget = line_gadget(0.0, k)
        g = build_exact_knn_graph(gadget.coords, k)
        assert g.num_edges == (k + 1) * k
        for v in range(g.n):
            assert set(g.neighbors(v).tolist()) == {u for u in range(g.n) if u != v}

    def test_symmetric_tie_broken_toward_smaller_id(self):
        # 3-4-5 layout: vertex 0 is equidistant from 1 and 2
        pts = [[0.0, 0.0], [3.0, 4.0], [-3.0, 4.0]]
        g = build_exact_knn_graph(pts, 1)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]
        assert g.neighbors(2).tolist() == [0]

    def test_random_output_is_at_distance_zero(self):
        pts = np.random.default_rng(2).random((64, 2))
        g = build_exact_knn_graph(pts, 4)
        assert epsilon_distance(g, 4).min_edits == 0

    def test_out_degree_exactly_k_under_heavy_ties(self):
        pts = np.zeros((9, 2))
        pts[4:, 0] = 1.0
        g = build_exact_knn_graph(pts, 3)
        assert np.all(g.degrees == 3)
        assert epsilon_distance(g, 3).min_edits == 0

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            build_exact_knn_graph(np.zeros((3, 1)), 3)
        profile = NeighborhoodProfile(np.arange(5.0)[:, None], 2)
        with pytest.raises(ValueError, match="does not match"):
            profile.report(build_exact_knn_graph(np.arange(4.0)[:, None], 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_profile_rejects_non_finite_points(self, bad):
        pts = np.random.default_rng(7).random((50, 2))
        pts[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            NeighborhoodProfile(pts, 3)

    @pytest.mark.parametrize("shape", [(50,), (50, 0), (5, 5, 2)])
    def test_profile_rejects_points_not_in_a_matrix(self, shape):
        with pytest.raises(ValueError, match="2-d"):
            NeighborhoodProfile(np.zeros(shape), 3)


class TestEpsilonDistance:
    def test_exact_graph_distance_zero(self):
        pts = np.random.default_rng(3).random((50, 3))
        g = build_exact_knn_graph(pts, 5)
        rep = epsilon_distance(g, 5)
        assert rep.min_edits == 0 and rep.epsilon_distance == 0.0
        assert rep.incomplete_count == 0

    def test_gadget_with_emptied_gadget_needs_k_times_k1_edits(self):
        k = 3
        n = 24
        g = sample_d1(n, k, seed=8)
        # empty the out-lists of one whole gadget, located via its coordinates
        base = np.min(g.coords[:, 0])
        members = np.flatnonzero(g.coords[:, 0] <= base + k)
        assert members.size == k + 1
        adjacency = rows_of(g)
        for v in members:
            adjacency[int(v)] = np.empty(0, dtype=np.int64)
        gutted = graph_from_rows(g.coords, tuple(adjacency))
        rep = epsilon_distance(gutted, k, EdgeBudget.provided(k))
        assert rep.min_edits == k * (k + 1)

    def test_min_edits_zero_iff_no_incomplete_on_tie_free_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(6, 16))
            pts = rng.normal(size=(n, 2))
            k = int(rng.integers(1, 4))
            g = build_exact_knn_graph(pts, k)
            if rng.random() < 0.5:
                adjacency = rows_of(g)
                v = int(rng.integers(0, n))
                adjacency[v] = adjacency[v][1:]
                g = graph_from_rows(g.coords, tuple(adjacency))
            rep = epsilon_distance(g, k, EdgeBudget.provided(k))
            assert (rep.min_edits == 0) == (rep.incomplete_count == 0)

    def test_tie_insensitivity_under_id_permutation(self):
        rng = np.random.default_rng(5)
        pts = np.zeros((10, 1))
        pts[5:] = 1.0  # massive ties
        g = build_exact_knn_graph(pts, 2)
        for _ in range(10):
            perm = rng.permutation(g.n)
            inv = np.argsort(perm)
            coords = g.coords[inv]
            adjacency = [None] * g.n
            for v in range(g.n):
                adjacency[perm[v]] = np.array(
                    [perm[u] for u in g.neighbors(v)], dtype=np.int64
                )
            permuted = graph_from_rows(coords, tuple(adjacency))
            assert epsilon_distance(permuted, 2, EdgeBudget.provided(2)).min_edits == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_oracle_on_random_small_graphs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            k = int(rng.integers(1, 4))
            g = random_small_graph(rng, k)
            rep = epsilon_distance(g, k, EdgeBudget.provided(float(k)))
            assert rep.min_edits == exhaustive_min_edits(g, k)


class TestMaxSharedKnn:
    def test_two_points(self):
        assert max_shared_knn(np.array([[0.0], [1.0]]), 1) == 1

    def test_tight_construction_delta3(self):
        g, focal = tight_witness_construction(3, 2)
        assert focal == 0
        assert max_shared_knn(g.coords, 2) == 24

    def test_random_plane_sets_respect_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pts = rng.random((200, 2))
            assert max_shared_knn(pts, 3) <= 3 * kissing_number(2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.random.default_rng(6).random((50, 2))
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            max_shared_knn(pts, 3)


class TestKReducing:
    """The pruning procedure, run as a verification device for the sharing bound."""

    @pytest.mark.parametrize("delta,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_survivors_and_removals_bounded(self, delta, k):
        rng = np.random.default_rng(10 * delta + k)
        psi = kissing_number(delta)
        for _ in range(5):
            pts = rng.normal(size=(40, delta))
            p = int(rng.integers(0, len(pts)))
            survivors, removals = k_reduce(pts, p, k)
            assert len(survivors) <= psi
            assert all(r <= k - 1 for r in removals)

    def test_on_tight_construction(self):
        k = 2
        g, focal = tight_witness_construction(3, k)
        survivors, removals = k_reduce(g.coords, focal, k)
        assert len(survivors) <= kissing_number(3)
        assert all(r <= k - 1 for r in removals)


def _csr_sets(indptr, indices):
    return [frozenset(indices[indptr[v] : indptr[v + 1]].tolist()) for v in range(indptr.size - 1)]


def _ragged_graph(ref, seed):
    """Degrees k - 1, k and 2k in turn (at most n - 1) with row 0 empty, drawn per vertex
    from its ids inside and at the k-th distance and 2k other vertices."""
    rng = np.random.default_rng(seed)
    n, k = ref.n, ref.k
    rows = [np.empty(0, dtype=np.int64)]
    for v in range(1, n):
        others = rng.choice(np.delete(np.arange(n), v), min(2 * k, n - 1), replace=False)
        pool = np.union1d(sorted(ref.inside[v] | ref.at[v]), others)
        rows.append(rng.choice(pool, min(pool.size, (k - 1, k, 2 * k)[v % 3]), replace=False))
    return graph_from_rows(ref.coords, rows)


def _assert_matches_brute_force(points, k, graphs=()):
    """The indexed kernel equals the O(n^2) reference on every vertex and report.

    The reports cover the exact graph, ``graphs``, a corrupted copy, a ragged
    graph, and the exact adjacency over a shuffled point set of the same n,
    whose distances the profile must not read.
    """
    p = NeighborhoodProfile(points, k)
    ref = BruteForceProfile(points, k)
    assert _csr_sets(p.inside_indptr, p.inside_indices) == ref.inside
    assert _csr_sets(p.at_indptr, p.at_indices) == ref.at
    for indptr, indices in ((p.inside_indptr, p.inside_indices), (p.at_indptr, p.at_indices)):
        assert all(np.all(np.diff(indices[indptr[v] : indptr[v + 1]]) > 0) for v in range(p.n))
    assert np.array_equal(p.knn, np.stack(ref.knn))
    built = build_exact_knn_graph(points, k)
    assert built.equals(ref.graph()) and built.k_hint == k
    assert max_shared_knn(points, k) == ref.max_shared()
    for g in _report_graphs(ref, graphs):
        for budget in _budgets(g, k):
            assert p.report(g, budget) == ref.report(g, budget)


def _report_graphs(ref, graphs=()):
    """The exact graph, ``graphs``, a ragged graph, the exact adjacency over a shuffled point
    set of the same n, whose distances a profile must not read, and a corrupted copy."""
    base = ref.graph()
    shuffled = np.random.default_rng(ref.k).permutation(ref.coords)
    checked = [base, *graphs, _ragged_graph(ref, ref.k), GeometricGraph(shuffled, base.indptr, base.indices)]
    if ref.n > ref.k + 1:  # a complete digraph has no slot to corrupt
        checked.append(corrupt_edges(base, corruptible_fraction(ref.n, ref.k, 0.3), 1))
    return checked


def _budgets(g, k):
    # a computed budget needs at least one edge
    return ([None] if g.num_edges else []) + [EdgeBudget.provided(float(k))]


class TestKernelMatchesBruteForce:
    """Cross-checks of the leaf-indexed kernel against tests/helpers.BruteForceProfile."""

    @staticmethod
    def _kernel_paths(monkeypatch):
        """Each _select call's rows and candidate count, in call order."""
        calls = []
        select = exact._select

        def select_spy(coords, rows, cand, k):
            calls.append((rows, cand.size))
            return select(coords, rows, cand, k)

        monkeypatch.setattr(exact, "_select", select_spy)
        return calls

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_lattice_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            g = random_small_graph(rng, k)
            _assert_matches_brute_force(g.coords, k, [g])

    @pytest.mark.parametrize("delta", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tight_witness_construction(self, delta, k):
        g, _ = tight_witness_construction(delta, k)
        _assert_matches_brute_force(g.coords, k, [g])

    @pytest.mark.parametrize("k", [1, 2])
    def test_dimension_lb_instances(self, k):
        for g in dimension_lb_instances(k, 0.1, 8):
            _assert_matches_brute_force(g.coords, k, [g])

    @pytest.mark.parametrize("delta", [1, 2, 5])
    def test_all_coincident_points(self, delta):
        _assert_matches_brute_force(np.full((40, delta), 0.25), 3)

    def test_collinear_gadgets(self):
        for k in (1, 2, 3):
            gadget = line_gadget(2.0, k)
            _assert_matches_brute_force(gadget.coords, k, [gadget])
            g = sample_d1(60 * (k + 1), k, seed=k)
            _assert_matches_brute_force(g.coords, k, [g])

    def test_delta8_gaussian_mixture(self):
        rng = np.random.default_rng(8)
        centers = rng.random((8, 8))
        pts = centers[rng.integers(0, 8, size=1500)] + rng.normal(0.0, 0.05, size=(1500, 8))
        _assert_matches_brute_force(pts, 10)

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_uniform_points(self, delta):
        pts = np.random.default_rng(delta).random((3000, delta))
        _assert_matches_brute_force(pts, 10)

    def test_integer_lattice_with_repeated_points(self):
        # every vertex has ties at its k-th distance, and many points lie on
        # the faces of leaf and unit boxes, so box gaps equal to thr are common
        rng = np.random.default_rng(9)
        pts = rng.integers(0, 40, size=(2500, 2)).astype(np.float64)
        _assert_matches_brute_force(pts, 6)
        _assert_matches_brute_force(np.vstack([pts, pts[:500]]), 4)

    def test_far_outlier_and_distant_clusters(self):
        rng = np.random.default_rng(10)
        pts = np.vstack([rng.random((800, 2)), rng.random((800, 2)) + 1e3, [[-1e6, 5.0]]])
        _assert_matches_brute_force(pts, 5)

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("delta", [1, 2, 3, 8])
    def test_coordinates_whose_distances_overflow(self, monkeypatch, delta, jitter):
        # many distances overflow to inf, so some units' thr is inf and their rows
        # take every point; where a k-th distance is inf too (all but delta=1
        # without jitter), the vertex must not land in its own set, so the exact
        # graph is a valid graph at distance 0
        pts = overflow_points(np.random.default_rng(14 + delta), 300, delta, jitter)
        calls = self._kernel_paths(monkeypatch)
        with np.errstate(over="ignore"):
            _assert_matches_brute_force(pts, 5)
            p = NeighborhoodProfile(pts, 5)
            assert p.report(p.graph).min_edits == 0
        assert 600 in {c for _, c in calls}

    def test_leaf_pass_settles_every_uniform_vertex(self, monkeypatch):
        calls = self._kernel_paths(monkeypatch)
        NeighborhoodProfile(np.random.default_rng(11).random((4096, 2)), 10)
        rows = np.concatenate([r for r, _ in calls])
        assert np.array_equal(np.sort(rows), np.arange(4096))
        # about 350 candidates per row; a full scan would take 4096
        assert sum(r.size * c for r, c in calls) / 4096 < 450

    def test_units_of_at_most_k_points_take_every_point(self, monkeypatch):
        # units hold at most 80 points here, and the index's repeated points
        # leave some with fewer than 77, whose rows take all 600 candidates
        pts = np.random.default_rng(12).random((600, 2))
        calls = self._kernel_paths(monkeypatch)
        _assert_matches_brute_force(pts, 76)
        sizes = {c for _, c in calls}
        assert 600 in sizes and min(sizes) < 600

    def test_per_vertex_views_equal_kernel_rows(self):
        rng = np.random.default_rng(12)
        pts = rng.integers(0, 6, size=(300, 2)).astype(np.float64)
        k = 4
        p = NeighborhoodProfile(pts, k)
        g = p.graph
        inside = _csr_sets(p.inside_indptr, p.inside_indices)
        at = _csr_sets(p.at_indptr, p.at_indices)
        for v in range(0, g.n, 7):
            assert k_nearest_set(g, v, k) == inside[v] | at[v]
            assert all(num_nearer(g, v, int(u)) == len(inside[v]) for u in at[v])
            assert witnesses_of(g, v, k).witnesses == (inside[v] | at[v]) - set(p.knn[v].tolist())

    def test_scipy_ckdtree_k_sets_without_ties(self):
        spatial = pytest.importorskip("scipy.spatial")
        n, k = 16384, 10
        pts = np.random.default_rng(13).random((n, 2))
        p = NeighborhoodProfile(pts, k)
        # no ties: exactly k ids within the k-th distance, none of them at a tie
        assert np.all(np.diff(p.inside_indptr) == k - 1)
        assert np.all(np.diff(p.at_indptr) == 1)
        _, ids = spatial.cKDTree(pts).query(pts, k + 1)
        assert np.all(ids[:, 0] == np.arange(n))
        assert np.array_equal(np.sort(ids[:, 1:], axis=1), np.sort(p.knn, axis=1))

    def test_profile_keeps_no_distance_block_alive(self):
        # one distance block is bounded; holding every block evaluated would
        # cost about 60 MB here, so the traced peak bounds what stays alive
        pts = np.random.default_rng(15).random((16384, 2))
        tracemalloc.start()
        try:
            NeighborhoodProfile(pts, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestProfileMemory:
    """Traced peaks: a profile holds its arrays plus one block, and a report one row block."""

    @staticmethod
    def _traced(f, *args):
        """f(*args) and the peak of the memory that tracemalloc sees it allocate."""
        tracemalloc.start()
        try:
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_profile_holds_its_arrays_plus_one_block(self):
        # the ids inside each k-th distance are read from knn, never stored
        pts = np.random.default_rng(16).random((1 << 16, 2))
        p, peak = self._traced(NeighborhoodProfile, pts, 10)
        kept = sum(a.nbytes for a in (p.kth, p.knn, p.inside_indptr, p.at_indptr, p.at_indices))
        assert peak <= kept + 8 * 2**20

    def test_report_holds_one_row_block_and_builds_no_inside_ids(self):
        p = NeighborhoodProfile(np.random.default_rng(17).random((1 << 16, 2)), 10)
        g = corrupt_edges(p.graph, 0.01, 1)
        report, peak = self._traced(p.report, g)
        assert peak <= 4 * 2**20
        assert report.min_edits == np.ceil(0.01 * g.num_edges)
        assert "inside_indices" not in vars(p)
        inside = p.inside_indices
        assert inside is p.inside_indices and not inside.flags.writeable
        assert inside.size == p.inside_indptr[-1] == 9 * p.n


class TestReportBlocks:
    """A report's row blocks change no DistanceReport."""

    @staticmethod
    def _corpus(name):
        rng = np.random.default_rng(18)
        if name == "small graphs":
            graphs = [(k, random_small_graph(rng, k)) for k in (1, 2, 3) for _ in range(4)]
            return [(g.coords, k, [g]) for k, g in graphs]
        points, k = {
            # ties at the k-th distance of most vertices, and repeated points
            "lattice": (rng.integers(0, 12, size=(300, 2)).astype(np.float64), 4),
            # ragged rows of 2k = 40 slots, longer than the blocks of 7 and 37
            "long rows": (rng.random((400, 2)), 20),
            "coincident": (np.full((40, 2), 0.25), 3),
            "overflow": (overflow_points(rng, 100, 2, False), 5),
        }[name]
        return [(points, k, [])]

    @pytest.mark.parametrize("block", [1, 7, 37])
    @pytest.mark.parametrize("name", ["small graphs", "lattice", "long rows", "coincident", "overflow"])
    def test_block_size_changes_no_report(self, monkeypatch, block, name):
        with np.errstate(over="ignore"):
            for points, k, graphs in self._corpus(name):
                p = NeighborhoodProfile(points, k)
                checked = _report_graphs(BruteForceProfile(points, k), graphs)
                default = [[p.report(g, b) for b in _budgets(g, k)] for g in checked]
                with monkeypatch.context() as m:
                    m.setattr(exact, "_REPORT_BLOCK", block)
                    assert [[p.report(g, b) for b in _budgets(g, k)] for g in checked] == default


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_report_equals_the_brute_force_report_for_any_block(data):
    n = data.draw(st.integers(2, 16))
    delta = data.draw(st.integers(1, 3))
    # few distinct coordinates: ties at the k-th distance and coincident points are common
    flat = data.draw(st.lists(st.integers(-2, 2), min_size=n * delta, max_size=n * delta))
    coords = np.array(flat, dtype=np.float64).reshape(n, delta)
    k = data.draw(st.integers(1, n - 1))
    rows = []
    for v in range(n):
        order = data.draw(st.permutations([u for u in range(n) if u != v]))
        rows.append(order[: data.draw(st.integers(0, n - 1))])
    g = graph_from_rows(coords, rows)
    budget = EdgeBudget.provided(float(k))
    p = NeighborhoodProfile(coords, k)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_REPORT_BLOCK", data.draw(st.integers(1, n * n)))
        assert p.report(g, budget) == BruteForceProfile(coords, k).report(g, budget)
