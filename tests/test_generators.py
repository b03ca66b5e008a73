"""Instance generators: gadget distributions, tight construction, corruption,
dimension lower-bound pair."""

import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    circulant_graph,
    graph_from_rows,
    reference_corrupt_edges,
    reference_gadget_graph,
    reference_graph_to_text,
    reference_row_fault,
)
from knncheck import core, generators
from knncheck.core import EdgeBudget
from knncheck.exact import (
    NeighborhoodProfile,
    build_exact_knn_graph,
    epsilon_distance,
    max_shared_knn,
    witnesses_of,
)
from knncheck.generators import (
    corrupt_edges,
    dimension_lb_instances,
    icosahedron_directions,
    line_gadget,
    sample_d1,
    sample_d2,
    tight_witness_construction,
)
from knncheck.graphio import graph_from_text, graph_to_text
from knncheck.sampling import rng_from, split_seed
from knncheck.tester import kissing_number


class TestLineGadget:
    def test_k2_structure(self):
        g = line_gadget(0.0, 2)
        assert g.n == 3 and g.num_edges == 6
        assert g.coords[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_is_a_knn_graph(self):
        for k in (1, 2, 4):
            g = line_gadget(-3.5, k)
            assert epsilon_distance(g, k).min_edits == 0

    def test_k1_offset(self):
        g = line_gadget(5.0, 1)
        assert g.n == 2 and g.num_edges == 2
        assert g.coords[:, 0].tolist() == [5.0, 6.0]
        with pytest.raises(ValueError, match="k must be at least 1"):
            line_gadget(5.0, 0)

    def test_padded_embedding(self):
        g = line_gadget(1.0, 2, delta=3)
        assert g.delta == 3
        assert np.all(g.coords[:, 1:] == 0.0)


class TestSampleD1:
    def test_bases_at_three_k_prime_spacing(self):
        g = sample_d1(12, 3, seed=0)
        coords = set(g.coords[:, 0].tolist())
        starts = sorted(x for x in coords if x - 1.0 not in coords)
        assert starts == [0.0, 12.0, 24.0]

    def test_always_distance_zero(self):
        for seed in range(10):
            g = sample_d1(24, 2, seed=seed)
            assert epsilon_distance(g, 2).min_edits == 0

    def test_deterministic(self):
        assert sample_d1(20, 3, seed=5).equals(sample_d1(20, 3, seed=5))
        assert not sample_d1(20, 3, seed=5).equals(sample_d1(20, 3, seed=6))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_d1(13, 3, seed=0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gadget_rows_are_gathered_as_the_scatter_writes_them(data):
    k, gadgets, delta = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    perm = np.array(data.draw(st.permutations(range(gadgets * (k + 1)))), dtype=np.int64)
    # bases may repeat, as sample_d2's relocated gadgets do
    base = np.array(data.draw(st.lists(st.sampled_from([-7.5, 0.0, 3.0, 1e6]), min_size=gadgets, max_size=gadgets)))
    assert generators._gadget_graph(k, base, perm, delta).equals(reference_gadget_graph(k, base, perm, delta))


@pytest.mark.parametrize("k", [1, 3, 10])
def test_gadget_samplers_equal_the_scatter(k):
    n, k1 = 60 * (k + 1), k + 1
    d1 = reference_gadget_graph(k, generators._base_positions(n // k1, k1), rng_from(4).permutation(n))
    assert sample_d1(n, k, seed=4).equals(d1)
    g = sample_d2(n, k, 0.2, seed=5)
    perm = rng_from(split_seed(5, 2)[1]).permutation(n)
    # sample_d2's own base, relocated gadgets on others' bases: each gadget's offset-0 coordinate
    assert g.equals(reference_gadget_graph(k, g.coords[perm[::k1], 0], perm))
    assert line_gadget(2.5, k, delta=3).equals(reference_gadget_graph(k, np.array([2.5]), np.arange(k1), 3))


class TestSampleD2:
    def test_relocation_count_and_coincidence(self):
        g = sample_d2(40, 3, 0.1, seed=2)
        # ceil(0.1 * 40 / 4) = 1 relocated gadget: 4 coordinate values held twice
        values, counts = np.unique(g.coords[:, 0], return_counts=True)
        assert np.sum(counts == 2) == 4
        assert np.sum(counts > 2) == 0

    def test_distance_exceeds_epsilon(self):
        # parameters chosen so ceil(eps*n/k') rounds up strictly
        for seed in range(8):
            g = sample_d2(60, 2, 0.07, seed=seed)
            rep = epsilon_distance(g, 2, EdgeBudget.provided(2.0))
            assert rep.epsilon_distance > 0.07

    def test_relocated_vertices_gain_witnesses_from_the_twin(self):
        # brute force on the 8 co-located vertices: gadget-interior vertices
        # gain k witnesses, the two endpoint positions gain k-1, and every
        # witness lies within the co-located pair
        k = 3
        g = sample_d2(40, k, 0.1, seed=9)
        values, counts = np.unique(g.coords[:, 0], return_counts=True)
        shared = values[counts == 2]
        co_located = set(int(v) for v in np.flatnonzero(np.isin(g.coords[:, 0], shared)))
        assert len(co_located) == 2 * (k + 1)
        lo, hi = shared.min(), shared.max()
        for v in co_located:
            w = witnesses_of(g, v, k)
            assert w.incomplete
            assert w.witnesses <= co_located
            at_end = g.coords[v, 0] in (lo, hi)
            assert len(w.witnesses) >= (k - 1 if at_end else k)

    def test_determinism_and_precondition(self):
        assert sample_d2(24, 1, 0.2, seed=1).equals(sample_d2(24, 1, 0.2, seed=1))
        with pytest.raises(ValueError):
            sample_d2(12, 1, 0.9, seed=0)  # more relocations than gadget pairs

    @pytest.mark.parametrize("n, k", [(44, 3), (24, 1), (4095, 2), (10, 4)])
    def test_largest_epsilon_builds_and_one_more_relocation_fails(self, n, k):
        m = n // (k + 1)
        largest = (m // 2) / m
        g = sample_d2(n, k, largest, seed=0)
        _, counts = np.unique(g.coords[:, 0], return_counts=True)
        assert np.sum(counts == 2) == (m // 2) * (k + 1)
        # the next epsilon asks for one more relocation than distinct gadgets allow
        with pytest.raises(ValueError, match=rf"allow epsilon up to {m // 2}/{m} = {largest!r}$"):
            sample_d2(n, k, (m // 2 + 1) / m, seed=0)


class TestTightConstruction:
    def test_delta3_counts(self):
        g, focal = tight_witness_construction(3, 2)
        assert g.n == 25 and focal == 0
        assert max_shared_knn(g.coords, 2) == 2 * kissing_number(3)

    def test_delta1_k1(self):
        g, focal = tight_witness_construction(1, 1)
        assert g.n == 3
        assert sorted(g.coords[:, 0].tolist()) == [-1.0, 0.0, 1.0]
        assert max_shared_knn(g.coords, 1) == 2

    def test_delta3_k1(self):
        g, _ = tight_witness_construction(3, 1)
        assert g.n == 13
        assert max_shared_knn(g.coords, 1) == 12

    @pytest.mark.parametrize("delta,k", [(1, 1), (1, 3), (3, 1), (3, 2), (3, 3)])
    def test_attains_k_psi_exactly(self, delta, k):
        g, _ = tight_witness_construction(delta, k)
        assert max_shared_knn(g.coords, k) == k * kissing_number(delta)

    @pytest.mark.parametrize("delta,k", [(1, 2), (3, 2)])
    def test_removing_one_copy_drops_count_by_at_most_one(self, delta, k):
        g, _ = tight_witness_construction(delta, k)
        full = max_shared_knn(g.coords, k)
        for drop in range(1, g.n):
            reduced = np.delete(g.coords, drop, axis=0)
            assert full - max_shared_knn(reduced, k) <= 1

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            tight_witness_construction(2, 1)
        with pytest.raises(ValueError, match="k must be at least 1"):
            tight_witness_construction(3, 0)

    def test_icosahedron_chords_strictly_exceed_radius(self):
        dirs = icosahedron_directions()
        assert dirs.shape == (12, 3)
        for i in range(12):
            for j in range(i + 1, 12):
                assert np.sum((dirs[i] - dirs[j]) ** 2) > 1.0


class TestCorruptEdges:
    def test_zero_fraction_is_identity(self):
        pts = np.random.default_rng(0).random((30, 2))
        g = build_exact_knn_graph(pts, 3)
        assert corrupt_edges(g, 0.0, seed=1).equals(g)
        assert epsilon_distance(corrupt_edges(g, 0.0, seed=1), 3).min_edits == 0

    def test_full_fraction_is_far(self):
        pts = np.random.default_rng(1).random((200, 2))
        g = build_exact_knn_graph(pts, 3)
        rep = epsilon_distance(corrupt_edges(g, 1.0, seed=2), 3)
        assert rep.epsilon_distance > 0.9

    def test_degrees_and_invariants_preserved(self):
        pts = np.random.default_rng(2).random((50, 2))
        g = build_exact_knn_graph(pts, 4)
        c = corrupt_edges(g, 0.5, seed=3)
        assert np.array_equal(c.degrees, g.degrees)
        assert np.array_equal(c.coords, g.coords)

    def test_mean_distance_monotone_in_fraction(self):
        pts = np.random.default_rng(3).random((256, 2))
        g = build_exact_knn_graph(pts, 4)
        means = []
        for fraction in (0.001, 0.01, 0.1):
            dists = [
                epsilon_distance(corrupt_edges(g, fraction, seed=s), 4).epsilon_distance
                for s in range(50)
            ]
            means.append(float(np.mean(dists)))
        assert means[0] <= means[1] <= means[2]

    def test_deterministic(self):
        pts = np.random.default_rng(4).random((40, 2))
        g = build_exact_knn_graph(pts, 2)
        assert corrupt_edges(g, 0.3, seed=9).equals(corrupt_edges(g, 0.3, seed=9))

    @staticmethod
    def _outcome(corrupt, g, fraction, seed, k=None):
        try:
            return corrupt(g, fraction, seed, k=k)
        except ValueError as err:
            return str(err)

    def _assert_same_as_loop(self, g, fraction, seed, k=None):
        got = self._outcome(corrupt_edges, g, fraction, seed, k)
        want = self._outcome(reference_corrupt_edges, g, fraction, seed, k)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.equals(want), (fraction, seed)
        return want

    @staticmethod
    def _random_rows(rng, n, k, near_full):
        """Rows of degree k, ragged rows above k and, with near_full, rows of degree n - 2."""
        rows = []
        for v in range(n):
            others = np.delete(np.arange(n), v)
            kind = rng.integers(3) if near_full else rng.integers(2)
            deg = (k, int(rng.integers(k, n - 1)), n - 2)[kind]
            rows.append(rng.permutation(others)[:deg])
        return rows

    def test_equals_the_loop_on_random_small_graphs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 25))
            k = int(rng.integers(1, n - 1))
            rows = self._random_rows(rng, n, k, near_full=seed % 2 == 1)
            hint = seed % 3 != 0
            g = graph_from_rows(rng.random((n, 2)), rows, k_hint=k if hint else None)
            for fraction in (0.0, 1.0 / (n * k), 0.5, 1.0, float(rng.random())):
                self._assert_same_as_loop(g, fraction, 1000 + seed, k=None if hint else k)

    def test_equals_the_loop_when_every_row_has_degree_n_minus_2(self):
        # one pool value per row: a row with two chosen slots raises
        for n in (3, 4, 7, 12):
            rows = [np.delete(np.arange(n), [v, (v + 1) % n]) for v in range(n)]
            g = graph_from_rows(np.arange(n, dtype=float)[:, None], rows, k_hint=n - 2)
            for seed in range(10):
                for fraction in (1.0 / (n * (n - 2)), 0.5, 1.0):
                    got = self._assert_same_as_loop(g, fraction, seed)
                    if isinstance(got, str):
                        assert fraction > 1.0 / (n * (n - 2)) and n > 3
                    else:
                        assert np.array_equal(got.degrees, g.degrees)
                        owner = np.repeat(np.arange(n), n - 2)
                        changed = got.indices != g.indices
                        assert np.array_equal(got.indices[changed], (owner[changed] + 1) % n)

    def test_equals_the_loop_on_exact_graphs(self):
        g = build_exact_knn_graph(np.random.default_rng(6).random((600, 2)), 5)
        for seed, fraction in ((1, 0.002), (2, 0.05), (3, 0.3), (4, 1.0)):
            self._assert_same_as_loop(g, fraction, seed)

    def test_full_row_raises_like_the_loop(self):
        k4 = graph_from_rows(np.arange(4, dtype=float)[:, None],
                             [np.delete(np.arange(4), v) for v in range(4)], k_hint=3)
        # vertex 2 is adjacent to all 5 others; the other rows are not full
        rows = [np.array([1, 2]), np.array([2, 3]), np.array([0, 1, 3, 4, 5]),
                np.array([4, 5]), np.array([5, 0]), np.array([0, 1])]
        one_full = graph_from_rows(np.arange(6, dtype=float)[:, None], rows, k_hint=2)
        raised = 0
        for seed in range(20):
            for g, fraction in ((k4, 0.5), (k4, 1.0), (one_full, 0.1), (one_full, 0.25)):
                want = self._assert_same_as_loop(g, fraction, seed)
                if isinstance(want, str):
                    raised += 1
                    assert re.fullmatch(r"vertex \d has 0 non-neighbors for \d replaced slots; "
                                        r"cannot corrupt", want)
        # K4 raises for every seed; the mixed graph for some seeds only
        assert 40 < raised < 80

    @pytest.mark.parametrize("fraction", [0.01, 0.5])
    def test_child_shares_its_parent_arrays_and_equals_the_checked_build(self, fraction):
        g = build_exact_knn_graph(np.random.default_rng(5).random((300, 2)), 5)
        c = corrupt_edges(g, fraction, seed=7)
        assert c.coords is g.coords and c.indptr is g.indptr and c.degrees is g.degrees
        assert c.equals(reference_corrupt_edges(g, fraction, seed=7))
        assert c.equals(core.GeometricGraph(g.coords, g.indptr, c.indices, k_hint=g.k_hint))

    def test_holds_its_output_and_one_block_and_equals_the_loop_at_scale(self):
        # at n = 2**16, k = 10 one int64 per slot takes 5 MB, more than the bound
        # leaves; a window's rows are capped at about 2**15 slots here
        g = circulant_graph(2**16, 10, seed=2)
        tracemalloc.start()
        try:
            c = corrupt_edges(g, 0.01, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c.indices.nbytes + 4 * 2**20
        assert c.equals(reference_corrupt_edges(g, 0.01, seed=3))

    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    def test_holds_its_output_and_one_block_at_high_fractions(self, monkeypatch, fraction):
        # the bound holds from the draw of the chosen slots on; at f = 1 numpy's
        # own draw holds two arrays of n * k int64 (its tail shuffle copies an
        # arange of all slots), more than the bound, before the output exists
        draw, peaks = generators.sample_without_replacement, []

        def traced_draw(*args):
            chosen = draw(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return chosen

        monkeypatch.setattr(generators, "sample_without_replacement", traced_draw)
        g = circulant_graph(2**16, 10, seed=2)
        tracemalloc.start()
        try:
            c = corrupt_edges(g, fraction, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        bound = c.indices.nbytes + 4 * 2**20
        draw_peak, peak = peaks
        assert peak < bound
        assert draw_peak < bound or fraction == 1.0

    def test_block_size_changes_no_output(self, monkeypatch):
        exact_g = build_exact_knn_graph(np.random.default_rng(7).random((300, 2)), 4)
        rows = [np.array([1, 2]), np.array([2, 3]), np.array([0, 1, 3, 4, 5]),
                np.array([4, 5]), np.array([5, 0]), np.array([0, 1])]
        ragged = graph_from_rows(np.arange(6, dtype=float)[:, None], rows, k_hint=2)
        cases = [(exact_g, f, s) for f in (0.002, 0.1, 0.6, 1.0) for s in range(3)]
        cases += [(ragged, f, s) for f in (0.25, 0.5, 1.0) for s in range(8)]
        want = [self._outcome(corrupt_edges, *case) for case in cases]
        assert any(isinstance(w, str) for w in want) and not all(isinstance(w, str) for w in want)
        for block in (1, 7, 37):
            monkeypatch.setattr(generators, "_CORRUPT_BLOCK", block)
            for case, w in zip(cases, want):
                got = self._outcome(corrupt_edges, *case)
                assert got == w if isinstance(w, str) else got.equals(w), (block, case[1:])

    @pytest.mark.parametrize("fraction", [0.001, 0.01, 0.1, 1.0])
    def test_epsilon_distance_equals_the_fraction_on_tie_free_exact_graphs(self, fraction):
        # every replaced slot of an exact row takes a value outside the row, so
        # each one is a missing true neighbor and no two of a row coincide
        for seed, (n, delta, k) in enumerate(((2000, 2, 5), (1000, 3, 10))):
            p = NeighborhoodProfile(np.random.default_rng(40 + seed).random((n, delta)), k)
            assert np.all(np.diff(p.at_indptr) == 1)  # no ties at any k-th distance
            rep = p.report(corrupt_edges(p.graph, fraction, seed=seed))
            assert rep.min_edits == math.ceil(fraction * n * k)

    def test_replaced_slots_of_a_row_are_a_uniform_pair_of_its_pool(self):
        # row 0 is [1, 2], so its pool is {3, 4, 5}; at fraction 1 both slots
        # take a pair of it, each of the three with probability 1/3
        g = graph_from_rows(np.arange(6, dtype=float)[:, None],
                            [np.array([(v + 1) % 6, (v + 2) % 6]) for v in range(6)], k_hint=2)
        trials = 6000
        pairs = Counter(tuple(sorted(corrupt_edges(g, 1.0, seed=s).neighbors(0).tolist()))
                        for s in range(trials))
        assert set(pairs) <= {(3, 4), (3, 5), (4, 5)}
        # two-sided exact binomial bound at 1e-6 per pair
        lo, hi = scipy.stats.binom.ppf(1e-6, trials, 1 / 3), scipy.stats.binom.isf(1e-6, trials, 1 / 3)
        assert all(lo <= pairs[pair] <= hi for pair in ((3, 4), (3, 5), (4, 5))), pairs

    def test_requires_min_degree(self):
        g = graph_from_rows(np.arange(4, dtype=float)[:, None],
                           (np.array([1]), np.array([0]), np.array([1]), np.array([2])))
        with pytest.raises(ValueError):
            corrupt_edges(g, 0.5, seed=0, k=2)
        with pytest.raises(ValueError, match="fraction"):
            corrupt_edges(g, 1.5, seed=0, k=1)
        with pytest.raises(ValueError, match="k_hint"):
            corrupt_edges(g, 0.5, seed=0)


@pytest.fixture(scope="module")
def dimlb_pair():
    return dimension_lb_instances(k=2, epsilon=0.1, c=10)


class TestDimensionLowerBound:

    def test_exact_instance_at_distance_zero(self, dimlb_pair):
        _, exact_g = dimlb_pair
        assert epsilon_distance(exact_g, 2).min_edits == 0

    def test_far_instance_beyond_epsilon(self, dimlb_pair):
        far, _ = dimlb_pair
        rep = epsilon_distance(far, 2, EdgeBudget.provided(2.0))
        assert rep.epsilon_distance > 0.1

    def test_perturbed_fraction_bounded(self, dimlb_pair):
        far, _ = dimlb_pair
        m = math.ceil(2 * 0.1 * 2 * 10)
        assert m / far.n <= 3 / (2 * kissing_number(3))
        for k, epsilon, c in ((0, 0.1, 10), (2, 0.0, 10), (2, 1.0, 10)):
            with pytest.raises(ValueError):
                dimension_lb_instances(k=k, epsilon=epsilon, c=c)

    def test_k1_matches_original_cluster_count(self):
        far, exact_g = dimension_lb_instances(k=1, epsilon=0.1, c=12)
        assert epsilon_distance(exact_g, 1).min_edits == 0
        rep = epsilon_distance(far, 1, EdgeBudget.provided(1.0))
        assert rep.epsilon_distance > 0.1


class TestRoundTripsAndDeterminism:
    def test_all_generators_round_trip_through_format(self):
        graphs = [
            line_gadget(2.0, 3),
            sample_d1(18, 2, seed=3),
            sample_d2(36, 2, 0.15, seed=3),
            tight_witness_construction(3, 2)[0],
            dimension_lb_instances(k=1, epsilon=0.1, c=8)[0],
            corrupt_edges(build_exact_knn_graph(np.random.default_rng(5).random((20, 2)), 2), 0.4, 7),
        ]
        for g in graphs:
            assert graph_to_text(g) == reference_graph_to_text(g)
            assert graph_from_text(graph_to_text(g)).equals(g)


def _valid_rows_output(data):
    """The call that builds a generator's output, its input drawn and built beforehand."""
    kind = data.draw(st.sampled_from(["corrupt", "profile", "d1", "d2", "gadget", "tight", "dimlb"]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    if kind == "corrupt":
        n = data.draw(st.integers(3, 24))
        k = data.draw(st.integers(1, n - 2))
        full = data.draw(st.booleans())
        rng = np.random.default_rng(seed)
        # rows of degree k and above; with full, every row of degree n - 2
        rows = [rng.permutation(np.delete(np.arange(n), v))[: n - 2 if full else data.draw(st.integers(k, n - 2))]
                for v in range(n)]
        g = graph_from_rows(rng.random((n, 2)), rows, k_hint=k)
        fraction = data.draw(st.sampled_from([0.0, 1.0 / (n * k), 1.0, float(rng.random())]))
        return lambda: corrupt_edges(g, fraction, seed)
    if kind == "profile":
        n = data.draw(st.integers(2, 60))
        delta = data.draw(st.integers(1, 3))
        # lattice points, with every point repeated when duplicated
        flat = data.draw(st.lists(st.integers(0, 3), min_size=n * delta, max_size=n * delta))
        coords = np.array(flat, dtype=np.float64).reshape(n, delta)
        if data.draw(st.booleans()):
            coords = np.vstack([coords, coords])
        k = data.draw(st.integers(1, coords.shape[0] - 1))
        return lambda: NeighborhoodProfile(coords, k).graph
    k = data.draw(st.integers(1, 4))
    if kind == "d1":
        n = (k + 1) * data.draw(st.integers(1, 20))
        return lambda: sample_d1(n, k, seed)
    if kind == "d2":
        m = data.draw(st.integers(2, 20))
        # ceil(epsilon * n / (k + 1)) relocations, between 1 and m / 2
        epsilon = (data.draw(st.integers(1, m // 2)) - 0.5) / m
        return lambda: sample_d2((k + 1) * m, k, epsilon, seed)
    if kind == "gadget":
        m = data.draw(st.integers(1, 6))
        base = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)))
        perm, delta = np.random.default_rng(seed).permutation(m * (k + 1)), data.draw(st.integers(1, 3))
        return lambda: generators._gadget_graph(k, base, perm, delta)
    if kind == "tight":
        delta = data.draw(st.sampled_from([1, 3]))
        return lambda: tight_witness_construction(delta, k)[0]
    k, c = min(k, 2), data.draw(st.integers(1, 4))
    # ceil(2 * epsilon * k * c) perturbed clusters, between 1 and c
    epsilon = (data.draw(st.integers(1, c)) - 0.5) / (2 * k * c)
    return lambda: dimension_lb_instances(k, epsilon, c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_free_outputs_have_valid_rows(data):
    # every generator whose rows are valid by construction builds its graphs
    # without the row check; each output must pass the one-shot reference check
    build = _valid_rows_output(data)
    with mock.patch.object(core, "row_fault", side_effect=AssertionError("rows checked")) as check:
        try:
            out = build()
        except ValueError as err:  # a row of corrupt_edges' input with too few non-neighbors
            assert "cannot corrupt" in str(err)
            return
    assert not check.called
    for g in out if isinstance(out, tuple) else (out,):
        assert reference_row_fault(g.n, g.indptr, g.indices) is None
