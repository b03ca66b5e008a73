"""The sublinear tester: sizing, local check, full runs, query accounting."""

import gc
import math
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ReferenceOracle,
    corruptible_fraction,
    graph_from_rows,
    local_witness_check,
    naive_run_tester,
    overflow_points,
    random_small_graph,
    rows_of,
)
from knncheck.core import GeometricGraph, OracleSession, QueryTally, box_gap2, dist2_row, leaf_index
from knncheck.exact import build_exact_knn_graph, max_shared_knn, witnesses_of
from knncheck.generators import corrupt_edges, line_gadget, sample_d2, tight_witness_construction
from knncheck import tester
from knncheck.sampling import rng_from, sample_without_replacement, split_seed
from knncheck.tester import (
    KISSING_NUMBERS,
    Evidence,
    TesterConfig,
    kissing_number,
    run_tester,
    sample_sizes,
)


class TestKissingNumber:
    def test_table(self):
        assert KISSING_NUMBERS == (2, 6, 12, 24, 44, 78, 134, 240)
        assert kissing_number(1) == 2
        assert kissing_number(2) == 6
        assert kissing_number(3) == 12

    def test_fallback_above_table(self):
        assert kissing_number(9) == int(np.ceil(2 ** (0.401 * 9 * 1.2)))
        with pytest.raises(ValueError, match="dimension"):
            kissing_number(0)

    def test_hexagon_attains_six_in_the_plane(self):
        h = 0.8660254037844387  # nudged up so adjacent chords exceed the radius
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, h], [-0.5, h], [-1.0, 0.0], [-0.5, -h], [0.5, -h]]
        )
        assert max_shared_knn(pts, 1) == 6

    def test_seven_directions_always_fail_in_the_plane(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            angles = rng.random(7) * 2.0 * np.pi
            pts = np.vstack([[0.0, 0.0], np.c_[np.cos(angles), np.sin(angles)]])
            assert max_shared_knn(pts, 1) <= 6

    def test_icosahedron_attains_twelve(self):
        g, _ = tight_witness_construction(3, 1)
        assert g.n == 13
        assert max_shared_knn(g.coords, 1) == 12


class TestSampleSizes:
    @pytest.mark.parametrize("name", ["c1", "c2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, None])
    def test_experiment_constants_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"finite positive {name}"):
            TesterConfig(k=1, epsilon=0.1, delta=1, mode="experiment", **{"c1": 0.5, "c2": 5.0, name: value})

    def test_theory_formulas(self):
        cfg = TesterConfig(k=2, epsilon=1.0, delta=2)
        s, t, cap = sample_sizes(1_000_000, cfg)
        assert s == 200_000
        assert t == 27_632
        assert cap == 200

    def test_experiment_s_prime(self):
        cfg = TesterConfig(k=10, epsilon=0.1, delta=2, mode="experiment", c1=0.01, c2=0.5)
        s, _, _ = sample_sizes(1_000_000, cfg)
        assert s == 800

    def test_clamped_at_n(self):
        cfg = TesterConfig(k=50, epsilon=0.1, delta=1)
        s, _, _ = sample_sizes(100, cfg)
        assert s == 100

    def test_degree_cap_override(self):
        cfg = TesterConfig(k=2, epsilon=0.5, delta=1, degree_cap_override=7)
        assert sample_sizes(16, cfg)[2] == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TesterConfig(k=0, epsilon=0.1, delta=1)
        with pytest.raises(ValueError):
            TesterConfig(k=1, epsilon=0.0, delta=1)
        with pytest.raises(ValueError):
            TesterConfig(k=1, epsilon=0.1, delta=1, mode="experiment")
        for bad in (dict(delta=0), dict(mode="x"), dict(degree_cap_override=0)):
            with pytest.raises(ValueError):
                TesterConfig(**{"k": 1, "epsilon": 0.1, "delta": 1, **bad})
        with pytest.raises(ValueError, match="two vertices"):
            sample_sizes(1, TesterConfig(k=1, epsilon=0.1, delta=1))


def _delete_edge(g, v, u):
    adjacency = rows_of(g)
    adjacency[v] = np.array([x for x in adjacency[v] if x != u], dtype=np.int64)
    return graph_from_rows(g.coords, tuple(adjacency), k_hint=g.k_hint)


class TestLocalWitnessCheck:
    def test_never_fires_on_exact_knn_graph(self):
        pts = np.random.default_rng(0).random((25, 2))
        g = build_exact_knn_graph(pts, 3)
        s = ReferenceOracle(g)
        for v in range(g.n):
            for u in range(g.n):
                if u != v:
                    assert not local_witness_check(s, v, u, 3)

    def test_fires_on_deleted_gadget_edge_with_far_padding(self):
        k = 2
        gadget = line_gadget(0.0, k)
        coords = np.vstack([gadget.coords, [[100.0]]])
        adjacency = rows_of(gadget) + [np.array([0], dtype=np.int64)]
        # vertex 0 loses its edge to 1 and gains the far vertex instead
        adjacency[0] = np.array([2, 3], dtype=np.int64)
        g = graph_from_rows(coords, tuple(adjacency))
        assert local_witness_check(ReferenceOracle(g), 0, 1, k)

    def test_tie_at_kth_distance_is_not_a_witness(self):
        # v at 0 with neighbor at +1; non-neighbor at -1 ties exactly
        g = graph_from_rows(
            np.array([[0.0], [1.0], [-1.0]]),
            (np.array([1]), np.array([0]), np.array([0])),
        )
        assert not local_witness_check(ReferenceOracle(g), 0, 2, 1)

    def test_low_degree_fires_unconditionally(self):
        g = graph_from_rows(
            np.array([[0.0], [1.0], [2.0]]),
            (np.empty(0, dtype=np.int64), np.array([0]), np.array([1])),
        )
        assert local_witness_check(ReferenceOracle(g), 0, 2, 1)

    def test_rejects_u_equal_v(self):
        g = line_gadget(0.0, 1)
        with pytest.raises(ValueError):
            local_witness_check(ReferenceOracle(g), 0, 0, 1)

    def test_true_implies_incomplete(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = rng.random((30, 2))
            g = corrupt_edges(build_exact_knn_graph(pts, 3), 0.2, int(rng.integers(1 << 30)))
            s = ReferenceOracle(g)
            for v in range(g.n):
                for u in range(g.n):
                    if u != v and local_witness_check(s, v, u, 3):
                        assert witnesses_of(g, v, 3).incomplete

    def test_hoisted_naive_loop_equals_per_pair_checks(self):
        # naive_run_tester reads v's row and computes r_k once per v; calling
        # local_witness_check for every (v, u) must give the same run and reads,
        # also where T is one vertex, so that its v reads only its degree
        rng = np.random.default_rng(29)
        outcomes = set()
        for trial in range(60):
            k = int(rng.integers(1, 4))
            g = random_small_graph(rng, k)
            exact_g = build_exact_knn_graph(g.coords, k)
            for h in (g, exact_g, corrupt_edges(exact_g, corruptible_fraction(g.n, k, 0.3), trial)):
                for cfg in (TesterConfig(k=k, epsilon=0.5, delta=g.delta, seed=trial),
                            TesterConfig(k=k, epsilon=0.5, delta=g.delta, mode="experiment",
                                         c1=1.0, c2=0.01, seed=trial)):
                    hoisted = naive_run_tester(ReferenceOracle(h), cfg)
                    per_pair = naive_run_tester(ReferenceOracle(h), cfg, pair_check=local_witness_check)
                    assert (hoisted.decision, hoisted.evidence, hoisted.queries) == (
                        per_pair.decision, per_pair.evidence, per_pair.queries)
                    outcomes.add(hoisted.evidence.reason if hoisted.evidence else "accept")
        assert outcomes == {"accept", "witness", "low-degree"}


class TestRunTester:
    def test_accepts_exact_knn_graph(self):
        pts = np.random.default_rng(1).random((128, 2))
        g = build_exact_knn_graph(pts, 5)
        for seed in range(20):
            cfg = TesterConfig(k=5, epsilon=0.2, delta=2, seed=seed)
            v = run_tester(OracleSession(g), cfg)
            assert v.decision == "accept" and v.evidence is None

    def test_low_degree_reject(self):
        pts = np.random.default_rng(2).random((64, 2))
        g = build_exact_knn_graph(pts, 4)
        adjacency = rows_of(g)
        adjacency[17] = adjacency[17][:2]
        g = graph_from_rows(g.coords, tuple(adjacency))
        cfg = TesterConfig(k=4, epsilon=0.1, delta=2, seed=0)  # s' clamps to n
        v = run_tester(OracleSession(g), cfg)
        assert v.decision == "reject"
        assert v.evidence.reason == "low-degree" and v.evidence.vertex == 17

    def test_rejects_d2_and_evidence_verifies(self):
        g = sample_d2(120, 2, 0.1, seed=3)
        cfg = TesterConfig(k=2, epsilon=0.1, delta=1, seed=4)
        v = run_tester(OracleSession(g), cfg)
        assert v.decision == "reject"
        e = v.evidence
        assert e.reason == "witness"
        assert witnesses_of(g, e.vertex, 2).incomplete
        assert e.witness not in set(g.neighbors(e.vertex).tolist())

    def test_evidence_outside_r_k_is_not_confirmed(self):
        # vertex 0 is incomplete (its row skips 1), but 100 lies outside
        # r_k(0) = 9, so (0, 100) is no witness pair; (0, 1) is one
        g = graph_from_rows(np.array([[0.0], [1.0], [2.0], [3.0], [100.0]]),
                            ([3], [0], [1], [2], [3]))
        assert not tester._evidence_confirmed(g, Evidence(0, 4, "witness"), 1)
        assert tester._evidence_confirmed(g, Evidence(0, 1, "witness"), 1)
        assert not tester._evidence_confirmed(g, Evidence(0, 3, "witness"), 1)

    def test_unconfirmed_evidence_raises_under_optimize(self):
        # a confirmation that puts every vertex at distance 0 from v finds no
        # pair strictly inside r_k(v), which contradicts the witness rejection
        # above; the check must survive python -O
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from knncheck import tester
            from knncheck.core import OracleSession
            from knncheck.generators import sample_d2
            from knncheck.tester import TesterConfig, run_tester

            print("optimize:", sys.flags.optimize)
            tester.dist2_row = lambda p, pts: np.zeros(len(pts))
            g = sample_d2(120, 2, 0.1, seed=3)
            try:
                run_tester(OracleSession(g), TesterConfig(k=2, epsilon=0.1, delta=1, seed=4))
            except AssertionError as exc:
                print("raised:", exc)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, env=env, check=True).stdout.splitlines()
        assert out[0] == "optimize: 1"
        assert out[1].startswith("raised: rejection evidence fails ground truth")

    def test_deterministic_verdict_and_tallies(self):
        g = sample_d2(60, 1, 0.15, seed=6)
        cfg = TesterConfig(k=1, epsilon=0.15, delta=1, seed=11)
        a = run_tester(OracleSession(g), cfg)
        b = run_tester(OracleSession(g), cfg)
        assert a.decision == b.decision
        assert a.evidence == b.evidence
        assert a.queries == b.queries
        assert (a.s_prime_size, a.s_size, a.t_size) == (b.s_prime_size, b.s_size, b.t_size)

    def test_validates_dimension_and_k(self):
        g = line_gadget(0.0, 2)
        with pytest.raises(ValueError):
            run_tester(OracleSession(g), TesterConfig(k=2, epsilon=0.1, delta=2, seed=0))
        with pytest.raises(ValueError):
            run_tester(OracleSession(g), TesterConfig(k=3, epsilon=0.1, delta=1, seed=0))

    def test_degree_cap_filters_s(self):
        # one hub vertex with huge degree gets pruned out of S
        pts = np.random.default_rng(3).random((40, 2))
        g = build_exact_knn_graph(pts, 2)
        adjacency = rows_of(g)
        adjacency[0] = np.array([u for u in range(1, 40)], dtype=np.int64)
        g = graph_from_rows(g.coords, tuple(adjacency))
        cfg = TesterConfig(k=2, epsilon=0.9, delta=2, seed=1, degree_cap_override=10)
        v = run_tester(OracleSession(g), cfg)
        assert v.s_size == v.s_prime_size - 1

    def test_query_budget_closed_form(self):
        pts = np.random.default_rng(4).random((256, 4))
        g = build_exact_knn_graph(pts, 3)
        for seed in range(5):
            cfg = TesterConfig(k=3, epsilon=0.25, delta=4, seed=seed)
            session = OracleSession(g)
            v = run_tester(session, cfg)
            s_prime, t, cap = sample_sizes(g.n, cfg)
            assert v.queries.total <= s_prime + v.s_size * (cap + 2) + t


@pytest.fixture
def block_rows(monkeypatch):
    """Rows of each block of S that the scan evaluates, in order, as its leaf_pairs calls see them."""
    rows = []
    query = tester.leaf_pairs

    def query_spy(lo, hi, r, levels):
        rows.append(r.size)
        return query(lo, hi, r, levels)

    monkeypatch.setattr(tester, "leaf_pairs", query_spy)
    return rows


class TestNaiveEquivalence:
    """run_tester must match the literal nested-loop tester exactly."""

    def _compare(self, g, cfg):
        fast = run_tester(OracleSession(g), cfg)
        slow = naive_run_tester(ReferenceOracle(g), cfg)
        assert fast.decision == slow.decision
        assert fast.evidence == slow.evidence
        assert fast.queries == slow.queries
        assert (fast.s_prime_size, fast.s_size, fast.t_size) == (
            slow.s_prime_size,
            slow.s_size,
            slow.t_size,
        )
        assert fast.decision == "accept" or witnesses_of(g, fast.evidence.vertex, cfg.k).incomplete
        return fast

    @pytest.mark.parametrize("seed", range(10))
    def test_on_accepting_graphs(self, seed):
        pts = np.random.default_rng(seed).random((48, 2))
        g = build_exact_knn_graph(pts, 3)
        self._compare(g, TesterConfig(k=3, epsilon=0.3, delta=2, seed=seed))

    @pytest.mark.parametrize("seed", range(10))
    def test_on_corrupted_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        pts = rng.random((48, 2))
        g = corrupt_edges(build_exact_knn_graph(pts, 3), 0.15, seed)
        self._compare(g, TesterConfig(k=3, epsilon=0.3, delta=2, seed=seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_on_d2_instances(self, seed):
        g = sample_d2(45, 2, 0.2, seed=seed)
        self._compare(g, TesterConfig(k=2, epsilon=0.2, delta=1, seed=seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_on_low_degree_graphs(self, seed):
        rng = np.random.default_rng(200 + seed)
        pts = rng.random((40, 2))
        g = build_exact_knn_graph(pts, 2)
        adjacency = rows_of(g)
        for v in rng.integers(0, 40, size=3):
            adjacency[int(v)] = adjacency[int(v)][:1]
        g = graph_from_rows(g.coords, tuple(adjacency))
        self._compare(g, TesterConfig(k=2, epsilon=0.4, delta=2, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_in_experiment_mode(self, seed):
        rng = np.random.default_rng(300 + seed)
        pts = rng.random((64, 2))
        g = corrupt_edges(build_exact_knn_graph(pts, 2), 0.3, seed)
        cfg = TesterConfig(
            k=2, epsilon=0.5, delta=2, mode="experiment", c1=0.5, c2=0.5, seed=seed
        )
        self._compare(g, cfg)

    @pytest.mark.parametrize("seed", range(10))
    def test_on_coordinates_whose_distances_overflow(self, seed):
        # r_k is inf for some v, so every u at a finite distance, and no u at an
        # overflowing one, is strictly inside it. At delta = 1 the scan's
        # coordinate columns are a view of the graph's coordinates
        delta = (2, 3, 2, 3, 2, 3, 1, 1, 8, 8)[seed]
        rng = np.random.default_rng(400 + seed)
        with np.errstate(over="ignore"):
            g = build_exact_knn_graph(overflow_points(rng, 60, delta, seed >= 3), 3)
            g = corrupt_edges(g, 0.1 * (seed % 2), seed)
            rk = [np.sort(dist2_row(g.coords[v], g.coords[g.neighbors(v)]))[2] for v in range(g.n)]
            assert np.isinf(rk).any()
            self._compare(g, TesterConfig(k=3, epsilon=0.5, delta=delta, seed=seed))

    # the inputs below reach what the small graphs above do not: several scan
    # blocks, an event at S position 0, a filtered S, lattice ties

    @staticmethod
    def _s_prime(n, cfg):
        """S' in scan order, as run_tester samples it."""
        seq_s, _ = split_seed(cfg.seed, 2)
        return sample_without_replacement(n, sample_sizes(n, cfg)[0], rng_from(seq_s))

    def _event_at(self, n, position, reason):
        """(graph, cfg, v): an exact k=2 graph whose v at S position ``position`` has the event."""
        k = 2
        g = build_exact_knn_graph(np.random.default_rng(position).random((n, 2)), k)
        cfg = TesterConfig(k=k, epsilon=0.5, delta=2, mode="experiment", c1=2.0, c2=0.2,
                           seed=position)
        v = int(self._s_prime(n, cfg)[position])
        adjacency = rows_of(g)
        if reason == "witness":  # the k farthest points leave v incomplete
            adjacency[v] = np.argsort(((g.coords - g.coords[v]) ** 2).sum(axis=1))[-k:]
        elif reason == "low-degree":
            adjacency[v] = adjacency[v][: k - 1]
        return graph_from_rows(g.coords, tuple(adjacency)), cfg, v

    @pytest.mark.parametrize("reason", ["witness", "low-degree", None])
    # 0, 7, 300, and the boundaries of the blocks, which double while they hold
    # few pairs: rows 0-7, 8-23, 24-55, 56-119, 120-247, 248-503, 504-1015, 1016-
    @pytest.mark.parametrize(
        "position", [0, 7, 300, 8, 23, 24, 55, 56, 119, 120, 247, 248, 503, 504, 1015, 1016]
    )
    def test_event_at_scan_position(self, reason, position):
        # S' is all of n up to n = 1024
        n = 400 if position < 400 else 600 if position < 600 else 1024
        g, cfg, v = self._event_at(n, position, reason)
        verdict = self._compare(g, cfg)
        if reason is None:
            assert verdict.decision == "accept" and verdict.s_size == n
        else:
            assert verdict.evidence.reason == reason and verdict.evidence.vertex == v

    @pytest.mark.parametrize("position,most", [(3, 8), (30, 68)])
    def test_scan_evaluates_rows_up_to_about_twice_its_stop(self, block_rows, position, most):
        g, cfg, v = self._event_at(400, position, "witness")
        verdict = self._compare(g, cfg)
        assert verdict.evidence.reason == "witness" and verdict.evidence.vertex == v
        assert sum(block_rows) <= most

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_cap_filters_s(self, seed):
        n, k = 400, 2
        rng = np.random.default_rng(500 + seed)
        g = build_exact_knn_graph(rng.random((n, 2)), k)
        cfg = TesterConfig(k=k, epsilon=0.5, delta=2, mode="experiment", c1=2.0, c2=0.2,
                           seed=seed, degree_cap_override=4)
        s_prime = self._s_prime(n, cfg)
        adjacency = rows_of(g)
        # incomplete hubs above the cap, S position 0 among them, then a
        # witness vertex late in the scan
        for v in np.append(s_prime[0], rng.choice(s_prime[1:300], size=40, replace=False)):
            adjacency[v] = np.setdiff1d(rng.choice(n, size=9, replace=False), [v])[:8]
        late = int(s_prime[350])
        adjacency[late] = np.setdiff1d(rng.choice(n, size=k + 1, replace=False), [late])[:k]
        g = graph_from_rows(g.coords, tuple(adjacency))
        verdict = self._compare(g, cfg)
        assert verdict.s_size == verdict.s_prime_size - 41
        assert verdict.evidence.vertex == late

    @staticmethod
    def _t(n, cfg):
        """The draws of T, as run_tester samples them."""
        _, seq_t = split_seed(cfg.seed, 2)
        return rng_from(seq_t).integers(0, n, size=sample_sizes(n, cfg)[1])

    def test_single_t_draw_on_line(self):
        # |T| = 1, so the v of S equal to the draw reads nothing in the loop
        g = build_exact_knn_graph(np.arange(3.0)[:, None], 1)
        cfg = TesterConfig(k=1, epsilon=0.5, delta=1, mode="experiment", c1=5.0, c2=0.01, seed=0)
        assert self._t(g.n, cfg).size == 1
        self._compare(g, cfg)

    def test_t_equal_to_first_of_s_before_low_degree_vertex(self):
        n = 6
        g = build_exact_knn_graph(np.arange(float(n))[:, None], 1)
        cfg = next(
            cfg
            for seed in range(100)
            for cfg in [TesterConfig(k=1, epsilon=0.5, delta=1, mode="experiment", c1=5.0,
                                     c2=0.01, seed=seed)]
            if self._t(n, cfg).tolist() == [self._s_prime(n, cfg)[0]]
        )
        v = int(self._s_prime(n, cfg)[1])
        adjacency = rows_of(g)
        adjacency[v] = adjacency[v][:0]
        verdict = self._compare(graph_from_rows(g.coords, adjacency), cfg)
        assert verdict.evidence == Evidence(v, None, "low-degree")
        # S position 0 reads nothing, so T's coordinate is never read
        assert verdict.queries == QueryTally(neighbor=0, degree=n, coord=0)

    def test_t_equal_to_first_of_s_before_witness_vertex(self):
        # S position 0 reads nothing, so position 1 is the first to read T, and
        # block 0 must hold both for T's one coordinate to be charged
        n = 6
        g = build_exact_knn_graph(np.arange(float(n))[:, None], 1)
        for seed in range(200):
            cfg = TesterConfig(k=1, epsilon=0.5, delta=1, mode="experiment", c1=5.0, c2=0.01, seed=seed)
            u, v = (int(x) for x in self._s_prime(n, cfg)[:2])
            far = 0 if 2 * v >= n - 1 else n - 1
            if self._t(n, cfg).tolist() == [u] and u != far:
                break
        adjacency = rows_of(g)
        adjacency[v] = np.array([far])  # u is strictly nearer to v than its one neighbor
        verdict = self._compare(graph_from_rows(g.coords, adjacency), cfg)
        assert verdict.evidence == Evidence(v, u, "witness")
        assert verdict.queries == QueryTally(neighbor=1, degree=n, coord=3)

    @pytest.mark.parametrize("seed", range(8))
    def test_on_lattices_with_ties(self, seed):
        rng = np.random.default_rng(600 + seed)
        delta = 1 + seed % 3
        pts = rng.integers(0, 4, size=(300, delta)).astype(np.float64)
        g = corrupt_edges(build_exact_knn_graph(pts, 3), 0.02 * (seed % 4), seed)
        self._compare(g, TesterConfig(k=3, epsilon=0.5, delta=delta, seed=seed, mode="experiment",
                                      c1=0.3 * (1 + seed % 4), c2=0.1))
        for _ in range(5):
            k = int(rng.integers(1, 4))
            small = random_small_graph(rng, k)
            self._compare(small, TesterConfig(k=k, epsilon=0.5, delta=small.delta, seed=seed))

    # the inputs below scan more than two blocks of S against |U| of about 280
    # distinct T values, so that many leaves of the index over U are pruned

    @staticmethod
    def _sized(n, k, delta, s_prime, t, seed):
        """Experiment-mode config with |S'| and |T| close to the given sizes."""
        return TesterConfig(k=k, epsilon=0.5, delta=delta, mode="experiment", seed=seed,
                            c1=s_prime / (8 * k * math.sqrt(n)),
                            c2=t / (k * math.log(10) * math.sqrt(n)))

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_indexed_scan_on_lattices_with_coincident_points(self, block_rows, delta):
        # integer lattice sites, half of them doubled: many distances equal r_k
        # exactly and many points lie on the faces of the leaf boxes
        rng = np.random.default_rng(700 + delta)
        sites = rng.integers(0, {1: 1500, 2: 40, 3: 12}[delta], size=(2000, delta))
        pts = np.concatenate((sites, sites[:1000])).astype(np.float64)
        k = 1 + delta % 2
        g = build_exact_knn_graph(pts, k)
        verdict = self._compare(g, self._sized(g.n, k, delta, 520, 300, delta))
        assert verdict.decision == "accept" and verdict.s_size > 512
        assert len(block_rows) >= 3

    def test_witness_in_last_leaf_at_known_scan_position(self):
        # v at S position 517 (block 6) coincides with its only witness w, a T
        # value beyond every other point in every coordinate, so w lies in the
        # last leaf and on its upper faces. v's neighbor sits one ulp below w
        # in each coordinate, so r_k is two squared ulps.
        n, k, position = 3000, 1, 517
        cfg = self._sized(n, k, 2, position + 20, 300, 11)
        v = int(self._s_prime(n, cfg)[position])
        w, nbr = (int(u) for u in np.setdiff1d(self._t(n, cfg), [v])[:2])
        pts = np.random.default_rng(11).random((n, 2)) * 100.0
        pts[[v, w]] = 100.0
        pts[nbr] = np.nextafter(100.0, 0.0)
        g = build_exact_knn_graph(pts, k)
        adjacency = rows_of(g)
        adjacency[v] = np.array([nbr])
        verdict = self._compare(graph_from_rows(g.coords, tuple(adjacency)), cfg)
        assert verdict.evidence == Evidence(v, w, "witness")

    def test_scan_in_eight_dimensions(self, block_rows):
        # leaf boxes in 8 dimensions prune little, so most pairs are re-checked
        rng = np.random.default_rng(800)
        g = build_exact_knn_graph(rng.random((1000, 8)), 2)
        verdict = self._compare(g, self._sized(g.n, 2, 8, 520, 300, 8))
        assert verdict.decision == "accept"
        assert len(block_rows) >= 3

    # the inputs below stop in block 0, which goes through the index as well

    @pytest.mark.parametrize("witness_at", [0, 1])
    def test_block_zero_on_tied_lattice_with_v_in_u(self, witness_at):
        # S position 0 is a lattice site with a coincident point and is drawn
        # into T. With k=1 its exact row holds a point at distance 0, so r_k = 0
        # and nothing lies strictly inside it, itself included, and the witness
        # v is S position 1. Or v is S position 0 with its row pointing at the
        # farthest point, so that v is one of its own hits, and a guarded one.
        n, k = 3000, 1
        rng = np.random.default_rng(900)
        sites = rng.integers(0, 40, size=(2000, 2))
        pts = np.concatenate((sites, sites[:1000])).astype(np.float64)
        g = build_exact_knn_graph(pts, k)
        cfg = next(
            cfg
            for seed in range(1000)
            for cfg in [self._sized(n, k, 2, 512, 300, seed)]
            if self._s_prime(n, cfg)[0] in self._t(n, cfg) and self._s_prime(n, cfg)[0] < 1000
        )
        first = int(self._s_prime(n, cfg)[0])
        assert dist2_row(g.coords[first], g.coords[g.neighbors(first)]).max() == 0.0
        v = int(self._s_prime(n, cfg)[witness_at])
        adjacency = rows_of(g)
        adjacency[v] = np.argsort(((g.coords - g.coords[v]) ** 2).sum(axis=1))[-k:]
        verdict = self._compare(graph_from_rows(g.coords, tuple(adjacency)), cfg)
        assert verdict.evidence.reason == "witness" and verdict.evidence.vertex == v

    def test_block_zero_where_most_leaves_survive(self):
        # half the slots point at uniform vertices, which inflates r_k, so the
        # box bounds rule out few of block 0's (row, leaf) pairs
        n, k = 3000, 3
        g = corrupt_edges(build_exact_knn_graph(np.random.default_rng(901).random((n, 2)), k),
                          0.5, 901)
        cfg = self._sized(n, k, 2, 512, 600, 901)
        rows = self._s_prime(n, cfg)[:256]
        rk = np.array([np.sort(dist2_row(g.coords[v], g.coords[g.neighbors(v)]))[k - 1]
                       for v in rows])
        levels = leaf_index(g.coords[np.unique(self._t(n, cfg))], tester._LEAF_SIZE)[3]
        q_t = g.coords[rows].T[:, :, None]
        assert np.mean(box_gap2(q_t, q_t, *levels[-1]) < rk[:, None]) > 0.5
        verdict = self._compare(g, cfg)
        assert verdict.decision == "reject"

    @pytest.mark.parametrize("t", [1, 20])
    def test_u_smaller_than_one_leaf(self, t):
        n, k = 800, 2
        g = corrupt_edges(build_exact_knn_graph(np.random.default_rng(902).random((n, 2)), k),
                          0.05, 902)
        for seed in range(4):
            cfg = self._sized(n, k, 2, n, t, seed)
            assert 1 <= np.unique(self._t(n, cfg)).size <= t + 1 < tester._LEAF_SIZE
            self._compare(g, cfg)

    # the inputs below bound the blocks themselves: each holds at most the rows
    # before it plus 8, and at most _PAIR_FLOATS // max(_LEAF_SIZE, f) rows, f
    # being the floats per coordinate per row that the block before gathered

    def test_blocks_hold_at_most_the_rows_before_them_plus_eight(self, block_rows):
        n, k = 6200, 2
        g = build_exact_knn_graph(np.random.default_rng(903).random((n, 2)), k)
        verdict = self._compare(g, self._sized(n, k, 2, n, 5, 903))
        assert verdict.decision == "accept" and verdict.s_size >= 6000
        assert sum(block_rows) == verdict.s_size
        before = np.cumsum([0] + block_rows[:-1])
        assert all(rows <= lo + 8 for rows, lo in zip(block_rows, before))
        assert max(block_rows) <= tester._PAIR_FLOATS // tester._LEAF_SIZE

    def test_blocks_without_pairs_stop_at_the_cap(self, block_rows):
        # distinct lattice sites, each doubled: with k=1 every row holds the
        # site's twin, so every r_k is 0, no row has a (row, leaf) pair and
        # only the _LEAF_SIZE floor bounds the next block
        sites = np.stack(np.meshgrid(np.arange(62), np.arange(50)), axis=-1).reshape(-1, 2)
        g = build_exact_knn_graph(np.concatenate((sites, sites)).astype(np.float64), 1)
        assert np.array_equal(g.indices, (np.arange(g.n) + g.n // 2) % g.n)
        verdict = self._compare(g, self._sized(g.n, 1, 2, g.n, 5, 904))
        assert verdict.decision == "accept" and verdict.s_size > 4096
        cap = tester._PAIR_FLOATS // tester._LEAF_SIZE
        before = np.cumsum([0] + block_rows[:-1])
        assert max(block_rows) == cap
        assert any(rows == cap < lo + 8 for rows, lo in zip(block_rows, before))

    @pytest.mark.parametrize("reason,rows", [(None, 400), ("witness", 301), ("low-degree", 300)])
    def test_blocks_hold_a_row_when_the_budget_rounds_to_zero(self, block_rows, monkeypatch,
                                                              reason, rows):
        # a budget below one leaf rounds every later block's bound to 0 rows, as
        # a |U| above 2^17 whose leaves mostly survive does; each block takes a row
        monkeypatch.setattr(tester, "_PAIR_FLOATS", tester._LEAF_SIZE // 2)
        g, cfg, v = self._event_at(400, 300, reason)
        verdict = self._compare(g, cfg)
        if reason is None:
            assert verdict.decision == "accept" and verdict.s_size == 400
        else:
            assert verdict.evidence.reason == reason and verdict.evidence.vertex == v
        assert block_rows == [8] + [1] * (rows - 8)

    def test_blocks_in_eight_dimensions_stay_under_256_rows(self, block_rows):
        # heavy-tailed points in 8 dimensions, about 1000 distinct T values in
        # 16 leaves of up to 64: each row pairs with more than half of them, so
        # the block at S position 248, which holds the witness, gets fewer
        # than 256 rows; the rows before it double from 8
        n, k, position = 3000, 1, 248
        cfg = self._sized(n, k, 8, 520, 1250, 905)
        g = build_exact_knn_graph(np.random.default_rng(905).standard_cauchy((n, 8)), k)
        v = int(self._s_prime(n, cfg)[position])
        adjacency = rows_of(g)
        adjacency[v] = np.argsort(((g.coords - g.coords[v]) ** 2).sum(axis=1))[-k:]
        verdict = self._compare(graph_from_rows(g.coords, tuple(adjacency)), cfg)
        assert verdict.evidence.reason == "witness" and verdict.evidence.vertex == v
        assert verdict.s_size > 504 and block_rows[:5] == [8, 16, 32, 64, 128]
        assert len(block_rows) == 6 and block_rows[5] < 256


@pytest.fixture
def scan_events(monkeypatch):
    """("index", rows) for every leaf index the tester builds and ("block", rows) for every block of S, in order."""
    events = []
    index, query = tester.leaf_index, tester.leaf_pairs

    def index_spy(pts, leaf_size):
        events.append(("index", pts.shape[0]))
        return index(pts, leaf_size)

    def query_spy(lo, hi, r, levels):
        events.append(("block", r.size))
        return query(lo, hi, r, levels)

    monkeypatch.setattr(tester, "leaf_index", index_spy)
    monkeypatch.setattr(tester, "leaf_pairs", query_spy)
    return events


def _entry(g):
    """The tester's cached index entry for g's coordinate array; KeyError when the array has none."""
    return tester._GRAPH_INDEX[id(g.coords)]


class TestCachedGraphIndex:
    """Runs whose distinct T values U cover half the vertices: the first records the
    coordinate array, the second builds its index over all vertices and later
    ones, on any graph over the array, reuse it. Every run equals the literal
    nested loop."""

    @staticmethod
    def _runs(g, cfg, events):
        """The scan events of three runs on g; every run must equal naive_run_tester."""
        slow = naive_run_tester(ReferenceOracle(g), cfg)
        seen = []
        for _ in range(3):
            events.clear()
            fast = run_tester(OracleSession(g), cfg)
            assert (fast.decision, fast.evidence, fast.queries) == (slow.decision, slow.evidence, slow.queries)
            assert (fast.s_prime_size, fast.s_size, fast.t_size) == (slow.s_prime_size, slow.s_size, slow.t_size)
            seen.append(list(events))
        return slow, seen

    @staticmethod
    def _u_size(n, cfg):
        return np.unique(TestNaiveEquivalence._t(n, cfg)).size

    @staticmethod
    def _blocks(events):
        return [rows for kind, rows in events if kind == "block"]

    def test_witness_in_an_early_block(self, scan_events):
        n, k = 400, 2
        g = build_exact_knn_graph(np.random.default_rng(910).random((n, 2)), k)
        cfg = TestNaiveEquivalence._sized(n, k, 2, n, 1.2 * n, 910)
        u = self._u_size(n, cfg)
        assert n // 2 <= u < n
        v = int(TestNaiveEquivalence._s_prime(n, cfg)[3])
        adjacency = rows_of(g)
        adjacency[v] = np.argsort(((g.coords - g.coords[v]) ** 2).sum(axis=1))[-k:]
        g = graph_from_rows(g.coords, tuple(adjacency))
        slow, seen = self._runs(g, cfg, scan_events)
        assert slow.evidence.reason == "witness" and slow.evidence.vertex == v
        assert seen == [[("index", u), ("block", 8)], [("index", n), ("block", 8)], [("block", 8)]]

    @pytest.mark.parametrize("delta,n,k,s_prime,pair_floats", [(2, 800, 3, 300, 1 << 12), (8, 1000, 2, 400, None)])
    def test_dense_accept_switches_to_the_index_over_u_once_the_budget_binds(
            self, scan_events, monkeypatch, delta, n, k, s_prime, pair_floats):
        if pair_floats is not None:  # in the plane, a small budget makes the scan long sooner
            monkeypatch.setattr(tester, "_PAIR_FLOATS", pair_floats)
        g = build_exact_knn_graph(np.random.default_rng(911).random((n, delta)), k)
        cfg = TestNaiveEquivalence._sized(n, k, delta, s_prime, 1.1 * n, 911)
        u = self._u_size(n, cfg)
        assert n // 2 <= u < n
        slow, seen = self._runs(g, cfg, scan_events)
        assert slow.decision == "accept" and slow.s_size == s_prime
        assert seen[0][0] == ("index", u) and seen[0].count(("index", u)) == 1
        assert seen[1][0] == ("index", n) and seen[1][1:] == seen[2]
        # the plus-8 rule sizes every block before the one |U|-row build, the
        # float budget the block right after it
        switch = seen[2].index(("index", u))
        assert seen[2].count(("index", u)) == 1 and 0 < switch < len(seen[2]) - 1
        blocks = self._blocks(seen[2])
        before = np.cumsum([0] + blocks[:-1])
        assert blocks[:switch] == [8 * 2**i for i in range(switch)]
        assert blocks[switch] < before[switch] + 8

    def test_t_covering_every_vertex_builds_no_index_over_u_once_cached(self, scan_events, monkeypatch):
        monkeypatch.setattr(tester, "_PAIR_FLOATS", 1 << 10)
        n, k = 200, 2
        g = build_exact_knn_graph(np.random.default_rng(912).random((n, 2)), k)
        cfg = TestNaiveEquivalence._sized(n, k, 2, n, 15 * n, 912)
        assert self._u_size(n, cfg) == n
        slow, seen = self._runs(g, cfg, scan_events)
        assert slow.decision == "accept"
        blocks = self._blocks(seen[2])
        assert any(rows < lo + 8 for rows, lo in zip(blocks, np.cumsum([0] + blocks[:-1])))
        assert [e for e in sum(seen, []) if e[0] == "index"] == [("index", n)] * 2
        assert seen[1][0] == ("index", n) and seen[1][1:] == seen[2]

    def test_u_below_half_of_the_vertices_is_never_cached(self, scan_events):
        n, k = 400, 2
        g = build_exact_knn_graph(np.random.default_rng(913).random((n, 2)), k)
        cfg = TestNaiveEquivalence._sized(n, k, 2, n, 0.6 * n, 913)
        u = self._u_size(n, cfg)
        assert u < n // 2
        _, seen = self._runs(g, cfg, scan_events)
        assert all(events[0] == ("index", u) and events.count(("index", u)) == 1 for events in seen)
        assert id(g.coords) not in tester._GRAPH_INDEX

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_on_lattices_with_coincident_points(self, delta):
        rng = np.random.default_rng(914 + delta)
        sites = rng.integers(0, {1: 700, 2: 25, 3: 9}[delta], size=(1000, delta))
        pts = np.concatenate((sites, sites[:500])).astype(np.float64)
        k = 1 + delta % 2
        g = corrupt_edges(build_exact_knn_graph(pts, k), 0.01 * (delta - 1), delta)
        cfg = TestNaiveEquivalence._sized(g.n, k, delta, 150, 1.2 * g.n, delta)
        assert 2 * self._u_size(g.n, cfg) >= g.n
        self._runs(g, cfg, [])
        assert _entry(g) is not None

    @pytest.mark.parametrize("seed", range(10))
    def test_on_coordinates_whose_distances_overflow(self, seed):
        # theory mode draws T far beyond n here, so U is every vertex; experiment
        # mode draws about n values, so U misses some of them
        delta = (2, 3, 2, 3, 2, 3, 1, 1, 8, 8)[seed]
        rng = np.random.default_rng(400 + seed)
        with np.errstate(over="ignore"):
            g = build_exact_knn_graph(overflow_points(rng, 60, delta, seed >= 3), 3)
            g = corrupt_edges(g, 0.1 * (seed % 2), seed)
        for cfg in (TesterConfig(k=3, epsilon=0.5, delta=delta, seed=seed),
                    TestNaiveEquivalence._sized(g.n, 3, delta, g.n, g.n, seed)):
            assert 2 * self._u_size(g.n, cfg) >= g.n
            self._runs(g, cfg, [])


class TestGraphIndexCache:
    def _dense_runs(self, g, runs=2):
        cfg = TestNaiveEquivalence._sized(g.n, 2, g.delta, 100, 2 * g.n, 0)
        return [run_tester(OracleSession(g), cfg).to_json_dict() for _ in range(runs)]

    def test_cached_arrays_are_read_only(self):
        g = build_exact_knn_graph(np.random.default_rng(920).random((500, 3)), 2)
        self._dense_runs(g)
        leaves, first, p, levels = _entry(g)
        arrays = [leaves, first, p] + [a for box in levels for a in box]
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            p[0, 0, 0] = 1.0

    @staticmethod
    def _point_sets(rng, count):
        """count exact graphs, each with a corrupt_edges child over its coordinate array."""
        graphs = []
        for _ in range(count):
            g = build_exact_knn_graph(rng.random((100, 2)), 2)
            graphs += [g, corrupt_edges(g, 0.05, 0)]
        assert all(a.coords is b.coords for a, b in zip(graphs[::2], graphs[1::2]))
        return graphs

    def test_entries_vanish_with_their_graphs(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(tester, "_GRAPH_INDEX", cache)
        graphs = self._point_sets(np.random.default_rng(921), 50)
        for g in graphs:
            self._dense_runs(g, runs=1)
        assert len(cache) == 50 and all(_entry(g) is not None for g in graphs)
        del graphs, g
        gc.collect()
        assert len(cache) == 0

    def test_point_sets_made_after_drops_record_their_first_run(self, monkeypatch, scan_events):
        # a new array that takes the id of a dropped one: its first dense run
        # must still only record it, and so build the index over U, as on a fresh array
        cache = {}
        monkeypatch.setattr(tester, "_GRAPH_INDEX", cache)
        rng = np.random.default_rng(923)
        graphs = self._point_sets(rng, 50)
        for g in graphs:
            self._dense_runs(g, runs=1)
        dropped = set(cache)
        del graphs, g
        gc.collect()
        assert len(cache) == 0
        # the arrays made are kept alive, so each takes a place no earlier one holds
        made = [rng.random((100, 2))]
        while id(made[-1]) not in dropped:
            assert len(made) < 5000, "no new array took the id of a dropped one"
            made.append(rng.random((100, 2)))
        g = build_exact_knn_graph(made[-1], 2)
        assert g.coords is made[-1]
        cfg = TestNaiveEquivalence._sized(g.n, 2, g.delta, 100, 2 * g.n, 0)
        u = TestCachedGraphIndex._u_size(g.n, cfg)
        assert u < g.n
        scan_events.clear()
        TestNaiveEquivalence()._compare(g, cfg)
        assert scan_events[0] == ("index", u) and _entry(g) is None

    def test_equal_but_distinct_arrays_do_not_share_an_index(self, scan_events):
        g = build_exact_knn_graph(np.random.default_rng(924).random((500, 2)), 2)
        twin = GeometricGraph(g.coords.copy(), g.indptr, g.indices, g.k_hint)
        assert twin.equals(g) and twin.coords is not g.coords
        cfg = TestNaiveEquivalence._sized(g.n, 2, g.delta, 100, 2 * g.n, 0)
        u = TestCachedGraphIndex._u_size(g.n, cfg)
        assert u < g.n
        self._dense_runs(g)
        assert ("index", g.n) in scan_events
        scan_events.clear()
        TestNaiveEquivalence()._compare(twin, cfg)
        assert scan_events[0] == ("index", u)
        assert _entry(g) is not None and _entry(twin) is None

    @pytest.mark.parametrize("fraction", [0.0, 0.05])
    def test_corrupted_child_of_a_cached_graph_builds_no_index(self, scan_events, fraction):
        n, k = 800, 3
        g = build_exact_knn_graph(np.random.default_rng(925).random((n, 2)), k)
        cfg = TestNaiveEquivalence._sized(n, k, 2, 200, 1.2 * n, 925)
        assert n // 2 <= TestCachedGraphIndex._u_size(n, cfg) < n
        for _ in range(2):
            run_tester(OracleSession(g), cfg)
        assert scan_events.count(("index", n)) == 1
        child = corrupt_edges(g, fraction, 925)
        scan_events.clear()
        verdict = TestNaiveEquivalence()._compare(child, cfg)
        assert verdict.decision == ("accept" if fraction == 0 else "reject")
        assert scan_events and all(kind == "block" for kind, _ in scan_events)
        assert _entry(child) is _entry(g) is not None

    def test_threads_on_one_fresh_graph_match_sequential_runs(self):
        pts = np.random.default_rng(922).random((2000, 2))
        g = corrupt_edges(build_exact_knn_graph(pts, 3), 0.002, 922)
        twin = GeometricGraph(g.coords.copy(), g.indptr, g.indices)
        cfgs = [TesterConfig(k=3, epsilon=0.5, delta=2, seed=s) for s in range(16)]
        want = [run_tester(OracleSession(twin), cfg).to_json_dict() for cfg in cfgs]
        assert _entry(twin) is not None and id(g.coords) not in tester._GRAPH_INDEX
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_tester, OracleSession(g), cfg) for cfg in cfgs]
                got = [f.result(timeout=120).to_json_dict() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert _entry(g) is not None
