"""Acceptance gate: one test per criterion, each printing a pass/fail line.

This is the slow, full-scale suite (several minutes end to end); run it with
`pytest tests/test_acceptance.py -v -s`. Unit-scale coverage lives in the
other test modules.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats

from helpers import exhaustive_min_edits, graph_from_rows, random_small_graph, rows_of
from knncheck.adversary import estimate_collision_probability
from knncheck.cli import main as cli_main
from knncheck.core import EdgeBudget, OracleSession
from knncheck.exact import build_exact_knn_graph, epsilon_distance, max_shared_knn, witnesses_of
from knncheck.generators import (
    corrupt_edges,
    dimension_lb_instances,
    line_gadget,
    sample_d1,
    sample_d2,
    tight_witness_construction,
)
from knncheck.graphio import write_knng
from knncheck.harness import DatasetSpec, SweepConfig, export_report, query_budget_ratio, run_sweep
from knncheck.tester import TesterConfig, kissing_number, run_tester, sample_sizes

SWEEP_SEED = 20240817


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass(frozen=True)
class TheoryRun:
    n: int
    cfg: TesterConfig
    decision: str
    s_size: int
    queries_total: int


@pytest.fixture(scope="module")
def one_sided_runs():
    """1008 theory-mode runs on exact k-NN graphs: n=2048, k in {1,5,10}, delta in {2,4,8}."""
    runs = []
    for k, delta in itertools.product((1, 5, 10), (2, 4, 8)):
        pts = np.random.default_rng(1000 + 10 * k + delta).random((2048, delta))
        g = build_exact_knn_graph(pts, k)
        for seed in range(112):
            cfg = TesterConfig(k=k, epsilon=0.1, delta=delta, seed=seed)
            v = run_tester(OracleSession(g), cfg)
            runs.append(TheoryRun(g.n, cfg, v.decision, v.s_size, v.queries.total))
    return runs


@pytest.fixture(scope="module")
def far_runs():
    """300 theory-mode runs on fresh far gadget instances: k=2, eps=0.05.

    n = 4095, the largest multiple of k+1 below the nominal 4096 (the gadget
    distributions need n divisible by k+1).
    """
    runs = []
    for seed in range(300):
        g = sample_d2(4095, 2, 0.05, seed=seed)
        if seed < 10:  # spot-certify farness with the exact oracle
            rep = epsilon_distance(g, 2, EdgeBudget.provided(2.0))
            assert rep.epsilon_distance > 0.05
        cfg = TesterConfig(k=2, epsilon=0.05, delta=1, seed=seed)
        v = run_tester(OracleSession(g), cfg)
        # the run confirms its evidence by the O(k) pair check; check it against ground truth
        assert v.decision == "accept" or witnesses_of(g, v.evidence.vertex, 2).incomplete
        runs.append(TheoryRun(g.n, cfg, v.decision, v.s_size, v.queries.total))
    return runs


def test_criterion_01_one_sided_error(one_sided_runs):
    rejects = sum(r.decision == "reject" for r in one_sided_runs)
    _report(
        1,
        len(one_sided_runs) >= 1000 and rejects == 0,
        f"{rejects} rejections over {len(one_sided_runs)} runs on exact k-NN graphs",
    )


def test_criterion_02_soundness_on_far_instances(far_runs):
    n = len(far_runs)
    rejects = sum(r.decision == "reject" for r in far_runs)
    freq = rejects / n
    # one-sided 99% Clopper-Pearson lower confidence bound
    lcb = scipy.stats.beta.ppf(0.01, rejects, n - rejects + 1) if rejects else 0.0
    _report(
        2,
        freq >= 2 / 3 and lcb > 0.60,
        f"rejection frequency {rejects}/{n} = {freq:.4f}, exact-binomial 99% LCB {lcb:.4f}",
    )


def test_criterion_03_query_complexity(one_sided_runs, far_runs):
    worst_ratio = 0.0
    for r in one_sided_runs + far_runs:
        s_prime, t, cap = sample_sizes(r.n, r.cfg)
        closed_form = s_prime + r.s_size * (cap + 2) + t
        theorem = (
            300.0
            * math.sqrt(r.n)
            * r.cfg.k**2
            * kissing_number(r.cfg.delta)
            / r.cfg.epsilon**2
        )
        assert r.queries_total <= closed_form, (r.cfg, r.queries_total, closed_form)
        assert closed_form <= theorem, (r.cfg, closed_form, theorem)
        worst_ratio = max(worst_ratio, closed_form / theorem)
    _report(
        3,
        True,
        f"measured <= closed form <= 300*sqrt(n)*k^2*psi/eps^2 on "
        f"{len(one_sided_runs) + len(far_runs)} runs (worst closed/theorem ratio "
        f"{worst_ratio:.3f})",
    )


def test_criterion_04_incomplete_vertex_bound():
    """Every generated far instance has at least eps*d*n/(2k) incomplete vertices."""
    cases = []
    for k, eps, seed in itertools.product((1, 2), (0.06, 0.11), range(5)):
        n = 240 - 240 % (k + 1)
        cases.append((sample_d2(n, k, eps, seed=seed), k, eps, float(k)))
    base = build_exact_knn_graph(np.random.default_rng(77).random((512, 2)), 4)
    for f, seed in itertools.product((0.02, 0.1), range(5)):
        g = corrupt_edges(base, f, seed=seed)
        rep = epsilon_distance(g, 4, EdgeBudget.provided(4.0))
        cases.append((g, 4, rep.epsilon_distance * 0.999, 4.0))
    for k in (1, 2):
        far, _ = dimension_lb_instances(k=k, epsilon=0.1, c=10)
        cases.append((far, k, 0.1, float(k)))

    checked = 0
    for g, k, eps, d in cases:
        rep = epsilon_distance(g, k, EdgeBudget.provided(d))
        if rep.epsilon_distance <= eps:
            continue
        checked += 1
        bound = eps * d * g.n / (2 * k)
        assert rep.incomplete_count >= bound, (g.n, k, eps, rep)
    _report(4, checked >= 20, f"bound held on all {checked} far instances")


def test_criterion_05_witness_sharing_bound_and_tightness():
    rng = np.random.default_rng(55)
    checked = 0
    for delta, k in itertools.product((1, 2, 3), (1, 2, 3)):
        psi = kissing_number(delta)
        for _ in range(100):
            pts = rng.random((200, delta))
            assert max_shared_knn(pts, k) <= k * psi
            checked += 1
    attained = []
    for k in (1, 2, 3):
        g, _ = tight_witness_construction(3, k)
        shared = max_shared_knn(g.coords, k)
        assert shared == 12 * k, (k, shared)
        attained.append(shared)
    _report(
        5,
        True,
        f"max_shared <= k*psi on {checked} random sets; delta=3 construction attains {attained}",
    )


def test_criterion_06_distance_oracle_equivalence():
    rng = np.random.default_rng(66)
    checked = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        g = random_small_graph(rng, k)
        rep = epsilon_distance(g, k, EdgeBudget.provided(float(k)))
        expected = exhaustive_min_edits(g, k)
        assert rep.min_edits == expected, (g.n, k, rep.min_edits, expected)
        assert rep.epsilon_distance * float(k) * g.n == pytest.approx(rep.min_edits)
        checked += 1

    # gadget-derived edge cases: pristine, one edge gone, fully emptied, tiny far pair
    edge_cases = []
    for k in (1, 2, 3):
        g = line_gadget(0.0, k)
        edge_cases.append((g, k))
        adjacency = rows_of(g)
        adjacency[0] = adjacency[0][1:]
        edge_cases.append((graph_from_rows(g.coords, tuple(adjacency)), k))
        adjacency = [np.empty(0, dtype=np.int64)] * g.n
        edge_cases.append((graph_from_rows(g.coords, tuple(adjacency)), k))
    edge_cases.append((sample_d2(12, 1, 0.2, seed=1), 1))
    edge_cases.append((sample_d1(12, 2, seed=1), 2))
    for g, k in edge_cases:
        rep = epsilon_distance(g, k, EdgeBudget.provided(float(k)))
        assert rep.min_edits == exhaustive_min_edits(g, k)
        checked += 1
    _report(6, True, f"min_edits matched the exhaustive tie-set oracle on {checked} instances")


def test_criterion_07_collision_probability():
    n, k, eps = 4096, 1, 0.1
    k1 = k + 1
    b = int(math.isqrt(int(n / (8 * eps * k1))))
    assert b == 50
    p_hat, stderr = estimate_collision_probability(n, k, eps, budget=b, trials=10_000, seed=7)
    union_bound = b * b * eps * k1 / n
    ok = p_hat <= 0.25 + 3 * stderr and p_hat <= union_bound + 3 * stderr
    _report(
        7,
        ok,
        f"p_hat={p_hat:.4f} (stderr {stderr:.4f}) vs 1/4 and b^2*eps*k'/n={union_bound:.4f}",
    )


@pytest.fixture(scope="module")
def acceptance_sweep():
    cfg = SweepConfig(
        k=10,
        grid=tuple((c1, c2) for c1 in (0.001, 0.01, 0.1) for c2 in (0.05, 0.5, 5.0)),
        datasets=(
            DatasetSpec(
                n=16384,
                delta=2,
                distribution="uniform",
                fractions=(9e-4, 4.5e-3, 9e-3, 1.8e-2, 9e-2),
                seeds=tuple(range(10)),
                corruptions_per_fraction=3,
            ),
        ),
        bucket_bounds=(1e-3, 5e-3, 1e-2, 2e-2),
        trials_per_cell=2,
        min_bucket=30,
        epsilon=0.01,
    )
    return run_sweep(cfg, seed=SWEEP_SEED)


def test_criterion_08_recall_by_bucket(acceptance_sweep):
    cells = {}
    for r in acceptance_sweep.rows:
        cells.setdefault((r.c1, r.c2), []).append((r.bucket_lo, r.recall))
    assert len(cells) == 9
    for cell, rows in cells.items():
        recalls = [rec for _, rec in sorted(rows)]
        assert all(a <= b for a, b in zip(recalls, recalls[1:])), (cell, recalls)
    top = [r for r in acceptance_sweep.rows if (r.c1, r.c2) == (0.1, 5.0) and r.bucket_lo == 0.02]
    assert top and top[0].recall >= 0.9, top
    _report(
        8,
        True,
        f"recall non-decreasing in all 9 cells; cell (0.1, 5) top-bucket recall "
        f"{top[0].recall:.3f} over {top[0].instances} runs",
    )


def test_criterion_09_query_budget_ratio():
    n, k = 65_536, 10
    pts = np.random.default_rng(99).random((n, 2))
    g = build_exact_knn_graph(pts, k)
    cfg = TesterConfig(
        k=k, epsilon=0.1, delta=2, mode="experiment", c1=0.01, c2=0.5, seed=0
    )
    v = run_tester(OracleSession(g), cfg)
    ratio = query_budget_ratio(v, n, k)
    # the same conclusion from the sizing formulas alone
    s_prime, t, _ = sample_sizes(n, cfg)
    formula_ratio = (s_prime + s_prime * (2 * k + 1) + t) / (n * k)
    ok = v.decision == "accept" and ratio <= 0.1 and formula_ratio <= 0.1
    _report(
        9,
        ok,
        f"measured ratio {ratio:.4f}, formula worst case {formula_ratio:.4f} (<= 0.1)",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    pts = np.random.default_rng(5).random((512, 2))
    graph_path = tmp_path / "g.knng"
    write_knng(build_exact_knn_graph(pts, 3), graph_path)
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        '{"k": 2, "grid": [[0.2, 0.5]], "datasets": [{"n": 64, "delta": 2,'
        ' "distribution": "uniform", "fractions": [0.2], "seeds": [0]}],'
        ' "bucket_bounds": [0.01], "min_bucket": 1}'
    )
    commands = [
        ["test", str(graph_path), "--k", "3", "--epsilon", "0.1", "--seed", "21", "--json"],
        ["distance", str(graph_path), "--k", "3"],
        ["adversary", "--n", "512", "--k", "1", "--epsilon", "0.1",
         "--budget", "20", "--trials", "500", "--seed", "2", "--json"],
    ]
    for argv in commands:
        first_code = cli_main(argv)
        first = capsys.readouterr().out
        second_code = cli_main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first.encode() == second.encode(), argv

    texts = []
    for name in ("a", "b"):
        csv_path = tmp_path / f"{name}.csv"
        json_path = tmp_path / f"{name}.json"
        cli_main(["sweep", "--config", str(sweep_cfg), "-o", str(csv_path),
                  "--json", str(json_path), "--seed", "4"])
        capsys.readouterr()
        texts.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert texts[0] == texts[1]

    gen = []
    for name in ("c", "d"):
        out = tmp_path / f"{name}.knng"
        cli_main(["generate", "d2", "--n", "120", "--k", "2", "--epsilon", "0.1",
                  "--seed", "6", "-o", str(out)])
        capsys.readouterr()
        gen.append(out.read_bytes())
    assert gen[0] == gen[1]
    _report(10, True, "re-runs produced byte-identical JSON/CSV/graph outputs")
