"""Knowledge-graph simulation against the gadget distributions."""

import math

import numpy as np
import pytest
import scipy.stats

from knncheck.adversary import estimate_collision_probability, simulate_queries
from knncheck.generators import sample_d2


def _budget(n, k, epsilon):
    return int(math.isqrt(int(n / (8 * epsilon * (k + 1)))))


class TestSimulateQueries:
    def test_d1_never_sees_duplicates(self):
        for seed in range(30):
            state = simulate_queries("D1", 512, 1, None, budget=100, seed=seed)
            assert not state.duplicate_seen
            assert state.queries_used == 100
            assert len(state.revealed) == 100

    def test_d2_full_scan_always_sees_duplicates(self):
        n, k = 240, 2
        m = n // (k + 1)
        for seed in range(10):
            state = simulate_queries("D2", n, k, 0.1, budget=m, seed=seed)
            assert state.duplicate_seen

    def test_d2_duplicates_share_base_coordinates(self):
        n, k = 240, 2
        m = n // (k + 1)
        state = simulate_queries("D2", n, k, 0.2, budget=m, seed=5)
        bases = list(state.revealed.values())
        assert len(bases) == m
        assert len(set(bases)) < m  # relocated gadgets collapse onto targets

    def test_budget_zero(self):
        state = simulate_queries("D2", 120, 1, 0.1, budget=0, seed=1)
        assert not state.duplicate_seen and not state.revealed

    def test_deterministic(self):
        a = simulate_queries("D2", 512, 1, 0.1, budget=50, seed=7)
        b = simulate_queries("D2", 512, 1, 0.1, budget=50, seed=7)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_queries("D3", 120, 1, 0.1, budget=1)
        with pytest.raises(ValueError):
            simulate_queries("D1", 121, 1, None, budget=1)
        with pytest.raises(ValueError):
            simulate_queries("D2", 120, 1, 0.1, budget=61)
        with pytest.raises(ValueError):
            simulate_queries("D2", 120, 1, None, budget=1)

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, -0.5, 0.0, math.nan, math.inf])
    def test_d2_epsilon_range_matches_sample_d2(self, epsilon):
        # n=44, k=3: 11 gadgets, so at most 5 relocations and epsilon <= 5/11
        message = rf"epsilon={epsilon} out of range: .* allow epsilon up to 5/11 = {5 / 11!r}$"
        with pytest.raises(ValueError, match=message):
            simulate_queries("D2", 44, 3, epsilon, budget=3)
        with pytest.raises(ValueError, match=message):
            sample_d2(44, 3, epsilon, seed=0)


class TestCollisionProbability:
    def test_zero_budget_gives_zero(self):
        p, se = estimate_collision_probability(1024, 1, 0.1, budget=0, trials=200, seed=0)
        assert p == 0.0 and se == 0.0

    def test_monotone_in_budget(self):
        estimates = [
            estimate_collision_probability(4096, 1, 0.1, budget=b, trials=2000, seed=42)[0]
            for b in (10, 25, 50)
        ]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_union_bound_holds(self):
        n, k, eps = 2048, 1, 0.1
        b = _budget(n, k, eps)
        p, se = estimate_collision_probability(n, k, eps, budget=b, trials=4000, seed=3)
        assert p <= b * b * eps * (k + 1) / n + 3 * se

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            estimate_collision_probability(1024, 1, 0.1, budget=10, trials=10)


class TestKnowledgeIndistinguishability:
    def test_reveal_histograms_match_without_duplicates(self):
        """Conditioned on no duplicate reveal, D2's revealed base coordinates are
        statistically indistinguishable from D1's (chi-squared, significance 0.01)."""
        n, k, eps = 1024, 1, 0.1
        m = n // (k + 1)
        b = _budget(n, k, eps)
        trials = 10_000

        hist1 = np.zeros(m, dtype=np.int64)
        hist2 = np.zeros(m, dtype=np.int64)
        base_to_gadget = {3.0 * (k + 1) * g: g for g in range(m)}
        for seed in range(trials):
            s1 = simulate_queries("D1", n, k, None, budget=b, seed=seed)
            for base in s1.revealed.values():
                hist1[base_to_gadget[base]] += 1
            s2 = simulate_queries("D2", n, k, eps, budget=b, seed=trials + seed)
            if s2.duplicate_seen:
                continue
            for base in s2.revealed.values():
                hist2[base_to_gadget[base]] += 1

        table = np.vstack([hist1, hist2])
        _, p_value, _, _ = scipy.stats.chi2_contingency(table)
        assert p_value >= 0.01
