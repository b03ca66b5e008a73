"""Seeded sampling primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_sample_without_replacement
from knncheck.sampling import derive_seed, rng_from, sample_without_replacement, split_seed


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.data(), st.integers(0, 2**64 - 1))
def test_sampler_equals_the_swap_loop(n, data, seed):
    size = data.draw(st.one_of(st.sampled_from([0, 1, n]), st.integers(0, n)), label="size")
    got = sample_without_replacement(n, size, rng_from(seed))
    want = reference_sample_without_replacement(n, size, rng_from(seed))
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, size", [(0, 0), (2**40, 5000), (2**62, 2), (2**63 - 1, 300)])
def test_sampler_equals_the_swap_loop_far_beyond_memory(n, size):
    for seed in range(3):
        got = sample_without_replacement(n, size, rng_from(seed))
        assert np.array_equal(got, reference_sample_without_replacement(n, size, rng_from(seed)))


def test_sampler_resolves_chained_swaps():
    # draws that make every step take the value an earlier step moved
    class Fixed:
        def integers(self, low, high):
            return np.array([1, 2, 3, 3, 5, 5, 6], dtype=np.int64)

    got = sample_without_replacement(7, 7, Fixed())
    assert np.array_equal(got, reference_sample_without_replacement(7, 7, Fixed()))
    assert sorted(got.tolist()) == list(range(7))


# bounds on numpy's 32-bit and 64-bit bounded paths, and the draws' own 2**62 + 11
STREAM_BOUNDS = [7, 16384, 2**31 + 5, 2**32, 2**40 + 3, 2**62 + 11]


@pytest.mark.parametrize("n", STREAM_BOUNDS)
@pytest.mark.parametrize("edges, size", [(1000, 37), (2**33 + 1, 1), (50, 50)])
def test_bounded_draws_are_equal_one_by_one_in_bulk_and_in_chunks(n, edges, size):
    """generators.corrupt_edges draws its targets in bulk on this property.

    Right after the sampler's array-bound draw, m scalar calls
    rng.integers(0, n) return the values of one call with size=m and of any
    split of it into chunks.
    """

    def after_sampler_draw():
        rng = rng_from(derive_seed(n, edges, size))
        rng.integers(np.arange(size), edges)
        return rng

    m = 300
    rng = after_sampler_draw()
    one_by_one = [int(rng.integers(0, n)) for _ in range(m)]
    bulk = after_sampler_draw().integers(0, n, size=m)
    rng = after_sampler_draw()
    chunks = np.concatenate([rng.integers(0, n, size=c) for c in (1, 0, 2, 3, 1, 50, 0, 243)])
    assert bulk.tolist() == one_by_one
    assert chunks.tolist() == one_by_one


def test_sample_without_replacement_is_a_prefix_of_a_permutation():
    rng = rng_from(3)
    for n, size in ((10, 10), (100, 7), (5, 0), (1, 1)):
        got = sample_without_replacement(n, size, rng_from(9))
        assert got.size == size
        assert len(set(got.tolist())) == size
        assert all(0 <= v < n for v in got.tolist())


def test_full_sample_is_a_permutation():
    got = sample_without_replacement(50, 50, rng_from(4))
    assert sorted(got.tolist()) == list(range(50))


def test_deterministic_given_seed():
    a = sample_without_replacement(100, 20, rng_from(7))
    b = sample_without_replacement(100, 20, rng_from(7))
    assert np.array_equal(a, b)


def test_uniformity_of_first_element():
    # each value should be first with roughly equal frequency
    counts = np.zeros(8, dtype=int)
    for seed in range(4000):
        counts[sample_without_replacement(8, 1, rng_from(seed))[0]] += 1
    assert counts.min() > 400 and counts.max() < 600


def test_size_out_of_range_rejected():
    with pytest.raises(ValueError):
        sample_without_replacement(5, 6, rng_from(0))
    with pytest.raises(ValueError):
        sample_without_replacement(5, -1, rng_from(0))


def test_split_seed_streams_are_independent():
    a, b = split_seed(12, 2)
    draws_a = rng_from(a).integers(0, 1 << 30, size=8)
    draws_b = rng_from(b).integers(0, 1 << 30, size=8)
    assert not np.array_equal(draws_a, draws_b)
    a2, b2 = split_seed(12, 2)
    assert np.array_equal(draws_a, rng_from(a2).integers(0, 1 << 30, size=8))
    assert np.array_equal(draws_b, rng_from(b2).integers(0, 1 << 30, size=8))


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
