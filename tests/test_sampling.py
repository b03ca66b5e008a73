"""Seeded sampling primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knncheck.sampling import derive_seed, rng_from, sample_without_replacement, split_seed


def _check_sample(n, size, seed):
    """size distinct int64 values in [0, n), the same for the same seed."""
    got = sample_without_replacement(n, size, rng_from(seed))
    assert got.dtype == np.int64 and got.shape == (size,)
    assert np.unique(got).size == size
    assert size == 0 or 0 <= int(got.min()) and int(got.max()) < n
    assert np.array_equal(got, sample_without_replacement(n, size, rng_from(seed)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.data(), st.integers(0, 2**64 - 1))
def test_sampler_draws_distinct_values_in_range(n, data, seed):
    size = data.draw(st.one_of(st.sampled_from([0, 1, n]), st.integers(0, n)), label="size")
    _check_sample(n, size, seed)


@pytest.mark.parametrize("n, size", [(0, 0), (2**40, 5000), (2**62, 2), (2**63 - 1, 300)])
def test_sampler_draws_distinct_values_far_beyond_memory(n, size):
    for seed in range(3):
        _check_sample(n, size, seed)


# bounds on numpy's 32-bit and 64-bit bounded paths, and the draws' own 2**62 + 11
STREAM_BOUNDS = [7, 16384, 2**31 + 5, 2**32, 2**40 + 3, 2**62 + 11]


@pytest.mark.parametrize("n", STREAM_BOUNDS)
@pytest.mark.parametrize("edges, size", [(1000, 37), (2**33 + 1, 1), (50, 50)])
def test_bounded_draws_are_equal_one_by_one_in_bulk_and_in_chunks(n, edges, size):
    """numpy's bounded stream under one bound, in bulk and in chunks.

    Right after the sampler's draw, m scalar calls rng.integers(0, n) return
    the values of one call with size=m and of any split of it into chunks.
    """

    def after_sampler_draw():
        rng = rng_from(derive_seed(n, edges, size))
        sample_without_replacement(edges, size, rng)
        return rng

    m = 300
    rng = after_sampler_draw()
    one_by_one = [int(rng.integers(0, n)) for _ in range(m)]
    bulk = after_sampler_draw().integers(0, n, size=m)
    rng = after_sampler_draw()
    chunks = np.concatenate([rng.integers(0, n, size=c) for c in (1, 0, 2, 3, 1, 50, 0, 243)])
    assert bulk.tolist() == one_by_one
    assert chunks.tolist() == one_by_one


@pytest.mark.parametrize("top", STREAM_BOUNDS)
def test_draws_under_an_array_of_bounds_are_equal_one_by_one_and_in_chunks(top):
    """generators.corrupt_edges draws the ranks of a block of rows on this property.

    Right after the sampler's draw, one call rng.integers(0, highs) with an
    array of bounds returns the values of one scalar call per bound, and of
    any split of the bounds into chunks, and leaves the stream at the same
    place. The bounds mix numpy's 32-bit and 64-bit paths, and a bound of 1
    draws nothing.
    """
    mix = rng_from(derive_seed(top))
    highs = mix.integers(1, top, size=300, endpoint=True)
    highs[::7] = 1
    highs[::11] = mix.choice(STREAM_BOUNDS, size=highs[::11].size)

    def after_sampler_draw():
        rng = rng_from(derive_seed(top, 1))
        sample_without_replacement(1000, 37, rng)
        return rng

    rng = after_sampler_draw()
    one_by_one = [int(rng.integers(0, h)) for h in highs.tolist()] + [int(rng.integers(0, 2**62))]
    rng = after_sampler_draw()
    bulk = rng.integers(0, highs).tolist() + [int(rng.integers(0, 2**62))]
    rng = after_sampler_draw()
    cuts = [0, 1, 1, 3, 10, 11, 150, 150, 299, 300]
    chunks = [v for a, b in zip(cuts, cuts[1:]) for v in rng.integers(0, highs[a:b]).tolist()]
    chunks.append(int(rng.integers(0, 2**62)))
    assert bulk == one_by_one
    assert chunks == one_by_one


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
