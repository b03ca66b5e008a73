"""Seeded sampling primitives shared by the tester, generators and adversary.

All randomness flows through numpy's PCG64 seeded from SeedSequence, which is
splittable: derived streams are independent and runs are reproducible from a
single 64-bit seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rng_from", "split_seed", "derive_seed", "sample_without_replacement"]


def rng_from(seed) -> np.random.Generator:
    """Generator for an integer seed or an existing SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def split_seed(seed, count: int) -> list[np.random.SeedSequence]:
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(count)
    return np.random.SeedSequence(int(seed)).spawn(count)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from a tuple of integers."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)
    return int(state[0])


def sample_without_replacement(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` distinct int64 values of range(n), a uniform ordered sample.

    It is numpy's own ``rng.choice(n, size, replace=False)``, so its values
    follow numpy's stream for that call; n may exceed memory when size is small.
    """
    if not 0 <= size <= n:
        raise ValueError(f"sample size {size} out of range [0, {n}]")
    return rng.choice(n, size, replace=False)
