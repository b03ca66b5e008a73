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
    """First ``size`` entries of a partial Fisher-Yates shuffle of range(n).

    Step j swaps positions j and r_j >= j, with every r_j from one draw. The
    swaps are resolved without a loop, to the same values: step j takes the
    value at r_j, which is r_j itself unless an earlier step i also targeted
    r_j; then it is a(i) for the last such i, where a(i) is the value that
    position i held before step i. a(i) is i, or by the same rule a(i') for
    the last earlier step i' that targeted i. These links point to earlier
    steps, so they form a forest, and a(i) is the root of i's tree.
    """
    if not 0 <= size <= n:
        raise ValueError(f"sample size {size} out of range [0, {n}]")
    if size == 0:
        return np.arange(0, dtype=np.int64)
    steps = np.arange(size)
    r = rng.integers(steps, n)
    order = np.argsort(r, kind="stable")
    r_sorted = r[order]
    repeat = r_sorted[1:] == r_sorted[:-1]
    # prev[j]: the last step before j with the same target, or -1
    prev = np.full(size, -1)
    prev[order[1:][repeat]] = order[:-1][repeat]
    # last[p]: the last step of all that targets position p < size, or -1
    last = np.full(size, -1)
    group_end = np.append(~repeat, True) & (r_sorted < size)
    last[r_sorted[group_end]] = order[group_end]
    # steps that target i come no later than i, so the last one before i is
    # last[i], or prev[i] when step i itself is the last
    root = np.where(last == steps, prev, last)
    root = np.where(root < 0, steps, root)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    return np.where(prev < 0, r, root[prev])
