"""Query-budget simulation against the two gadget distributions.

The oracle here is gadget-granular: one query reveals a whole line gadget,
which only helps the querying algorithm. The simulation estimates how often a
budget of b fresh reveals uncovers both members of some coincident gadget
pair, the event that lets an algorithm tell the far distribution from the
k-NN one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .generators import _base_positions, _d2_relocations, draw_relocation_pairs
from .sampling import rng_from, sample_without_replacement, split_seed

__all__ = ["KnowledgeState", "simulate_queries", "estimate_collision_probability"]

@dataclass(frozen=True)
class KnowledgeState:
    """What a query-bounded algorithm has seen: gadgets with their base coordinates."""

    revealed: dict[int, float]
    duplicate_seen: bool
    queries_used: int


def simulate_queries(
    dist: str,
    n: int,
    k: int,
    epsilon: float | None,
    budget: int,
    seed: int = 0,
) -> KnowledgeState:
    """Reveal ``budget`` fresh gadgets uniformly at random from D1 or D2.

    D1 has no coincident gadgets, so duplicate_seen is always False there.
    D2 relocates ceil(eps*n/k') gadgets onto others, with epsilon in the range
    :func:`generators.sample_d2` accepts; duplicate_seen records whether both
    members of any relocated pair were revealed.
    """
    if dist not in ("D1", "D2"):
        raise ValueError(f"distribution must be 'D1' or 'D2', got {dist!r}")
    k1 = k + 1
    if n % k1:
        raise ValueError(f"n={n} must be a multiple of k+1={k1}")
    m = n // k1
    if not 0 <= budget <= m:
        raise ValueError(f"budget {budget} out of range [0, {m}]")

    seq_pairs, seq_reveal = split_seed(seed, 2)
    positions = _base_positions(m, k1)
    if dist == "D2":
        if epsilon is None:
            raise ValueError("D2 needs epsilon")
        pairs = draw_relocation_pairs(m, _d2_relocations(n, k, epsilon), rng_from(seq_pairs))
    else:
        pairs = ()

    base = {src: float(positions[dst]) for src, dst in pairs}
    revealed_ids = sample_without_replacement(m, budget, rng_from(seq_reveal))
    seen = set(int(g) for g in revealed_ids)
    revealed = {g: base.get(g, float(positions[g])) for g in sorted(seen)}
    duplicate = any(src in seen and dst in seen for src, dst in pairs)
    return KnowledgeState(revealed=revealed, duplicate_seen=duplicate, queries_used=budget)


def estimate_collision_probability(
    n: int, k: int, epsilon: float, budget: int, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of Pr[duplicate_seen] under D2 with the given budget.

    Returns (p_hat, standard error). Trials are independent with per-trial
    derived seeds, aggregated in trial order.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    hits = 0
    for trial_seq in split_seed(seed, trials):
        state = simulate_queries("D2", n, k, epsilon, budget, seed=trial_seq)
        hits += state.duplicate_seen
    p_hat = hits / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr
