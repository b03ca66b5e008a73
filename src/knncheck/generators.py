"""Constructive instance generators.

Line gadgets and the two gadget distributions (one always a k-NN graph, one
far from the property), the coincident-split construction attaining the
k * psi_delta witness-sharing bound, graded edge corruption of exact k-NN
graphs, and the stale-adjacency / recomputed pair used to probe the
dimension lower bound. Every generator is deterministic in its parameters
and seed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GeometricGraph, concat_ranges, row_blocks
from .exact import build_exact_knn_graph
from .sampling import rng_from, sample_without_replacement, split_seed

__all__ = [
    "line_gadget",
    "sample_d1",
    "sample_d2",
    "draw_relocation_pairs",
    "tight_witness_construction",
    "corrupt_edges",
    "dimension_lb_instances",
]


def line_gadget(x: float, k: int, delta: int = 1) -> GeometricGraph:
    """Complete digraph on k+1 unit-spaced collinear points starting at x.

    A line gadget is itself a k-NN graph. With delta > 1 the line is embedded
    on the first axis and padded with zeros.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    return _gadget_graph(k, np.array([float(x)]), np.arange(k + 1), delta)


def _gadget_graph(k: int, base: np.ndarray, perm: np.ndarray, delta: int = 1) -> GeometricGraph:
    """Gadget g holds vertices perm[g*k':(g+1)*k'] along its line from base[g], all adjacent;
    vertex v's coordinates and row are gathered in id order through pos[v] = g*k' + offset."""
    k1 = k + 1
    n = perm.size
    pos = np.empty_like(perm)
    pos[perm] = np.arange(n)
    offset = pos % k1
    coords = np.zeros((n, delta), dtype=np.float64)
    coords[:, 0] = base[pos // k1] + offset
    others = np.arange(k) + (np.arange(k) >= np.arange(k1)[:, None])  # row o: offsets other than o
    knn = others[offset]
    knn += (pos - offset)[:, None]
    # in place: a slot's position is read before its id is written; "wrap" is unbuffered, and every position in range
    np.take(perm, knn, out=knn, mode="wrap")
    return GeometricGraph._of_valid_rows(coords, np.arange(n + 1) * k, knn.ravel(), k_hint=k)


def _base_positions(gadget_count: int, k1: int) -> np.ndarray:
    # gap between consecutive gadgets is 3k' - k > k, so nearest neighbors stay in-gadget
    return 3.0 * k1 * np.arange(gadget_count, dtype=np.float64)


def sample_d1(n: int, k: int, seed: int) -> GeometricGraph:
    """Uniformly labelled union of n/(k+1) line gadgets; always a k-NN graph."""
    k1 = k + 1
    if n % k1:
        raise ValueError(f"n={n} must be a multiple of k+1={k1}")
    perm = rng_from(seed).permutation(n)
    return _gadget_graph(k, _base_positions(n // k1, k1), perm)


def draw_relocation_pairs(
    gadget_count: int, pair_count: int, rng: np.random.Generator
) -> tuple[tuple[int, int], ...]:
    """Disjoint (source, target) gadget pairs drawn without replacement."""
    if 2 * pair_count > gadget_count:
        raise ValueError(
            f"cannot relocate {pair_count} of {gadget_count} gadgets onto distinct targets"
        )
    chosen = sample_without_replacement(gadget_count, 2 * pair_count, rng)
    return tuple((int(chosen[i]), int(chosen[i + pair_count])) for i in range(pair_count))


def _d2_relocations(n: int, k: int, epsilon: float) -> int:
    """The number ceil(eps*n/k') of gadgets D2 relocates, once n and epsilon are checked.

    Each relocation needs its own source and target among the m = n/k'
    gadgets, so 1 <= ceil(eps*n/k') <= m/2: epsilon lies in (0, floor(m/2)/m],
    which is at most 1/2.
    """
    k1 = k + 1
    if n % k1:
        raise ValueError(f"n={n} must be a multiple of k+1={k1}")
    m = n // k1
    # the upper limit 1 keeps the ceiling finite; the count check is the real limit
    if not (0.0 < epsilon <= 1.0 and 2 * math.ceil(epsilon * n / k1) <= m):
        raise ValueError(
            f"epsilon={epsilon} out of range: D2 relocates ceil(epsilon*n/(k+1)) of the {m} "
            f"gadgets, at least one and each onto a distinct target; n={n}, k={k} allow "
            f"epsilon up to {m // 2}/{m} = {(m // 2) / m!r}"
        )
    return math.ceil(epsilon * n / k1)


def sample_d2(n: int, k: int, epsilon: float, seed: int) -> GeometricGraph:
    """Gadget graph with ceil(eps*n/k') gadgets relocated onto others' coordinates.

    Relocated gadgets keep their internal edges; every vertex of a coincident
    pair ends up with missing true nearest neighbors, which puts the graph
    beyond epsilon-distance epsilon (certified by the ground-truth oracle in
    tests rather than re-derived symbolically). For m = n/k' gadgets, epsilon
    lies in (0, floor(m/2)/m], which is at most 1/2.
    """
    r = _d2_relocations(n, k, epsilon)
    k1 = k + 1
    m = n // k1
    seq_pairs, seq_perm = split_seed(seed, 2)
    pairs = draw_relocation_pairs(m, r, rng_from(seq_pairs))
    base = _base_positions(m, k1)
    # sources and targets are distinct gadgets, so no target moves
    srcs, dsts = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    base[srcs] = base[dsts]
    perm = rng_from(seq_perm).permutation(n)
    return _gadget_graph(k, base, perm)


_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedron_directions() -> np.ndarray:
    """Twelve unit vectors at the vertices of a regular icosahedron.

    Pairwise chord length is about 1.05, strictly above the circumradius, so
    the center of the sphere is the strict nearest neighbor of every vertex.
    """
    raw = []
    for a in (-1.0, 1.0):
        for b in (-_PHI, _PHI):
            raw.append((0.0, a, b))
            raw.append((a, b, 0.0))
            raw.append((b, 0.0, a))
    return np.array(raw, dtype=np.float64) / math.sqrt(1.0 + _PHI * _PHI)


def tight_witness_construction(delta: int, k: int) -> tuple[GeometricGraph, int]:
    """Point set where k * psi_delta points share the focal vertex as k-nearest neighbor.

    Supported dimensions: 1 (base points at -1 and +1) and 3 (icosahedron
    vertices at radius 1). Each base point is split into k exactly coincident
    copies; the k-th nearest of every copy is then the focal origin. The
    returned graph has empty adjacency, vertex 0 is the focal point.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if delta == 1:
        dirs = np.array([[-1.0], [1.0]], dtype=np.float64)
    elif delta == 3:
        dirs = icosahedron_directions()
    else:
        raise ValueError(f"tight construction supports delta in {{1, 3}}, got {delta}")
    rows = [np.zeros(delta, dtype=np.float64)]
    for d in dirs:
        rows.extend([d] * k)
    coords = np.vstack(rows)
    indptr = np.zeros(coords.shape[0] + 1, dtype=np.int64)
    return GeometricGraph._of_valid_rows(coords, indptr, indptr[:0], k_hint=k), 0


_CORRUPT_BLOCK = 1 << 15  # rows plus excluded ids and chosen slots that corrupt_edges serves at once


def corrupt_edges(
    g: GeometricGraph, fraction: float, seed: int, k: int | None = None
) -> GeometricGraph:
    """Replace ceil(fraction*n*k) adjacency slots with distinct random non-neighbors.

    Slots are drawn uniformly without replacement over all (vertex, slot)
    pairs. The chosen slots of vertex v, in ascending order, take distinct
    values uniform over its pool V \\ ({v} ∪ N(v)), N(v) its original row, so
    each removes a neighbor; a vertex with more chosen slots than pool values
    raises ValueError. Out-degrees and list invariants are kept.

    Draw j of a row is a rank in [0, p - j) among the p pool values that its
    draws 0..j-1 left, as in the slot-by-slot loop kept in the tests; a block
    of whole rows draws its ranks in one ``rng.integers(0, highs)`` call, which
    numpy makes equal to one call per rank. A rank steps over the row's earlier
    ranks, latest first, to a pool position, which one ``searchsorted`` maps
    to its value over the row's sorted excluded ids, each less its index.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if k is None:
        k = g.k_hint
    if k is None:
        raise ValueError("k not given and graph has no k_hint")
    if int(g.degrees.min()) < k:
        raise ValueError("corrupt_edges expects min out-degree >= k")
    n, indptr, degrees = g.n, g.indptr, g.degrees
    rng = rng_from(seed)
    drawn = sample_without_replacement(g.num_edges, math.ceil(fraction * n * k), rng)
    drawn.sort()
    # the chosen slots as one byte per edge; the draw itself turns into owner ids
    # plus one, a block at a time, so that no second 8 bytes per slot are held
    chosen = np.zeros(g.num_edges, dtype=bool)
    chosen[drawn] = True
    for i in range(0, drawn.size, _CORRUPT_BLOCK):
        drawn[i : i + _CORRUPT_BLOCK] = np.searchsorted(indptr, drawn[i : i + _CORRUPT_BLOCK], side="right")
    counts = np.bincount(drawn, minlength=n + 1)[1:]
    del drawn
    rows = np.flatnonzero(counts)
    counts = counts[rows]
    short = np.flatnonzero(counts >= n - degrees[rows])
    if short.size:
        v, c = rows[short[0]], counts[short[0]]
        raise ValueError(f"vertex {v} has {n - 1 - degrees[v]} non-neighbors for {c} replaced slots; "
                         "cannot corrupt")
    indices = g.indices.copy()
    for a, b in row_blocks(np.cumsum(np.append(0, degrees[rows] + 1 + counts)), _CORRUPT_BLOCK):
        rs, cs, local = rows[a:b], counts[a:b], np.arange(b - a)
        edges = concat_ranges(indptr[rs], indptr[rs + 1])
        slots = edges[chosen[edges]]
        j = np.arange(slots.size) - np.repeat(np.cumsum(cs) - cs, cs)
        ranks = rng.integers(0, np.repeat(n - 1 - degrees[rs], cs) - j)
        pos = ranks.copy()
        for t in range(1, int(cs.max())):
            later = np.flatnonzero(j >= t)
            pos[later] += pos[later] >= ranks[later - t]
        # row r's sorted excluded ids e_i as keys r * n + e_i - starts[r] - i: the value at
        # position q of its pool is q plus the number of its keys up to r * n - starts[r] + q
        keys = np.sort(np.concatenate([np.repeat(local, degrees[rs]) * n + g.indices[edges], local * n + rs]))
        starts = np.searchsorted(keys, local * n)
        keys -= np.arange(keys.size)
        at = np.repeat(local, cs)
        indices[slots] = pos + np.searchsorted(keys, at * n - starts[at] + pos, side="right") - starts[at]
    # each row keeps its other ids and takes distinct ids from its pool, so it stays valid
    return g._with_indices(indices)


# scaled radius of each split cluster and the center displacement; eta must be
# small enough that all strict orderings used below survive (asserted in tests
# by ground-truth verification of both outputs)
_LB_SIGMA = 0.125
_LB_ETA = _LB_SIGMA / 32.0


def _rotated_icosahedron() -> np.ndarray:
    """Icosahedron directions rotated so every first coordinate is distinct and
    bounded away from zero, ordered by first coordinate."""
    a, b = 0.74, 1.13
    ry = np.array(
        [
            [math.cos(a), 0.0, math.sin(a)],
            [0.0, 1.0, 0.0],
            [-math.sin(a), 0.0, math.cos(a)],
        ]
    )
    rz = np.array(
        [
            [math.cos(b), -math.sin(b), 0.0],
            [math.sin(b), math.cos(b), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    dirs = icosahedron_directions() @ ry.T @ rz.T
    dirs = dirs[np.argsort(dirs[:, 0])]
    if np.min(np.abs(dirs[:, 0])) <= 2.0 * _LB_ETA / _LB_SIGMA:
        raise AssertionError("rotation leaves a direction too close to the splitting plane")
    if np.unique(dirs[:, 0]).size != dirs.shape[0]:
        raise AssertionError("rotation leaves coincident first coordinates")
    return dirs


def dimension_lb_instances(k: int, epsilon: float, c: int) -> tuple[GeometricGraph, GeometricGraph]:
    """Stale/exact instance pair from perturbed coincident-split clusters.

    Builds c clusters of the scaled delta=3 tight construction centered at
    (i, 0, 0), takes their exact k-NN graph, then perturbs the first
    ceil(2*eps*k*c) clusters: the center moves back by eta and a new split
    point appears ahead of it, so half of each perturbed cluster's satellites
    acquire the new point as k-th nearest neighbor.

    The first returned graph keeps the stale adjacency (far from the
    property). The second relocates the new points to (-1, 0, 0) and is the
    exact k-NN graph of the result, so it has the property. Both claims are
    verified by the ground-truth oracle in tests.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    m = math.ceil(2.0 * epsilon * k * c)
    if not 1 <= m <= c:
        raise ValueError(
            f"need 1 <= ceil(2*eps*k*c) <= c; got {m} perturbed of {c} clusters"
        )
    dirs = _rotated_icosahedron()
    cluster = 12 * k + 1

    rows = []
    for i in range(1, c + 1):
        center = np.array([float(i), 0.0, 0.0])
        rows.append(center)
        for d in dirs:
            rows.extend([center + _LB_SIGMA * d] * k)
    base_coords = np.vstack(rows)
    base = build_exact_knn_graph(base_coords, k)

    n = c * cluster
    far_coords = np.vstack([base_coords, np.zeros((m, 3))])
    center_ids = [i * cluster for i in range(m)]
    split_ids = list(range(n, n + m))
    for i, (cid, sid) in enumerate(zip(center_ids, split_ids)):
        far_coords[cid, 0] -= _LB_ETA
        far_coords[sid] = [float(i + 1) + _LB_ETA, 0.0, 0.0]
    # the split points get no out-edges
    indptr = np.concatenate([base.indptr, np.full(m, base.indptr[-1])])
    g_far = GeometricGraph._of_valid_rows(far_coords, indptr, base.indices, k_hint=k)

    exact_coords = far_coords.copy()
    exact_coords[split_ids] = [-1.0, 0.0, 0.0]
    return g_far, build_exact_knn_graph(exact_coords, k)
