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

from .core import GeometricGraph, concat_ranges
from .exact import NeighborhoodProfile, build_exact_knn_graph
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
    """Gadget g holds vertices perm[g*k':(g+1)*k'] along its line from base[g], all adjacent."""
    k1 = k + 1
    n = perm.size
    slots = perm.reshape(base.size, k1)
    coords = np.zeros((n, delta), dtype=np.float64)
    coords[slots, 0] = base[:, None] + np.arange(k1)
    others = np.arange(k) + (np.arange(k) >= np.arange(k1)[:, None])  # row o: offsets other than o
    knn = np.empty((n, k), dtype=np.int64)
    knn[slots] = slots[:, others]
    return GeometricGraph(coords, np.arange(n + 1) * k, knn.ravel(), k_hint=k)


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
    return GeometricGraph(coords, indptr, indptr[:0], k_hint=k), 0


def corrupt_edges(
    g: GeometricGraph, fraction: float, seed: int, k: int | None = None
) -> GeometricGraph:
    """Replace ceil(fraction*n*k) adjacency slots with random non-neighbors.

    Slots are drawn uniformly without replacement over all (vertex, slot)
    pairs; each replacement target is drawn uniformly outside the vertex's
    current adjacency and itself, so out-degrees and list invariants are
    preserved. fraction=0 returns an identical graph.

    The chosen slots are served in order, each by rejection from one stream
    of ``rng.integers(0, n)`` draws, as in the slot-by-slot loop kept in the
    tests. The draws come in bulk, which numpy makes equal to one call per
    draw, and are settled a window of slots at a time: the first slot takes
    the first admissible draw of a block, each later slot is assumed to take
    the next draw, and the slots before the first rejected one keep theirs.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if k is None:
        k = g.k_hint
    if k is None:
        raise ValueError("k not given and graph has no k_hint")
    if int(g.degrees.min()) < k:
        raise ValueError("corrupt_edges expects min out-degree >= k")
    n, indptr = g.n, g.indptr
    count = math.ceil(fraction * n * k)
    rng = rng_from(seed)
    chosen = sample_without_replacement(g.num_edges, count, rng)
    owners = np.searchsorted(indptr, chosen, side="right") - 1
    full = np.flatnonzero(g.degrees[owners] >= n - 1)
    if full.size:
        raise ValueError(f"vertex {owners[full[0]]} is adjacent to every other vertex; cannot corrupt")

    # rank[e]: the position of slot e in chosen order, count for unchosen slots
    rank = np.full(g.num_edges, count)
    rank[chosen] = np.arange(count)
    # a draw is rejected with probability about (deg + 1) / n
    window = max(16, n // (g.num_edges // n + 1))
    indices = g.indices.copy()
    draws = np.zeros(0, dtype=np.int64)
    i = pos = 0
    while i < count:
        # slot i takes the first admissible draw of a block of about twice the
        # draws it needs, against its row as it stands
        v = owners[i]
        row = indices[indptr[v] : indptr[v + 1]]
        block = 2 * n // (n - 1 - row.size)
        w = min(window, count - i - 1)
        if pos + block + w > draws.size:
            draws = np.concatenate([draws[pos:], rng.integers(0, n, size=count - i + block + w)])
            pos = 0
        tries = draws[pos : pos + block]
        ok = np.flatnonzero((tries != v) & ~np.isin(tries, row))
        if not ok.size:
            pos += block
            continue
        indices[chosen[i]] = tries[ok[0]]
        i, pos = i + 1, pos + int(ok[0]) + 1
        # the next w slots each take the next draw until the first rejection;
        # slot i + j sees its row with the window's slots before it replaced
        cand, v = draws[pos : pos + w], owners[i : i + w]
        slots = concat_ranges(indptr[v], indptr[v + 1])
        row_of = np.repeat(np.arange(w), g.degrees[v])
        step = rank[slots] - i
        replaced = (step >= 0) & (step < row_of)
        held = np.where(replaced, cand[np.clip(step, 0, w - 1)], indices[slots])
        rejected = cand == v
        rejected[row_of[held == cand[row_of]]] = True
        f = int(np.argmax(rejected)) if rejected.any() else w
        indices[chosen[i : i + f]] = cand[:f]
        i, pos = i + f, pos + f
    return GeometricGraph(g.coords, indptr, indices, k_hint=g.k_hint)


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
    property). The second relocates the new points to (-1, 0, 0) and
    recomputes adjacency for all moved points, which restores the property
    exactly. Both claims are verified by the ground-truth oracle in tests.
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
    g_far = GeometricGraph(far_coords, indptr, base.indices, k_hint=k)

    exact_coords = far_coords.copy()
    for sid in split_ids:
        exact_coords[sid] = [-1.0, 0.0, 0.0]
    knn = np.empty((n + m, k), dtype=np.int64)
    knn[:n] = base.indices.reshape(n, k)
    moved = center_ids + split_ids
    knn[moved] = NeighborhoodProfile(exact_coords, k).knn[moved]
    g_exact = GeometricGraph(exact_coords, np.arange(n + m + 1) * k, knn.ravel(), k_hint=k)
    return g_far, g_exact
