"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's vectorized code paths: plain Python
loops, itertools enumeration and per-pair local checks. They are slow and
only run at small sizes.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np

from knncheck.core import EdgeBudget, GeometricGraph, QueryTally, box_gap2, dist2, dist2_block
from knncheck.exact import DistanceReport
from knncheck.graphio import KnngFormatError
from knncheck.harness import SweepReport, SweepRow
from knncheck.sampling import rng_from, split_seed
from knncheck.tester import Evidence, TesterConfig, Verdict, sample_sizes


def reference_corrupt_edges(
    g: GeometricGraph, fraction: float, seed: int, k: int | None = None
) -> GeometricGraph:
    """``generators.corrupt_edges`` slot by slot, with a literal pool per slot.

    The chosen slots, in ascending order, each take the value at one
    ``rng.integers(0, pool.size)`` draw in the sorted pool of their vertex v:
    the ids other than v, its original row and its current row, which holds
    the values its earlier slots took.
    """
    if k is None:
        k = g.k_hint
    n = g.n
    rng = rng_from(seed)
    chosen = np.sort(rng.choice(g.num_edges, math.ceil(fraction * n * k), replace=False))
    owners = np.searchsorted(g.indptr, chosen, side="right") - 1
    indices = g.indices.copy()
    for slot, v in zip(chosen.tolist(), owners.tolist()):
        row = slice(g.indptr[v], g.indptr[v + 1])
        free = np.ones(n, dtype=bool)
        free[[v, *g.indices[row].tolist(), *indices[row].tolist()]] = False
        pool = np.flatnonzero(free)
        if not pool.size:
            p, c = n - 1 - g.degree(v), int(np.sum(owners == v))
            raise ValueError(f"vertex {v} has {p} non-neighbors for {c} replaced slots; cannot corrupt")
        indices[slot] = pool[int(rng.integers(0, pool.size))]
    return GeometricGraph(g.coords, g.indptr, indices, k_hint=g.k_hint)


def reference_gadget_graph(k: int, base: np.ndarray, perm: np.ndarray, delta: int = 1) -> GeometricGraph:
    """``generators._gadget_graph`` by a scatter: gadget g writes its k' rows into the slots perm[g*k':(g+1)*k']."""
    k1 = k + 1
    slots = perm.reshape(base.size, k1)
    coords = np.zeros((perm.size, delta), dtype=np.float64)
    coords[slots, 0] = base[:, None] + np.arange(k1)
    others = np.arange(k) + (np.arange(k) >= np.arange(k1)[:, None])  # row o: offsets other than o
    knn = np.empty((perm.size, k), dtype=np.int64)
    knn[slots] = slots[:, others]
    return GeometricGraph(coords, np.arange(perm.size + 1) * k, knn.ravel(), k_hint=k)


def corruptible_fraction(n: int, k: int, fraction: float) -> float:
    """A fraction at which ``corrupt_edges`` cannot run short on an exact k-NN graph of n points.

    Each row there has k slots and a pool of n - 1 - k values. With n > 2k
    no row's slots outnumber its pool, so ``fraction`` stays; otherwise the
    fraction replaces n - 1 - k slots in all, which no pool can lack.
    """
    return fraction if n > 2 * k else (n - k - 1.5) / (n * k)


def circulant_graph(n: int, k: int, seed: int) -> GeometricGraph:
    """Uniform points in the plane; row v holds (v + o) mod n for k distinct offsets o, in draw order."""
    rng = np.random.default_rng(seed)
    offsets = rng.choice(np.arange(1, n), k, replace=False)
    rows = (np.arange(n)[:, None] + offsets) % n
    return GeometricGraph(rng.random((n, 2)), np.arange(0, n * k + 1, k), rows.ravel(), k_hint=k)


def csr_from_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) whose row v is ``rows[v]``, in order."""
    rows = [np.asarray(row, dtype=np.int64) for row in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    return indptr, np.concatenate(rows) if rows else indptr[:0]


def graph_from_rows(coords, rows, k_hint=None) -> GeometricGraph:
    """GeometricGraph whose vertex v has the out-neighbors ``rows[v]``, in order."""
    return GeometricGraph(coords, *csr_from_rows(rows), k_hint=k_hint)


def rows_of(g: GeometricGraph) -> list[np.ndarray]:
    """The out-neighbor rows of every vertex, as read-only views."""
    return [g.neighbors(v) for v in range(g.n)]


def exhaustive_min_edits(g: GeometricGraph, k: int) -> int:
    """Minimum insertions over all valid tie-broken k-nearest target sets.

    For each vertex, enumerates every set R with |R| = k that contains all
    strictly nearer vertices and fills up with vertices tied at the k-th
    distance, and takes the cheapest |R minus N(v)|.
    """
    total = 0
    for v in range(g.n):
        dists = sorted(
            (dist2(g.coords[v], g.coords[u]), u) for u in range(g.n) if u != v
        )
        dk = dists[k - 1][0]
        inside = [u for d, u in dists if d < dk]
        ties = [u for d, u in dists if d == dk]
        nbrs = set(int(x) for x in g.neighbors(v))
        need = k - len(inside)
        best = None
        for chosen in itertools.combinations(ties, need):
            cost = sum(1 for u in inside if u not in nbrs) + sum(
                1 for u in chosen if u not in nbrs
            )
            best = cost if best is None else min(best, cost)
        total += best
    return total


class ReferenceOracle:
    """The paper's query model, one read at a time.

    ``neighbor(v, i)`` is the i-th out-neighbor of v (1-based), or None (the
    paper's bottom) for deg(v) < i <= n; ``degree(v)`` and ``coord(v)`` read
    v's degree and coordinates. Every answer is memoized: ``query_count``
    counts the distinct (kind, v, i) triples read, kept in one Python set,
    and shares no accounting with ``knncheck.core``.
    """

    def __init__(self, graph: GeometricGraph):
        self.graph = graph
        self._asked: set[tuple[str, int, int]] = set()

    @property
    def query_count(self) -> QueryTally:
        kinds = Counter(kind for kind, _, _ in self._asked)
        return QueryTally(kinds["neighbor"], kinds["degree"], kinds["coord"])

    def degree(self, v) -> int:
        v = self.graph.check_vertex(v)
        self._asked.add(("degree", v, 0))
        return len(self.graph.neighbors(v))

    def neighbor(self, v, i) -> int | None:
        v, i = self.graph.check_vertex(v), int(i)
        if not 1 <= i <= self.graph.n:
            raise ValueError(f"neighbor index {i} out of range [1, {self.graph.n}]")
        self._asked.add(("neighbor", v, i))
        row = self.graph.neighbors(v)
        return int(row[i - 1]) if i <= len(row) else None

    def coord(self, v) -> np.ndarray:
        v = self.graph.check_vertex(v)
        self._asked.add(("coord", v, 0))
        return self.graph.coords[v]


def num_nearer(g: GeometricGraph, v: int, w: int) -> int:
    """Number of vertices u != v strictly nearer to v than w is, one pair at a time."""
    v, w = g.check_vertex(v), g.check_vertex(w)
    if v == w:
        raise ValueError("num_nearer is undefined for v == w")
    ref = dist2(g.coords[v], g.coords[w])
    return sum(1 for u in range(g.n) if u != v and dist2(g.coords[v], g.coords[u]) < ref)


def local_witness_check(oracle: ReferenceOracle, v: int, u: int, k: int) -> bool:
    """Purely local witness test for the pair (v, u).

    Reads v's degree, its neighbors and their coordinates, and u's
    coordinate. Returns True when u is a non-neighbor strictly inside the
    k-th smallest neighbor distance of v, or unconditionally when
    deg(v) < k. Ties at the k-th distance are not flagged: they are
    satisfiable by arbitrary tie-breaking, which keeps the check one-sided.
    """
    v, u = oracle.graph.check_vertex(v), oracle.graph.check_vertex(u)
    if u == v:
        raise ValueError("witness check is undefined for u == v")
    deg = oracle.degree(v)
    if deg < k:
        return True
    nbrs = [oracle.neighbor(v, i) for i in range(1, deg + 1)]
    vc = oracle.coord(v)
    rk = sorted(dist2(vc, oracle.coord(w)) for w in nbrs)[k - 1]
    du = dist2(vc, oracle.coord(u))
    return u not in nbrs and du < rk


def naive_run_tester(oracle: ReferenceOracle, cfg: TesterConfig, pair_check=None) -> Verdict:
    """Literal nested-loop tester over the same samples as run_tester.

    At v's first draw u != v, the loop reads v's degree, its row, its
    coordinate and its neighbors' coordinates and computes r_k, once per v,
    so a v whose every draw equals v reads only its degree. Each pair then
    applies ``local_witness_check``'s predicate to them: u is not a neighbor
    and is strictly inside r_k. It depends on u's value alone, so it is
    evaluated once per distinct u of v. ``pair_check(oracle, v, u, k)``, when
    given, is called once per pair in its place; the tests pass
    ``local_witness_check`` to check the hoisted loop against it.
    """
    n = oracle.graph.n
    s_prime_size, t_size, cap = sample_sizes(n, cfg)
    seq_s, seq_t = split_seed(cfg.seed, 2)
    s_prime = rng_from(seq_s).choice(n, s_prime_size, replace=False)
    t_draws = rng_from(seq_t).integers(0, n, size=t_size)

    s_vertices = [int(v) for v in s_prime if oracle.degree(int(v)) <= cap]

    decision, evidence = "accept", None
    for v in s_vertices:
        if oracle.degree(v) < cfg.k:
            decision, evidence = "reject", Evidence(v, None, "low-degree")
            break
        nbrs, checked = None, {}
        for u in t_draws.tolist():
            if u == v:
                continue
            if pair_check is not None:
                found = pair_check(oracle, v, u, cfg.k)
            else:
                if nbrs is None:
                    nbrs = {oracle.neighbor(v, i) for i in range(1, oracle.degree(v) + 1)}
                    vc = oracle.coord(v)
                    rk = sorted(dist2(vc, oracle.coord(w)) for w in nbrs)[cfg.k - 1]
                if u not in checked:
                    checked[u] = u not in nbrs and dist2(vc, oracle.coord(u)) < rk
                found = checked[u]
            if found:
                decision, evidence = "reject", Evidence(v, u, "witness")
                break
        if evidence is not None:
            break

    return Verdict(
        decision=decision,
        evidence=evidence,
        s_prime_size=len(s_prime),
        s_size=len(s_vertices),
        t_size=len(t_draws),
        queries=oracle.query_count,
        elapsed=0.0,
    )


def k_reduce(points: np.ndarray, p_idx: int, k: int) -> tuple[list[int], list[int]]:
    """Pruning procedure reducing shared-k-NN counting to the nearest-neighbor case.

    Starts from Q = points having p among their k nearest, then repeatedly
    picks the unresolved point farthest from p and discards the points that
    lie strictly nearer to it than p does. Returns the surviving ids and the
    per-step removal counts.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]

    def d(a, b):
        return dist2(pts[a], pts[b])

    def numnearer(q, w):
        ref = d(q, w)
        return sum(1 for u in range(n) if u != q and d(q, u) < ref)

    q_set = [q for q in range(n) if q != p_idx and numnearer(q, p_idx) <= k - 1]
    removals = []
    while True:
        violating = [
            q
            for q in q_set
            if any(q2 != q and d(q, q2) < d(q, p_idx) for q2 in q_set)
        ]
        if not violating:
            break
        far = max(violating, key=lambda q: (d(q, p_idx), -q))
        doomed = [q2 for q2 in q_set if q2 != far and d(far, q2) < d(far, p_idx)]
        removals.append(len(doomed))
        q_set = [q for q in q_set if q not in doomed]
    return q_set, removals


def _swap_sample(n: int, size: int, rng: np.random.Generator) -> list[int]:
    """First ``size`` entries of a partial Fisher-Yates shuffle of range(n), one swap at a time.

    Step j swaps positions j and r_j, all r_j from one draw. This is
    ``random_small_graph``'s own draw, kept so the graphs it makes stay fixed.
    """
    if size == 0:
        return []
    held: dict[int, int] = {}
    for j, r in enumerate(rng.integers(np.arange(size), n).tolist()):
        held[j], held[r] = held.get(r, r), held.get(j, j)
    return [held[j] for j in range(size)]


def random_small_graph(rng: np.random.Generator, k: int) -> GeometricGraph:
    """Small lattice-coordinate graph with random adjacency; ties are common."""
    n = int(rng.integers(k + 2, 13))
    delta = int(rng.integers(1, 3))
    coords = rng.integers(0, 4, size=(n, delta)).astype(np.float64)
    adjacency = []
    for v in range(n):
        deg = int(rng.integers(0, min(n - 1, k + 3)))
        others = [u for u in range(n) if u != v]
        idx = _swap_sample(len(others), deg, rng)
        adjacency.append(np.array([others[i] for i in idx], dtype=np.int64))
    return graph_from_rows(coords, tuple(adjacency))


# coordinates whose differences overflow to inf, or come close to it
OVERFLOW_COORDS = (1.7976931348623157e308, -1.7976931348623157e308, 8.99e307, -8.99e307, 0.0, 1.0, -1.0)


def overflow_points(rng: np.random.Generator, m: int, delta: int, jitter: bool) -> np.ndarray:
    """m points from OVERFLOW_COORDS, then m uniform in [-1, 1)^delta; optionally shrunk by up to 0.1%.

    Many squared distances overflow to inf, so some k-th distances do too,
    while the uniform half keeps others finite.
    """
    pts = np.vstack((rng.choice(OVERFLOW_COORDS, size=(m, delta)), rng.random((m, delta)) * 2 - 1))
    return pts * (1 - rng.random(pts.shape) / 1000) if jitter else pts


def reference_leaf_index(pts: np.ndarray, leaf_size: int):
    """``core.leaf_index`` as it permuted row ids and marked first slots by a sort.

    The splits permute the ids themselves, and first marks the index that
    ``np.unique(..., return_index=True)`` gives for each id: its first slot in
    leaves.ravel(). ``core.leaf_index`` must return the same four values.
    """
    m = pts.shape[0]
    depth = max(0, math.ceil(math.log2(m / leaf_size)))
    leaves = np.resize(np.arange(m), 2**depth * -(-m // 2**depth))
    cols = np.ascontiguousarray(pts.T)
    levels = []
    for level in range(depth + 1):
        leaves = leaves.reshape(2**level, -1)
        p = np.take(cols, leaves, axis=1)
        levels.append((p.min(axis=2), p.max(axis=2)))
        if level == depth:
            break
        widest = (levels[-1][1] - levels[-1][0]).argmax(axis=0)
        key = np.take_along_axis(p, widest[None, :, None], axis=0)[0]
        half = np.argpartition(key, leaves.shape[1] // 2, axis=1)
        leaves = np.take_along_axis(leaves, half, axis=1)
    first = np.zeros(leaves.size, dtype=bool)
    first[np.unique(leaves, return_index=True)[1]] = True
    return leaves, first.reshape(leaves.shape), p, levels


def reference_leaf_pairs(lo, hi, r, leaf_lo, leaf_hi) -> tuple[np.ndarray, np.ndarray]:
    """The flat rows x leaves bound pass that ``core.leaf_pairs`` must equal.

    Every row box [lo[:, i], hi[:, i]] against every leaf box: the (row, leaf)
    pairs whose ``box_gap2`` is at most r[row], row-major, leaves ascending.
    """
    return np.nonzero(box_gap2(lo[:, :, None], hi[:, :, None], leaf_lo, leaf_hi) <= r[:, None])


class BruteForceProfile:
    """Exact k-NN structure of a point set by a full O(n^2) distance scan.

    The reference for the indexed kernel in ``knncheck.exact``: every row is
    compared with every point in bounded blocks. It holds, per vertex, the
    ids strictly inside the k-th smallest squared distance (``inside``), the
    ids exactly at it (``at``) and the k ids first by (squared distance, id)
    (``knn``).
    """

    _BLOCK_FLOATS = 8_000_000

    def __init__(self, points, k: int):
        coords = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        n = coords.shape[0]
        if not 1 <= k < n:
            raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
        self.coords, self.k, self.n = coords, k, n
        self.inside: list[frozenset[int]] = []
        self.at: list[frozenset[int]] = []
        self.knn: list[np.ndarray] = []
        step = max(1, min(n, self._BLOCK_FLOATS // n))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            d2 = dist2_block(coords[lo:hi], coords)
            # a row's own inf leaves its k-th distance among the others unchanged, as
            # n - 1 >= k; other distances may overflow to inf, so v is excluded by id
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            dks = np.partition(d2, k - 1, axis=1)[:, k - 1]
            for i in range(hi - lo):
                other = np.arange(n) != lo + i
                self.inside.append(frozenset(np.flatnonzero((d2[i] < dks[i]) & other).tolist()))
                self.at.append(frozenset(np.flatnonzero((d2[i] == dks[i]) & other).tolist()))
                cand = np.flatnonzero((d2[i] <= dks[i]) & other)
                order = np.lexsort((cand, d2[i][cand]))
                self.knn.append(cand[order[:k]].astype(np.int64))

    def graph(self) -> GeometricGraph:
        return graph_from_rows(self.coords, tuple(self.knn), k_hint=self.k)

    def max_shared(self) -> int:
        counts = np.zeros(self.n, dtype=np.int64)
        for v in range(self.n):
            for u in self.inside[v] | self.at[v]:
                counts[u] += 1
        return int(counts.max())

    def report(self, g: GeometricGraph, budget=None) -> DistanceReport:
        """Minimum insertions and incomplete vertices, one vertex at a time."""
        if budget is None:
            budget = EdgeBudget.computed(g)
        min_edits = incomplete = 0
        for v in range(self.n):
            nbrs = frozenset(g.neighbors(v).tolist())
            inside, at = self.inside[v], self.at[v]
            inside_nbr, at_nbr = len(inside & nbrs), len(at & nbrs)
            min_edits += (len(inside) - inside_nbr) + max(0, self.k - len(inside) - at_nbr)
            if len(nbrs) < self.k or len(inside) + len(at) > inside_nbr + at_nbr:
                incomplete += 1
        return DistanceReport(
            min_edits=min_edits,
            epsilon_distance=min_edits / (budget.d * self.n),
            incomplete_count=incomplete,
        )


def reference_select_knn(coords: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    """The k nearest of each of ``rows`` among the ascending ids ``cand``, ranked by ``np.lexsort``.

    The hits at or within a row's k-th distance are taken in (row, id) order
    and ranked by one lexsort on (row, squared distance, id): the ranking that
    ``exact._select`` makes with two stable argsorts. A row's own id is no hit.
    """
    d2 = dist2_block(coords[rows], coords[cand])
    d2[cand[None, :] == rows[:, None]] = np.nan
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(d2 <= kth[:, None])
    order = np.lexsort((c, d2[r, c], r))
    counts = np.bincount(r, minlength=rows.size)
    return cand[c[order][(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]


def reference_row_fault(n: int, indptr: np.ndarray, indices: np.ndarray) -> tuple[int, str] | None:
    """``core.row_fault`` over all rows at once: one owner array and one sort of every edge key."""
    owner = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    out_of_range = owner[:0]
    # an out-of-range id equals no owner, so dropping its slot changes no later check
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        in_range = (indices >= 0) & (indices < n)
        out_of_range, owner, indices = owner[~in_range], owner[in_range], indices[in_range]
    keys = owner * n + indices
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]]
    checks = (
        (out_of_range, f"neighbor id out of range [0, {n})"),
        (owner[indices == owner], "self-loop"),
        (repeated // n, "duplicate neighbor"),
    )
    firsts = [int(bad.min()) if bad.size else n for bad, _ in checks]
    v = min(firsts)
    if v < n:
        return v, f"vertex {v}: {checks[firsts.index(v)][1]}"
    return None


def first_adjacency_error(n: int, adjacency) -> str | None:
    """The message GeometricGraph must raise for ``adjacency``, checked row by row."""
    for v, row in enumerate(adjacency):
        a = np.asarray(row, dtype=np.int64)
        if a.size:
            if a.min() < 0 or a.max() >= n:
                return f"vertex {v}: neighbor id out of range [0, {n})"
            if np.any(a == v):
                return f"vertex {v}: self-loop"
            if np.unique(a).size != a.size:
                return f"vertex {v}: duplicate neighbor"
    return None


def reference_coordinate_lines(coords: np.ndarray) -> str:
    """The coordinate lines of .knng text: each float by one %-format of repr, the shortest round trip."""
    row = " ".join(["%r"] * coords.shape[1]) + "\n"
    return (row * coords.shape[0]) % tuple(coords.ravel().tolist())


def reference_token_text(tokens: np.ndarray, line_ends: np.ndarray) -> str:
    """int64 ``tokens`` >= 0 in decimal, each followed by a space, or by a newline at ``line_ends``:
    one digit of every token at a time, last digits first, into a byte array."""
    digits = sum((tokens >= 10**e for e in range(1, len(str(tokens.max())))), np.ones_like(tokens))
    ends = np.cumsum(digits + 1)  # token j's digits, then its separator
    text = np.full(ends[-1], ord(" "), dtype=np.uint8)
    text[ends[line_ends] - 1] = ord("\n")
    pos = ends - 2
    while tokens.size:  # the last digit not yet written of each token
        text[pos], tokens = tokens % 10 + ord("0"), tokens // 10
        pos, tokens = pos[tokens > 0] - 1, tokens[tokens > 0]
    return text.tobytes().decode("ascii")


def reference_graph_to_text(g: GeometricGraph) -> str:
    """The .knng text of ``g``: coordinates by ``reference_coordinate_lines``, each adjacency line its
    degree and ids by ``reference_token_text``."""
    tokens = np.insert(g.indices, g.indptr[:-1], g.degrees)
    return (f"knng 1 {g.n} {g.delta} {g.k_hint or 0}\n" + reference_coordinate_lines(g.coords)
            + reference_token_text(tokens, g.indptr[1:] + np.arange(g.n)))


def reference_graph_from_text(text: str) -> GeometricGraph:
    """The .knng reader line by line, every row checked on its own line.

    The first faulty line is reported, and on one adjacency line a syntax
    fault comes before a row fault, as in ``graphio.graph_from_text``.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise KnngFormatError(1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "knng":
        raise KnngFormatError(1, "expected header 'knng 1 <n> <delta> <k_hint|0>'")
    try:
        version, n, delta, k_hint = (int(tok) for tok in header[1:])
    except ValueError:
        raise KnngFormatError(1, "header fields must be integers") from None
    if version != 1:
        raise KnngFormatError(1, f"unsupported format version {version}")
    if n < 1:
        raise KnngFormatError(1, f"vertex count must be positive, got {n}")
    if delta < 1:
        raise KnngFormatError(1, f"dimension must be positive, got {delta}")
    if k_hint < 0:
        raise KnngFormatError(1, f"k_hint must be non-negative, got {k_hint}")
    if len(lines) != 1 + 2 * n:
        raise KnngFormatError(len(lines), f"expected {1 + 2 * n} lines for n={n}, found {len(lines)}")

    coords = []
    for v in range(n):
        toks = lines[1 + v].split()
        if len(toks) != delta:
            raise KnngFormatError(2 + v, f"expected {delta} coordinates, found {len(toks)}")
        try:
            row = [float(t) for t in toks]
        except ValueError:
            raise KnngFormatError(2 + v, "coordinates must be decimal floats") from None
        if not all(math.isfinite(x) for x in row):
            raise KnngFormatError(2 + v, "coordinates must be finite")
        coords.append(row)

    rows = []
    for v in range(n):
        lineno = 2 + n + v
        toks = lines[1 + n + v].split()
        if not toks:
            raise KnngFormatError(lineno, "missing degree field")
        try:
            deg, *nbrs = (int(t) for t in toks)
        except ValueError:
            raise KnngFormatError(lineno, "adjacency entries must be integers") from None
        if deg < 0 or len(nbrs) != deg:
            raise KnngFormatError(lineno, f"declared degree {deg} but found {len(nbrs)} ids")
        if not all(0 <= u < n for u in nbrs):
            raise KnngFormatError(lineno, f"vertex {v}: neighbor id out of range [0, {n})")
        if v in nbrs:
            raise KnngFormatError(lineno, f"vertex {v}: self-loop")
        if len(set(nbrs)) != len(nbrs):
            raise KnngFormatError(lineno, f"vertex {v}: duplicate neighbor")
        rows.append(nbrs)
    return graph_from_rows(np.array(coords, dtype=np.float64), rows, k_hint=k_hint or None)


def report_from_json(data: bytes | str) -> SweepReport:
    """The SweepReport that ``export_report(report, "json")`` wrote; an open bucket's None bound is inf."""
    obj = json.loads(data)
    rows = []
    for r in obj["rows"]:
        if r["bucket_hi"] is None:
            r["bucket_hi"] = float("inf")
        rows.append(SweepRow(**r))
    return SweepReport(rows=tuple(rows), metadata=obj["metadata"])
