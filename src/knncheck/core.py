"""Geometric graph data model, squared-distance primitives and the query-counting oracle.

It also holds the package's one spatial index, the leaf buckets of a k-d
tree with the boxes of every level, the box bound that prunes with it, and
the one query on it, :func:`leaf_pairs`, which descends the levels to find
the leaves within a radius of each row; the exact kernel and the tester's
scan both match leaves through that query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometricGraph",
    "OracleSession",
    "EdgeBudget",
    "QueryTally",
    "dist2",
    "dist2_row",
    "dist2_block",
]

_ROW_BLOCK = 1 << 15  # rows plus edges that row_fault checks at once
_FLAT_PAIRS = 1 << 11  # (row, node) pairs within which leaf_pairs bounds the leaves at once, or steps down more than a level


def dist2(p, q) -> float:
    """Squared Euclidean distance between two points of equal dimension.

    All distance comparisons in this package are made on squared distances in
    binary64 with exact comparison, which preserves the strict-inequality
    ordering of true Euclidean distances. This scalar loop is the reference
    that :func:`sum_squares` matches bit for bit.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    total = 0.0
    for j in range(p.shape[0]):
        d = float(p[j]) - float(q[j])
        total += d * d
    return total


def sum_squares(terms):
    """Sum of the squares of per-coordinate ``terms``, in coordinate order.

    The one accumulation behind every vectorized squared distance and box
    bound. The terms are arrays or scalars the caller gives up: each is
    squared in place, the first square becomes the total and each later one
    is added to it, one IEEE add per coordinate. They are taken one at a
    time, so a caller may write every term after the first into one buffer.
    :func:`dist2` starts from 0.0 instead; x + 0.0 == x for every x >= 0, so
    both give the same bits. For a box bound the terms are gaps no larger
    than those between any two points of the boxes; rounding is monotone, so
    the bound is at most the computed squared distance of every such pair.
    """
    terms = iter(terms)
    total = next(terms)
    total *= total
    for term in terms:
        term *= term
        total += term
    return total


def dist2_row(p: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Squared distances from ``p`` to each row of ``pts``, or row by row from one ``p`` per row."""
    p = np.asarray(p, dtype=np.float64)
    pts = np.asarray(pts, dtype=np.float64)
    return sum_squares(pts[:, j] - p[..., j] for j in range(pts.shape[1]))


def dist2_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between rows of ``a`` and rows of ``b``, shape (len(a), len(b))."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # the first difference goes into the total, the others into one buffer; each
    # column of b is read once per row of a, so it is copied contiguous first
    total = np.empty((a.shape[0], b.shape[0]))
    buf = np.empty_like(total)
    return sum_squares(np.subtract(a[:, j, None], np.ascontiguousarray(b[:, j]), out=buf if j else total)
                       for j in range(a.shape[1]))


def leaf_index(pts: np.ndarray, leaf_size: int):
    """Leaf buckets of a k-d tree over the rows of ``pts`` (Bentley 1975).

    Each level splits every bucket at its median (argpartition) along the
    coordinate in which the bucket is widest, until buckets hold at most
    ``leaf_size`` points; consecutive leaves form subtrees. The splits permute
    slots, slot s holding row s % m, and the slots outnumber the rows so that
    every bucket of a level has the same size. Returns (leaves, first, p,
    levels): leaf i holds the rows leaves[i] of ``pts``; first[i] marks the
    slots that hold each row's first occurrence in leaves.ravel(), so that
    counting over first counts every row once; p[:, i] holds the leaf's
    coordinates, one contiguous (leaf, slot) array per coordinate; and
    levels[d] is the pair (lo, hi) of (coordinate, node) arrays that holds the
    tight boxes of the 2**d buckets of level d, the leaves' last. Node i of a
    level holds nodes 2i and 2i+1 of the next, so its box contains theirs.
    """
    m = pts.shape[0]
    depth = max(0, math.ceil(math.log2(m / leaf_size)))
    slots = np.arange(2**depth * -(-m // 2**depth))
    # np.take on coordinate columns gives contiguous (coordinate, bucket,
    # point) arrays, whose per-bucket reductions are fast
    cols = np.ascontiguousarray(pts.T)
    levels = []
    for level in range(depth + 1):
        slots = slots.reshape(2**level, -1)
        p = np.take(cols, slots, axis=1, mode="wrap")
        levels.append((p.min(axis=2), p.max(axis=2)))
        if level == depth:
            break
        nodes, width = np.arange(2**level), slots.shape[1]
        widest = (levels[-1][1] - levels[-1][0]).argmax(axis=0)
        half = np.argpartition(p[widest, nodes], width // 2, axis=1)
        slots = slots.ravel()[half + nodes[:, None] * width]
    # row r sits in slot r and, if it exists, in slot r + m; the later of the two is not first
    pos = np.empty(slots.size, dtype=np.int64)
    pos[slots.ravel()] = np.arange(slots.size)
    first = np.bincount(np.maximum(pos[:-m], pos[m:]), minlength=slots.size) == 0
    return slots % m, first.reshape(slots.shape), p, levels


def box_gap2(lo: np.ndarray, hi: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
    """Lower bound on the computed squared distance between points of two boxes.

    Coordinates run along the first axis of all four arrays; the remaining
    axes broadcast. A point is the box with lo == hi. :func:`sum_squares`
    sums the squares of the per-coordinate gaps, clamped at zero.
    """
    return sum_squares(
        np.maximum(np.maximum(box_lo[j] - hi[j], lo[j] - box_hi[j]), 0.0) for j in range(len(lo))
    )


def leaf_pairs(lo: np.ndarray, hi: np.ndarray, r: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """The (row, leaf) pairs whose :func:`box_gap2` is at most r[row], row-major, leaves ascending.

    Row i is the box [lo[:, i], hi[:, i]] (a point when lo == hi); ``levels``
    comes from :func:`leaf_index`. The bound runs flat over the leaves when
    the query's (row, leaf) pairs fit _FLAT_PAIRS, and over level 4 otherwise
    (or the leaves, if there are fewer levels). Each kept node is then
    expanded into its descendants some levels down (Friedman, Bentley &
    Finkel 1977): as many levels as keep the expanded pairs within
    _FLAT_PAIRS, one at least, so a query that keeps few nodes skips most of
    the descent. Rows and boxes are gathered by ``np.take`` along their
    second axis, fastest when they are C-contiguous (coordinate, row) arrays;
    point rows (``hi is lo``) are gathered once per step. A node's box
    contains its leaves' boxes and rounding is monotone, so a node's bound is
    at most each of its leaves' bounds, and the pairs are exactly those of a
    flat pass over the leaves. When the flat level keeps more than a quarter
    of its pairs, its boxes prune too little for the descent to pay, and
    each kept node goes straight to its leaves in one step; a flat level
    between level 4 and the leaves would then be bounded for nothing, which
    at δ=32 costs more than the steps it saves.
    """
    last = len(levels) - 1
    level = last if r.size << last <= _FLAT_PAIRS else min(4, last)
    row, node = np.nonzero(box_gap2(lo[:, :, None], hi[:, :, None], *levels[level]) <= r[:, None])
    wide = 4 * row.size > r.size << level
    while level < last:
        step = last - level if wide else min(last - level, max(1, (_FLAT_PAIRS // max(1, row.size)).bit_length() - 1))
        level += step
        box_lo, box_hi = levels[level]
        row, node = np.repeat(row, 1 << step), ((node[:, None] << step) + np.arange(1 << step)).ravel()
        row_lo = np.take(lo, row, axis=1)
        keep = box_gap2(row_lo, row_lo if hi is lo else np.take(hi, row, axis=1),
                        np.take(box_lo, node, axis=1), np.take(box_hi, node, axis=1)) <= r[row]
        row, node = row[keep], node[keep]
    return row, node


def dist2_filter(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(F, X̂, M): F = ‖y‖² − 2x·y for rows of ``x`` and ``y`` by one BLAS product, X̂ and M per row of x.

    Centred on c = x[0], x̄ = fl(x − c), ȳ = fl(y − c) and F = [−2x̄, 1]·[ȳ, Ŷ]ᵀ,
    Ŷ = fl(‖ȳ‖²). With X = ‖x̄‖² and D = :func:`sum_squares` (x − y),
    |F + X − D| ≤ M for every pair, so F only rules pairs out. Proof (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §2.1, §3.1), with
    u = 2⁻⁵³, γ_m = mu/(1 − mu), Y = ‖ȳ‖², a = ‖x − y‖², each operation
    giving (a ∘ b)(1 + ε) + η, |ε| ≤ u, |η| ≤ 2⁻¹⁰⁷⁵: a dot product of length
    m, in any summation order, with or without FMA, is within γ_m·Σ|aᵢbᵢ|, so
    |Ŷ − Y| ≤ γ_δ·Y and F is within γ_{δ+1}(X + Y + Ŷ) of Ŷ − 2x̄·ȳ (as
    2Σ|x̄ᵢȳᵢ| ≤ X + Y). Centring moves each coordinate by at most u/(1 − u)·|x̄ᵢ|,
    so x − y is within ρ = u/(1 − u)·s of x̄ − ȳ, s = ‖x̄‖ + ‖ȳ‖, and a within
    ρ(2s + ρ) ≤ 4u(1 + 2u)(X + Y) of X + Y − 2x̄·ȳ. D adds δ non-negative terms
    of at most δ + 2 roundings each: |D − a| ≤ γ_{δ+2}·a ≤ 2(1 + 2u)γ_{δ+2}(X + Y).
    Summed, |F + X − D| ≤ ((3δ + 9)X + (5δ + 10)Y)·u·(1 + O(δu)), plus
    (3δ + 3)·2⁻¹⁰⁷⁴ of underflow. M = 8(δ + 2)·u·(X̂ + max Ŷ) + 2⁻¹⁰⁰⁰, X̂ =
    fl(‖x̄‖²), holds it with about 3(δ + 2)·u·(X + max Y) to spare, more than
    the rounding of t + 2M for any F value t of the row. A bound b on D rules
    out a pair with F > fl(fl(b − X̂) + M), and no pair with D ≤ b: F ≤ b − X
    + M − spare, |X̂ − X| ≤ γ_δ·X, and for b up to the row's largest D, |b −
    X̂| ≤ 2(1 + O(δu))(X + max Y), so the two roundings move b − X̂ + M by at
    most 4u(1 + O(δu))(X + max Y) + uM; γ_δ·X plus that is within the spare.
    A larger b gives a right-hand side no smaller, as rounding is monotone.
    None when a centred squared norm exceeds 2**500 (values could overflow)
    or all are below 2**-500 (subnormal products are slow, and M would keep
    every pair). A product of m·n·k ≤ 2**18 (n·k ≤ 8192 if m = 1) runs on
    the calling thread.
    """
    m, delta = x.shape
    a, b = np.ones((m, delta + 1)), np.empty((y.shape[0], delta + 1))
    xc, yc = np.subtract(x, x[0], out=a[:, :delta]), np.subtract(y, x[0], out=b[:, :delta])
    xnorms, norms = np.einsum("ij,ij->i", xc, xc), np.einsum("ij,ij->i", yc, yc, out=b[:, delta])
    if not 2.0**-500 <= max(xnorms.max(), norms.max()) <= 2.0**500:
        return None
    xc *= -2.0
    f = np.empty((m, y.shape[0]))
    step = max(1, (1 << 18) // (max(m, 32) * (delta + 1)))
    for s in range(0, y.shape[0], step):
        np.matmul(a, b[s : s + step].T, out=f[:, s : s + step])
    return f, xnorms, 8 * (delta + 2) * 2.0**-53 * (xnorms + norms.max()) + 2.0**-1000


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, e) over paired bounds; gathers CSR rows."""
    lengths = ends - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def row_blocks(indptr: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Ranges [a, b) of consecutive CSR rows with at most ``budget`` rows plus edges, a longer row alone."""
    # rows a..b-1 hold span[b] - span[a] rows plus edges, span strictly increasing
    blocks, n, a, span = [], indptr.size - 1, 0, indptr + np.arange(indptr.size)
    while a < n:
        blocks.append((a, max(a + 1, int(np.searchsorted(span, span[a] + budget, side="right")) - 1)))
        a = blocks[-1][1]
    return blocks


def row_fault(n: int, indptr: np.ndarray, indices: np.ndarray) -> tuple[int, str] | None:
    """(vertex, message) for the first faulty CSR row over ids [0, n), or None.

    The message names the first failing check in the order: id range,
    self-loop, duplicate. The rows, maybe a prefix of a graph's n rows, are
    checked a block of :func:`row_blocks` at a time, first block first.
    """
    for a, b in row_blocks(indptr, _ROW_BLOCK):
        owner, ids = np.repeat(np.arange(a, b), np.diff(indptr[a : b + 1])), indices[indptr[a] : indptr[b]]
        out_of_range = owner[:0]
        # an out-of-range id equals no owner, so dropping its slot changes no later check
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            in_range = (ids >= 0) & (ids < n)
            out_of_range, owner, ids = owner[~in_range], owner[in_range], ids[in_range]
        keys = owner * n + ids
        keys.sort()
        repeated = keys[1:][keys[1:] == keys[:-1]]
        checks = (
            (out_of_range, f"neighbor id out of range [0, {n})"),
            (owner[ids == owner], "self-loop"),
            (repeated // n, "duplicate neighbor"),
        )
        firsts = [int(bad.min()) if bad.size else n for bad, _ in checks]
        v = min(firsts)
        if v < n:
            return v, f"vertex {v}: {checks[firsts.index(v)][1]}"
    return None


@dataclass(frozen=True, eq=False)
class GeometricGraph:
    """Immutable directed geometric graph in CSR form.

    ``coords`` holds one row of ``delta`` binary64 reals per vertex. The
    out-neighbors of vertex v are ``indices[indptr[v]:indptr[v+1]]`` in
    storage order, which is the order of the source and carries no distance
    meaning. Vertices are identified by position; coincident coordinates are
    legal.

    A float64 C-contiguous ``coords`` array is kept, not copied, and set
    read-only: the graph, later graphs over it (``corrupt_edges`` children)
    and the tester's cached index share it. Do not set it writable again.
    The constructor checks rows with :func:`row_fault`; ``_of_valid_rows``
    runs every other check on rows valid by construction (generators, the
    exact graph, the .knng reader's rows once it has checked them), and
    ``_with_indices`` checks only the new ids of a graph that shares its
    parent's checked arrays (``corrupt_edges`` children).
    """

    coords: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    k_hint: int | None = None

    def __post_init__(self):
        self._settle(check_rows=True)

    @classmethod
    def _of_valid_rows(cls, coords, indptr, indices, k_hint=None) -> "GeometricGraph":
        """The graph of rows valid by construction: every check of the constructor but :func:`row_fault`."""
        g = cls.__new__(cls)
        g.__dict__.update(coords=coords, indptr=indptr, indices=indices, k_hint=k_hint)
        g._settle(check_rows=False)
        return g

    def _with_indices(self, indices: np.ndarray) -> "GeometricGraph":
        """New valid rows over this graph's checked arrays, shared; only ``indices`` is checked."""
        if indices.dtype != np.int64 or indices.shape != self.indices.shape:
            raise ValueError(f"indices must be int64 of shape {self.indices.shape}")
        g = type(self).__new__(type(self))
        g.__dict__.update(vars(self), indices=np.ascontiguousarray(indices))
        g.indices.setflags(write=False)
        return g

    def _settle(self, check_rows: bool) -> None:
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ValueError("coords must be 2-d with at least one column")
        if coords.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        n = coords.shape[0]
        indptr, indices = np.asarray(self.indptr), np.asarray(self.indices)
        if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in (indptr, indices)):
            raise ValueError("adjacency indptr and indices must be 1-d integer arrays")
        indptr, indices = (np.ascontiguousarray(a, dtype=np.int64) for a in (indptr, indices))
        degrees = np.diff(indptr)
        if indptr.size != n + 1 or indptr[0] != 0 or indptr[-1] != indices.size or np.any(degrees < 0):
            raise ValueError(
                f"adjacency indptr must hold n+1 = {n + 1} non-decreasing offsets "
                f"from 0 to len(indices) = {indices.size}"
            )
        fault = row_fault(n, indptr, indices) if check_rows else None
        if fault is not None:
            raise ValueError(fault[1])
        if self.k_hint is not None and self.k_hint < 1:
            raise ValueError("k_hint must be positive when given")
        for a in (coords, indptr, indices, degrees):
            a.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_degrees", degrees)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def delta(self) -> int:
        return self.coords.shape[1]

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex, read-only."""
        return self._degrees

    def check_vertex(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} out of range [0, {self.n})")
        return v

    def degree(self, v: int) -> int:
        return int(self._degrees[self.check_vertex(v)])

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of v in storage order: a read-only view, no copy."""
        v = self.check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def coord(self, v: int) -> np.ndarray:
        return self.coords[self.check_vertex(v)]

    def equals(self, other: "GeometricGraph") -> bool:
        """Bit-exact structural equality (coordinates, adjacency order, k_hint)."""
        return (
            self.coords.shape == other.coords.shape
            and self.k_hint == other.k_hint
            and np.array_equal(self.coords.view(np.uint64), other.coords.view(np.uint64))
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class QueryTally:
    """Distinct oracle reads split by kind."""

    neighbor: int = 0
    degree: int = 0
    coord: int = 0

    @property
    def total(self) -> int:
        return self.neighbor + self.degree + self.coord


@dataclass(frozen=True)
class EdgeBudget:
    """Average-degree bound d used as the denominator of the epsilon-distance."""

    d: float
    source: str  # "provided" or "computed"

    def __post_init__(self):
        if self.source not in ("provided", "computed"):
            raise ValueError(f"unknown budget source {self.source!r}")
        if not (np.isfinite(self.d) and self.d > 0):
            raise ValueError("edge budget d must be finite and positive")

    @classmethod
    def provided(cls, d: float) -> "EdgeBudget":
        return cls(float(d), "provided")

    @classmethod
    def computed(cls, graph: GeometricGraph) -> "EdgeBudget":
        """Default budget |E|/n. Raises for edgeless graphs; supply d explicitly there."""
        if graph.num_edges == 0:
            raise ValueError("the graph has no edges, so the edge budget d must be given")
        return cls(graph.num_edges / graph.n, "computed")


class OracleSession:
    """Query-counting bulk access to a graph: degree, neighbor-row and coordinate reads.

    Repeat reads are memoized and free: each degree, neighbor slot and
    coordinate is charged at most once, in one n-entry mask per kind; rows are
    charged whole, so the slots read sum the degrees of the rows read. Rows and
    coordinates are charged only: the scan reads them from the graph's arrays.
    The graph is shared and immutable; each session is owned by one task.
    """

    def __init__(self, graph: GeometricGraph):
        self.graph = graph
        self._deg_seen, self._row_seen, self._coord_seen = np.zeros((3, graph.n), dtype=bool)

    @property
    def query_count(self) -> QueryTally:
        """Distinct reads so far: the degrees of the rows read, and the entries set in the other masks."""
        return QueryTally(
            int(np.sum(self.graph._degrees, where=self._row_seen)),
            int(np.count_nonzero(self._deg_seen)),
            int(np.count_nonzero(self._coord_seen)),
        )

    def degrees(self, vs) -> np.ndarray:
        vs = self._check_vertices(vs)
        self._deg_seen[vs] = True
        return self.graph._degrees[vs]

    def charge_neighbor_rows(self, vs) -> None:
        """Charge, for every v in vs, the reads of its whole row: deg(v) and slots 1..deg(v)."""
        vs = self._check_vertices(vs)
        self._deg_seen[vs] = self._row_seen[vs] = True

    def charge_coords(self, vs) -> None:
        """Charge the coordinate read of every v in vs; the caller reads ``graph.coords`` itself."""
        self._coord_seen[self._check_vertices(vs)] = True

    def _check_vertices(self, vs) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        if vs.size and (vs.min() < 0 or vs.max() >= self.graph.n):
            raise ValueError("vertex id out of range")
        return vs
