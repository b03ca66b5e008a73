"""Exact k-nearest-neighbor semantics.

Everything here reads the graph directly (never through an OracleSession) and
serves as the ground truth the sublinear tester is validated against.

One kernel computes, for every vertex, its k-th smallest squared distance,
its k nearest ids, how many of them lie strictly inside that distance and the
ids exactly at it. It runs on the k-d leaf index that lives in :mod:`core`
(:func:`core.leaf_index`, leaves of at most 8 points), one unit of
consecutive leaves at a time. Each row's k-th distance among the unit's own
points bounds its true k-th distance from above; the index's one query
:func:`core.leaf_pairs` keeps only the leaves whose box bound is within the
largest of them, so the leaves left hold every id inside or at the k-th
distance, in every dimension and with no rounding margin, and each row then
keeps the pairs within its own bound. BLAS values (:func:`core.dist2_filter`)
only prune a block's pairs, by a proven error bound; where the bounds would
keep too many pairs, or a row has none, each row takes its k-th smallest
filter value instead. Every comparison is made on the pairs left with the
same distance arithmetic (:func:`core.sum_squares`) as a scan over all
points, so strict inequalities and tie-breaking equal those of a brute-force
pass bit for bit: a row's hits, found in id order, take (squared distance,
id) order from one stable sort per row. A unit of at most k points bounds
nothing, so its rows take every leaf. Each block's selection is written
straight into the profile's arrays. The ids inside a vertex's k-th distance
are the first ones of its k nearest, so they are not stored but read from
``knn``. :func:`k_nearest_set` selects one row against all points with the
same :func:`_select`. A report matches each edge with the exact graph's id
at the same slot and compares only the other edges' squared distances over
the profile's points, overflow to inf ignored, with ``kth``, one block of
rows at a time, so its cost grows with the edges that differ from the exact
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (EdgeBudget, GeometricGraph, concat_ranges, dist2_block, dist2_filter, leaf_index, leaf_pairs,
                   row_blocks, sum_squares)

__all__ = [
    "WitnessSet",
    "DistanceReport",
    "NeighborhoodProfile",
    "k_nearest_set",
    "witnesses_of",
    "build_exact_knn_graph",
    "epsilon_distance",
    "max_shared_knn",
]

# floats per block of filter values or distances; a selection holds one, a partitioned copy and a byte mask
_BLOCK_FLOATS = 8_000_000
# rows plus edges that a report compares at once
_REPORT_BLOCK = 1 << 16
# most points per leaf of the kernel's index
_LEAF_SIZE = 8
# rows the kernel aims to put in one unit of consecutive leaves
_UNIT_ROWS = 128


def _block_size(n: int) -> int:
    return max(1, min(n, _BLOCK_FLOATS // max(1, n)))


def _bounds_pay(f: np.ndarray, lim: np.ndarray, delta: int) -> bool:
    """Whether gathering the pairs with ``f`` within their row's ``lim``, 3δ + 3 words each, moves no more
    words than a partition of ``f`` copies, by the count over every 8th row."""
    return (3 * delta + 3) * 8 * np.count_nonzero(f[::8] <= lim[::8, None]) <= f.size


def _near(coords: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int, bound: np.ndarray):
    """Pairs (r, c, d) of ``rows`` and the ascending ids ``cand`` in (row, id) order, d their squared
    distances: every pair at or inside a row's k-th distance, at least k per row, no row's own id.

    Each bound[i] is inf or at least row i's k-th distance among the
    candidates. Where every bound is finite and keeping the pairs within them
    pays (:func:`_bounds_pay`), :func:`core.dist2_filter` keeps the pairs with
    F ≤ bound − X̂ + M, which hold every pair with d ≤ bound. Otherwise each
    row takes its k-th smallest F, t̃, and keeps the pairs whose F is within
    2M of it: a pair at or inside the k-th distance t has F + X ≤ t + M, and
    t ≤ t̃ + X + M. A block the filter declines, or where it keeps too many
    pairs to gather within its memory, takes ``dist2_block`` and keeps the
    pairs with d ≤ bound, or d at most the row's k-th smallest d.
    """
    x, y = coords.take(rows, axis=0), coords.take(cand, axis=0)
    pos = np.minimum(np.searchsorted(cand, rows), cand.size - 1)
    own = (np.flatnonzero(cand[pos] == rows), pos[cand[pos] == rows])
    tight = bool(np.isfinite(bound).all())
    if (filt := dist2_filter(x, y)) is not None:
        f, xnorms, margin = filt
        f[own] = np.inf
        lim = bound - xnorms + margin
        tight = tight and _bounds_pay(f, lim, x.shape[1])
        if not tight:
            lim = np.partition(f, k - 1, axis=1)[:, k - 1] + 2 * margin
        kept = np.flatnonzero(f <= lim[:, None])
        del f, filt
        # the kept pairs' ids and differences, 3δ + 3 words each, fit where F and its partitioned copy were
        if (3 * x.shape[1] + 3) * kept.size <= 2 * rows.size * cand.size:
            r, c = np.divmod(kept, cand.size)
            # one contiguous row of differences per coordinate
            return r, c, sum_squares(np.ascontiguousarray((x.take(r, axis=0) - y.take(c, axis=0)).T))
    d2 = dist2_block(x, y)
    # no comparison selects nan, and partition sorts it last, also past distances that overflow to inf
    d2[own] = np.nan
    lim = bound if tight else np.partition(d2, k - 1, axis=1)[:, k - 1]
    kept = np.flatnonzero(d2 <= lim[:, None])
    return *np.divmod(kept, cand.size), d2.ravel()[kept]


@dataclass(frozen=True)
class _Selection:
    """Exact k-th-distance structure of some rows, flattened row after row."""

    rows: np.ndarray  # vertex ids
    kth: np.ndarray  # k-th smallest squared distance per row
    knn: np.ndarray  # (rows, k): first k ids by (squared distance, id)
    inside: np.ndarray  # count per row of ids strictly nearer than the k-th distance, the first ones of knn
    at_of: np.ndarray
    at_ids: np.ndarray  # exactly at the k-th distance, ascending per row


def _select(coords: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int, bound: np.ndarray) -> _Selection:
    """The one exact selection: ``rows`` against the ascending candidate ids ``cand``, within ``bound``.

    The result is exact for every row whose vertices at or within the k-th
    distance are all candidates, and whose bound is inf or at least its k-th
    distance among them. The kept pairs, in (row, id) order, fill one row
    per row of a padded (rows × most hits) array, and one stable argsort
    per row ranks them by (squared distance, id).
    """
    r, c, d = _near(coords, rows, cand, k, bound)
    counts = np.bincount(r, minlength=rows.size)
    # one row of hits per row, in id order and padded with nan, which sorts after every distance
    # and inf; a stable sort by distance keeps each row's ties in id order
    hits = np.arange(counts.max()) < counts[:, None]
    padded = np.full(hits.shape, np.nan)
    padded[hits] = d
    ranked = np.argsort(padded, axis=1, kind="stable")[:, :k] + (np.cumsum(counts) - counts)[:, None]
    kth, knn = d[ranked[:, -1]], cand[c[ranked]]
    at = d == kth[r]
    inside = np.bincount(r[d < kth[r]], minlength=rows.size)
    return _Selection(rows, kth, knn, inside, rows[r[at]], cand[c[at]])


def _leaf_pass(coords: np.ndarray, k: int):
    """Yields selections that cover every vertex once, one unit of the leaf index at a time.

    A unit is a node of the leaf index holding about _UNIT_ROWS points.
    Each row's k-th distance among the unit's own points, its bound, is at
    least its k-th distance among all points, so the largest bound, thr,
    bounds every row's. A point of a leaf whose box gap to the unit's box
    exceeds thr has a computed distance above thr from every row, so the
    leaves within thr hold all ids inside or at each row's k-th distance,
    and each row keeps the pairs within its own bound. A unit of at most k
    points has no k-th distance among its own points; its bounds are inf,
    so its rows take every leaf and the k-th smallest distance. The units'
    leaves come from one :func:`core.leaf_pairs` query per chunk of units.
    """
    leaves, first, _, levels = leaf_index(coords, _LEAF_SIZE)
    del _  # the leaves' coordinates, n·δ floats the pass does not read
    count, width = leaves.shape
    # a power of two, at most the leaf count, so that every unit is one node of the index
    per = min(count, 1 << max(0, (_UNIT_ROWS // width).bit_length() - 1))
    # a point the index repeats is a row of its first leaf only
    slots, firsts = leaves.reshape(-1, per * width), first.reshape(-1, per * width)
    units = [np.sort(ids[keep]) for ids, keep in zip(slots, firsts)]
    # each row's own zero distance sorts first, so position k holds its k-th; the copy
    # lets each partitioned block go
    bounds = [np.partition(dist2_block(x := coords.take(r, axis=0), x), k, axis=1)[:, k].copy()
              if r.size > k else np.full(r.size, np.inf) for r in units]
    thr = np.array([b.max() for b in bounds])
    unit_lo, unit_hi = levels[len(units).bit_length() - 1]
    # units per query, so that its unit-by-leaf bounds stay within one distance block
    chunk = _block_size(count)
    for c in range(0, len(units), chunk):
        span = slice(c, c + chunk)
        row, leaf = leaf_pairs(unit_lo[:, span], unit_hi[:, span], thr[span], levels)
        nears = np.split(leaf, np.searchsorted(row, np.arange(1, chunk)))
        for rows, bound, near in zip(units[span], bounds[span], nears):
            cand = np.sort(leaves[near][first[near]])
            step = _block_size(cand.size)
            for b in range(0, rows.size, step):
                yield _select(coords, rows[b : b + step], cand, k, bound[b : b + step])


def _csr(n: int, owner: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) grouping ``ids`` by ``owner``; a stable sort keeps each row's order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return indptr, ids[np.argsort(owner, kind="stable")]


@np.errstate(over="ignore")
def k_nearest_set(g: GeometricGraph, v: int, k: int) -> set[int]:
    """All vertices u != v with at most k-1 vertices strictly nearer to v.

    Under distance ties the set may exceed k elements.
    """
    v = g.check_vertex(v)
    _check_k(g.n, k)
    sel = _select(g.coords, np.array([v]), np.arange(g.n), k, np.array([np.inf]))
    return set(sel.knn[0, : sel.inside[0]].tolist()) | set(sel.at_ids.tolist())


@dataclass(frozen=True)
class WitnessSet:
    """Witness evidence for one vertex: k-nearest vertices missing from its adjacency."""

    vertex: int
    witnesses: frozenset[int]
    degree_deficit: int

    @property
    def incomplete(self) -> bool:
        return bool(self.witnesses) or self.degree_deficit > 0


def witnesses_of(g: GeometricGraph, v: int, k: int) -> WitnessSet:
    v = g.check_vertex(v)
    _check_k(g.n, k)
    wit = k_nearest_set(g, v, k) - set(g.neighbors(v).tolist())
    return WitnessSet(v, frozenset(wit), max(0, k - g.degree(v)))


def build_exact_knn_graph(points, k: int) -> GeometricGraph:
    """Exact k-NN graph of a point set; every vertex gets out-degree exactly k."""
    return NeighborhoodProfile(points, k).graph


@dataclass(frozen=True)
class DistanceReport:
    """Exact distance of a graph to the k-NN property plus incomplete-vertex census."""

    min_edits: int
    epsilon_distance: float
    incomplete_count: int


class NeighborhoodProfile:
    """Per-vertex k-th-distance structure of a point set, from one pass of the kernel.

    For every vertex it holds the k-th smallest squared distance ``kth``, the
    exact k-NN adjacency ``knn``, the ids strictly inside the k-th distance
    (``inside_indptr``/``inside_indices``) and the ids exactly at it
    (``at_indptr``/``at_indices``), both ascending per vertex. The ids inside
    are the first ``inside_indptr[v + 1] - inside_indptr[v]`` of ``knn[v]``:
    only their counts are stored, and ``inside_indices`` is derived from
    ``knn`` on first use. This depends only on coordinates, so one profile
    serves every graph over the same point set (the sweep harness reuses it
    across many corrupted adjacencies).
    """

    @np.errstate(over="ignore")
    def __init__(self, coords, k: int):
        coords = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ValueError("points must be a 2-d coordinate matrix with at least one column")
        _check_k(coords.shape[0], k)
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        self.k = k
        self.n = coords.shape[0]
        self.coords = coords
        self.kth = np.empty(self.n)
        self.knn = np.empty((self.n, k), dtype=np.int64)
        self.inside_indptr = np.zeros(self.n + 1, dtype=np.int64)
        at = []
        for sel in _leaf_pass(coords, k):
            self.kth[sel.rows] = sel.kth
            self.knn[sel.rows] = sel.knn
            self.inside_indptr[sel.rows + 1] = sel.inside
            at.append((sel.at_of, sel.at_ids))
        np.cumsum(self.inside_indptr, out=self.inside_indptr)
        self.at_indptr, self.at_indices = _csr(self.n, *(np.concatenate(a) for a in zip(*at)))
        for a in (self.kth, self.knn, self.inside_indptr, self.at_indptr, self.at_indices):
            a.setflags(write=False)

    def _inside(self) -> np.ndarray:
        """(n, k) mask of the slots of ``knn`` strictly inside each vertex's k-th distance."""
        return np.arange(self.k) < np.diff(self.inside_indptr)[:, None]

    @cached_property
    def inside_indices(self) -> np.ndarray:
        """Ids strictly inside each vertex's k-th distance, ascending per vertex, read-only."""
        inside = self._inside()
        # the id n sorts after every slot outside, so each row's first slots hold its inside ids
        ids = np.sort(np.where(inside, self.knn, self.n), axis=1)[inside]
        ids.setflags(write=False)
        return ids

    @cached_property
    def graph(self) -> GeometricGraph:
        """The exact k-NN graph: k out-neighbors per vertex by (squared distance, id)."""
        return GeometricGraph._of_valid_rows(self.coords, np.arange(self.n + 1) * self.k, self.knn.ravel(), self.k)

    @np.errstate(over="ignore")
    def report(self, g: GeometricGraph, budget: EdgeBudget | None = None) -> DistanceReport:
        """Minimum insertions and incomplete vertices of ``g`` against this profile.

        Per vertex, the ids strictly inside the k-th distance are mandatory;
        ties at the k-th distance fill the remaining slots preferring existing
        neighbors. A vertex is incomplete when its degree is below k or some id
        inside or at the k-th distance is not a neighbor. Edge (v, u) hits inside
        (at) it when its squared distance over the profile's points, in the
        kernel's arithmetic (v - u, :func:`core.sum_squares`, overflow to inf
        ignored), is below (equal to) ``kth[v]``; valid rows hold no repeat or
        self-loop. Only ``g``'s adjacency is read.

        The edges are compared slot by slot with ``knn``, one block of rows at
        a time: slot j < k of row v that holds knn[v, j] hits inside if j is
        below v's inside count and at the k-th distance otherwise, as ``knn``
        is in (squared distance, id) order and its distances have the bits
        computed here. Only the other edges, slots from k on and ids in other
        slots included, get distances, so a report's cost grows with the
        edges that differ from the exact graph.
        """
        if g.n != self.n:
            raise ValueError("graph does not match the profiled point set")
        if budget is None:
            budget = EdgeBudget.computed(g)
        k = self.k
        min_edits = incomplete = 0
        for a, b in row_blocks(g.indptr, _REPORT_BLOCK):
            degrees, first = g.degrees[a:b], g.indptr[a:b]
            inside, at = np.diff(self.inside_indptr[a : b + 1]), np.diff(self.at_indptr[a : b + 1])
            # each row's first k slots, a view where every row holds k; reads past a row's end are no slots
            slots = g.indices[first[0] : g.indptr[b]]
            if (degrees == k).all():
                slots = slots.reshape(-1, k)
            else:
                slots = np.concatenate([slots, np.full(k, -1)])[(np.arange(k)[:, None] + (first - first[0])).T]
            # every slot below k hits as knn's slot does, less those that miss
            row, j = np.divmod(np.flatnonzero(slots != self.knn[a:b]), k)
            row, j = row[j < degrees[row]], j[j < degrees[row]]
            compared = np.minimum(degrees, k)
            inside_hits = np.minimum(compared, inside)
            at_hits = compared - inside_hits
            inside_hits -= np.bincount(row[j < inside[row]], minlength=b - a)
            at_hits -= np.bincount(row[j >= inside[row]], minlength=b - a)
            # the edges left, slots that miss and every slot from k on, hit by their distances v - u
            long = np.flatnonzero(degrees > k)
            v = np.concatenate([row, np.repeat(long, degrees[long] - k)])
            u = g.indices[np.concatenate([first[row] + j, concat_ranges(first[long] + k, g.indptr[a + 1 + long])])]
            x = self.coords.take(v + a, axis=0)
            d2 = sum_squares(np.subtract(x, self.coords.take(u, axis=0), out=x).T)
            kth = self.kth[v + a]
            inside_hits += np.bincount(v[d2 < kth], minlength=b - a)
            at_hits += np.bincount(v[d2 == kth], minlength=b - a)
            min_edits += int(((inside - inside_hits) + np.maximum(0, k - inside - at_hits)).sum())
            incomplete += int(np.count_nonzero((degrees < k) | (inside + at > inside_hits + at_hits)))
        return DistanceReport(
            min_edits=min_edits,
            epsilon_distance=min_edits / (budget.d * self.n),
            incomplete_count=incomplete,
        )


def epsilon_distance(g: GeometricGraph, k: int, budget: EdgeBudget | None = None) -> DistanceReport:
    """Minimum edge insertions to make ``g`` a k-NN graph, normalized by d*n.

    Only insertions are counted: the property demands edge presence, never
    absence, so deletions cannot reduce the edit count.
    """
    return NeighborhoodProfile(g.coords, k).report(g, budget)


def max_shared_knn(points, k: int) -> int:
    """Largest number of points that share one point among their k nearest."""
    p = NeighborhoodProfile(points, k)
    counts = np.bincount(p.knn[p._inside()], minlength=p.n)
    counts += np.bincount(p.at_indices, minlength=p.n)
    return int(counts.max())


def _check_k(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
