"""One-sided sublinear tester for the k-nearest-neighborhood property.

The tester samples a vertex pool S', filters it by a degree cap into S,
samples a witness pool T with replacement, and rejects as soon as some v in S
has degree below k or some u in T passes the local witness check against
some v in S. A graph that is a k-NN graph is never rejected, for any seed.

Its cost is the number of distinct oracle reads of that sequential scan. The
scan works on the graph's arrays a block of S at a time: 8 rows, then at most
the rows before plus 8 (a stop at S position r evaluates at most 2r + 8 rows)
and at most a float budget's worth of candidate gathers (1 row at least). It
charges the OracleSession, in bulk, for the degrees, whole rows and coordinates
the sequential scan reads up to its stop, so the session's QueryTally is its cost.

Every block of S finds its witness candidates by the one query
:func:`core.leaf_pairs` on a k-d leaf index (:func:`core.leaf_index`, leaves
of at most 64 points) over the distinct T values, or, when they cover half
the vertices, over all vertices, kept per coordinate array and so shared by
every graph over one point set, until the scan turns long.
Box bounds only rule leaves out, and every candidate is re-checked with the
same distance arithmetic (:func:`core.sum_squares`), so verdicts and tallies
equal those of the sequential scan. Its per-pair gathers are 1-d takes from
coordinate-major columns, copied once per run; it has no layout option.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    GeometricGraph,
    OracleSession,
    QueryTally,
    concat_ranges,
    dist2_row,
    leaf_index,
    leaf_pairs,
    sum_squares,
)
from .sampling import rng_from, sample_without_replacement, split_seed

__all__ = [
    "KISSING_NUMBERS",
    "kissing_number",
    "TesterConfig",
    "Evidence",
    "Verdict",
    "sample_sizes",
    "run_tester",
]

# best known upper bounds on the kissing number for dimensions 1..8
KISSING_NUMBERS = (2, 6, 12, 24, 44, 78, 134, 240)

_LN10 = math.log(10.0)

# rows in vertex block 0 of the pair scan, and the most floats a later block
# gathers per coordinate (1 MB); _PAIR_FLOATS // _LEAF_SIZE rows at most
_FIRST_BLOCK = 8
_PAIR_FLOATS = 1 << 17

# most points per leaf of the scan's indexes
_LEAF_SIZE = 64

# per coordinate array, by id while it lives: None after a run whose T covers half
# its rows, then the read-only index over all of them, shared by every graph over it
_GRAPH_INDEX: dict[int, tuple | None] = {}
_GRAPH_LOCK = threading.Lock()


def kissing_number(delta: int) -> int:
    """Kissing number psi_delta used to size the witness sample T.

    Dimensions above 8 fall back to ceil(2^(0.401 * delta * 1.2)). That is
    no upper bound on psi_delta for delta = 9..16: it gives 21 at delta=9,
    though psi is non-decreasing, so psi_9 >= psi_8 = 240.
    The value only affects sample sizes, never the one-sidedness of the
    tester.
    """
    if delta < 1:
        raise ValueError("dimension must be at least 1")
    if delta <= len(KISSING_NUMBERS):
        return KISSING_NUMBERS[delta - 1]
    return math.ceil(math.pow(2.0, 0.401 * delta * 1.2))


@dataclass(frozen=True)
class TesterConfig:
    """Run parameters for the tester.

    Theory mode sizes samples as |S'| = 100k*sqrt(n)/eps and
    |T| = ln(10)*k*psi_delta*sqrt(n). Experiment mode uses
    |S'| = c1*8k*sqrt(n) and |T| = c2*k*ln(10)*sqrt(n) and ignores the
    theory constants; theory mode ignores c1/c2.
    """

    k: int
    epsilon: float
    delta: int
    mode: str = "theory"
    c1: float | None = None
    c2: float | None = None
    seed: int = 0
    degree_cap_override: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.mode not in ("theory", "experiment"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "experiment":
            for name, value in (("c1", self.c1), ("c2", self.c2)):
                if value is None or not 0 < value < math.inf:
                    raise ValueError(f"experiment mode needs a finite positive {name}, got {value}")
        if self.degree_cap_override is not None and self.degree_cap_override < 1:
            raise ValueError("degree cap override must be positive")


@dataclass(frozen=True)
class Evidence:
    """Rejection evidence: the incomplete vertex and, for witness rejections, the witness."""

    vertex: int
    witness: int | None
    reason: str  # "witness" or "low-degree"


@dataclass(frozen=True)
class Verdict:
    decision: str  # "accept" or "reject"
    evidence: Evidence | None
    s_prime_size: int
    s_size: int
    t_size: int
    queries: QueryTally
    elapsed: float

    def to_json_dict(self) -> dict:
        """JSON-ready form. Excludes elapsed so identical runs serialize identically."""
        return {
            "decision": self.decision,
            "evidence": None
            if self.evidence is None
            else {
                "vertex": self.evidence.vertex,
                "witness": self.evidence.witness,
                "reason": self.evidence.reason,
            },
            "sizes": {
                "s_prime": self.s_prime_size,
                "s": self.s_size,
                "t": self.t_size,
            },
            "queries": {
                "neighbor": self.queries.neighbor,
                "degree": self.queries.degree,
                "coord": self.queries.coord,
                "total": self.queries.total,
            },
        }


def sample_sizes(n: int, cfg: TesterConfig) -> tuple[int, int, int]:
    """Realized (|S'|, |T|, degree cap) for a graph of n vertices.

    |S'| is clamped to n; sampling more than the whole vertex set gains
    nothing without replacement.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    root = math.sqrt(n)
    if cfg.mode == "theory":
        s_prime = min(n, math.ceil(100.0 * cfg.k * root / cfg.epsilon))
        t = math.ceil(_LN10 * cfg.k * kissing_number(cfg.delta) * root)
    else:
        s_prime = min(n, math.ceil(cfg.c1 * 8.0 * cfg.k * root))
        t = math.ceil(cfg.c2 * cfg.k * _LN10 * root)
    cap = math.ceil(100.0 * cfg.k / cfg.epsilon)
    if cfg.degree_cap_override is not None:
        cap = cfg.degree_cap_override
    return s_prime, t, cap


@np.errstate(over="ignore")
def run_tester(session: OracleSession, cfg: TesterConfig) -> Verdict:
    """Run the tester once; deterministic in (graph, cfg, seed) including tallies.

    Rejects on the first v in S with deg(v) < k, or the first pair (v, u) in
    S x T order passing the local witness check; accepts otherwise. The
    session is charged for the distinct reads of that scan up to its stop:
    the degrees of S', and for every scanned v its degree, neighbors and
    their coordinates and its own, plus the coordinates of T (only up to the
    witness when the scan stops at the first v of S). A v whose every draw
    of T equals v reads nothing beyond its degree. Rejection evidence is
    confirmed by the O(k) witness-pair check on v's row (deg(v) < k for
    low-degree evidence), also under ``python -O``; evidence that fails it
    raises AssertionError.
    """
    g = session.graph
    n = g.n
    if n < 2 or cfg.k >= n:
        raise ValueError(f"tester needs 1 <= k < n, got k={cfg.k}, n={n}")
    if cfg.delta != g.delta:
        raise ValueError(f"config dimension {cfg.delta} does not match graph dimension {g.delta}")
    start = time.perf_counter()

    s_prime_size, t_size, cap = sample_sizes(n, cfg)
    seq_s, seq_t = split_seed(cfg.seed, 2)
    s_prime = sample_without_replacement(n, s_prime_size, rng_from(seq_s))
    t_draws = rng_from(seq_t).integers(0, n, size=t_size)

    degs = session.degrees(s_prime)
    keep = degs <= cap
    s_vertices = s_prime[keep]
    s_degs = degs[keep]

    event = _scan(session, s_vertices, s_degs, t_draws, cfg.k)

    if event is None:
        decision, evidence = "accept", None
    else:
        kind, v_idx, t_idx = event
        vertex = int(s_vertices[v_idx])
        witness = None if t_idx is None else int(t_draws[t_idx])
        evidence = Evidence(vertex, witness, kind)
        decision = "reject"
        if not _evidence_confirmed(g, evidence, cfg.k):
            raise AssertionError(f"rejection evidence fails ground truth: {evidence}")

    return Verdict(
        decision=decision,
        evidence=evidence,
        s_prime_size=int(s_prime.size),
        s_size=int(s_vertices.size),
        t_size=int(t_draws.size),
        queries=session.query_count,
        elapsed=time.perf_counter() - start,
    )


def _scan(
    session: OracleSession,
    s_vertices: np.ndarray,
    s_degs: np.ndarray,
    t_draws: np.ndarray,
    k: int,
):
    """First rejection event in S-major scan order, or None.

    Returns ("low-degree", v_index, None) or ("witness", v_index, t_index).
    Each block of S is evaluated on the graph's arrays, vectorized over the
    distinct T values U; this equals the literal nested loop because the
    witness predicate for (v, u) depends only on u's value. Each block then
    charges the session for the reads of the nested loop up to its stop.

    Block 0 holds _FIRST_BLOCK rows; a later block at most the rows before it
    plus _FIRST_BLOCK, so a stop at S position r evaluates at most 2r + 8 rows,
    and at most _PAIR_FLOATS // max(_LEAF_SIZE, f) rows, f being the floats per
    coordinate per row the block before gathered (S is random), and 1 at least.
    The floor caps blocks at 2048 rows, within the r_k sort's int16 row keys.

    A mask over the vertices marks T once per run; U is its set positions,
    ascending. If U holds half the vertices and :func:`_graph_index` has an
    index over all of them, kept per coordinate array for every graph over
    it, the blocks start on it, its first mask masked to T, until the float
    budget, not the plus-8 rule, first sizes a block while T misses a vertex;
    otherwise, and from then on, on an index over U built once. Both hold
    vertex ids: pairs differ, events and reads do not. A leaf whose box bound
    is not below a row's r_k holds no u strictly inside it, and the u of
    every other leaf are re-checked with the arithmetic of r_k. Counting each
    u once, a row has a witness when its hits outnumber its guarded hits: v
    itself and its neighbors that are in T and inside r_k.
    """
    g = session.graph
    low = np.flatnonzero(s_degs < k)
    limit = int(low[0]) if low.size else s_vertices.size
    in_t = np.zeros(g.n, dtype=bool)
    in_t[t_draws] = True
    u_vals = np.flatnonzero(in_t)
    index = _graph_index(g) if 2 * u_vals.size >= g.n else None
    if index is not None:
        leaves, first, p, levels = index
        first = first & in_t[leaves]
    cols = np.ascontiguousarray(g.coords.T)
    lo, size = 0, _FIRST_BLOCK
    while lo < limit:
        if index is None:  # build the index over U; () marks it built
            leaves, first, p, levels = leaf_index(g.coords.take(u_vals, axis=0), _LEAF_SIZE)
            leaves, index = u_vals[leaves], ()
        block = s_vertices[lo : min(limit, lo + size)]
        degs = s_degs[lo : lo + block.size]
        nbrs = g.indices[concat_ranges(g.indptr[block], g.indptr[block + 1])]
        owner = np.repeat(np.arange(block.size), degs)
        starts = np.cumsum(degs) - degs
        q = cols.take(block, axis=1)
        nd = sum_squares(np.subtract(c.take(nbrs), qc.take(owner)) for c, qc in zip(cols, q))
        # sorted by distance, then stably by row; int16 row keys take numpy's radix sort
        o = np.argsort(nd)
        rk = nd[o[np.argsort(owner.astype(np.int16)[o], kind="stable")][starts + k - 1]]
        # (row, leaf) pairs that may hold a u strictly inside r_k: x < r_k iff x <= nextafter(r_k, -inf)
        row, leaf = leaf_pairs(q, q, np.nextafter(rk, -np.inf), levels)
        # their u: one gather per coordinate, with the row's coordinate subtracted in place
        d2 = sum_squares(np.subtract(d := p[j][leaf], q[j].take(row)[:, None], out=d) for j in range(len(q)))
        inside = (d2 < rk[row, None]) & first[leaf]
        hits = np.bincount(row, np.count_nonzero(inside, axis=1), block.size)
        # the guard requires u != v and u not in N(v); v's own distance is 0
        ids = np.concatenate((nbrs, block))
        rows = np.concatenate((owner, np.arange(block.size)))
        guarded = in_t[ids] & (np.concatenate((nd, np.zeros(block.size))) < rk[rows])
        witnessed = np.flatnonzero(hits > np.bincount(rows[guarded], minlength=block.size))

        event = None
        scanned = block.size
        if witnessed.size:
            r = int(witnessed[0])
            scanned = r + 1
            pairs = slice(*np.searchsorted(row, [r, r + 1]))
            # row r's witnesses: its inside values, less its guarded ids; the first draw of one
            found = np.zeros(g.n, dtype=bool)
            found[leaves[leaf[pairs]][inside[pairs]]] = True
            found[ids[guarded & (rows == r)]] = False
            t_idx = int(np.argmax(found[t_draws]))
            event = ("witness", lo + r, t_idx)
        reads = (np.arange(block.size) < scanned) & ((block != u_vals[0]) | (u_vals.size > 1))
        # the first v that reads anything reads T, up to the witness if it is the
        # stop. It is S position 0, or 1 when T has one distinct value, so block 0
        # must hold 2 rows or more. All of T marks the coordinates of U (n at most)
        t_read = t_draws[:0]
        if lo == 0 and reads.any():
            t_read = t_draws[: t_idx + 1] if event is not None and scanned == 1 else u_vals
        session.charge_neighbor_rows(block[reads])
        session.charge_coords(np.concatenate((block[reads], nbrs[reads[owner]], t_read)))
        if event is not None:
            return event
        lo += block.size
        size = max(1, int(_PAIR_FLOATS // max(_LEAF_SIZE, d2.size / block.size)))
        # free this block's pair arrays before the next block gathers its own:
        # a run's peak then holds one block's, not two
        del d, d2, inside
        if index and size < lo + _FIRST_BLOCK and u_vals.size < g.n:
            index = None  # the scan has turned long
        size = min(lo + _FIRST_BLOCK, size)

    if low.size:
        return ("low-degree", limit, None)
    return None


def _graph_index(g: GeometricGraph):
    """The cached leaf index over all rows of g.coords; None on the array's first call, which records it."""
    key = id(g.coords)
    with _GRAPH_LOCK:
        if key not in _GRAPH_INDEX:
            # drops the entry as the array dies, before its id can be reused; a dict pop needs no lock
            weakref.finalize(g.coords, _GRAPH_INDEX.pop, key, None)
        elif _GRAPH_INDEX[key] is None:
            leaves, first, p, levels = leaf_index(g.coords, _LEAF_SIZE)
            for a in (leaves, first, p, *(a for box in levels for a in box)):
                a.setflags(write=False)
            _GRAPH_INDEX[key] = leaves, first, p, tuple(levels)
        return _GRAPH_INDEX.setdefault(key, None)


def _evidence_confirmed(g: GeometricGraph, ev: Evidence, k: int) -> bool:
    """Ground-truth confirmation of rejection evidence, in O(k) reads.

    Low-degree evidence means deg(v) < k. A witness pair (v, u) has u a
    non-neighbor other than v strictly inside r_k(v), the k-th smallest squared
    distance from v to its neighbors. That proves v incomplete: v's nearest
    non-neighbor w has d(v, w) <= d(v, u) < r_k(v), and every vertex strictly
    nearer than w is a neighbor strictly inside r_k(v), of which there are
    fewer than k, so w is a k-nearest vertex missing from v's row.
    """
    if ev.reason == "low-degree":
        return g.degree(ev.vertex) < k
    v, u = ev.vertex, ev.witness
    nbrs = g.neighbors(v)
    if u is None or g.check_vertex(u) == v or nbrs.size < k or np.any(nbrs == u):
        return False
    d2 = dist2_row(g.coords[v], g.coords.take(np.append(nbrs, u), axis=0))
    return bool(d2[-1] < np.partition(d2[:-1], k - 1)[k - 1])
