"""One-sided sublinear tester for the k-nearest-neighborhood property.

The tester samples a vertex pool S', filters it by a degree cap into S,
samples a witness pool T with replacement, and rejects as soon as some v in S
has degree below k or some u in T passes the local witness check against
some v in S. A graph that is a k-NN graph is never rejected, for any seed.

Its cost is the number of distinct oracle reads of that sequential scan. The
scan itself works on the graph's arrays one block of S at a time and charges
the OracleSession, in bulk, for exactly the reads the sequential scan makes
up to where it stops, so the session's QueryTally is the tester's cost.

Every block of S finds its witness candidates through the exact k-d leaf
index that lives in :mod:`core` (:func:`core.leaf_index`, leaves of at most
64 T values), built once per run over the distinct T values. Its box bounds
only rule leaves out, and every candidate is re-checked with the same
distance arithmetic, so verdicts and tallies equal those of the sequential
scan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import exact
from .core import (
    GeometricGraph,
    OracleSession,
    QueryTally,
    box_gap2,
    concat_ranges,
    dist2_row,
    leaf_index,
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

# rows per vertex block in the pair scan
_SCAN_BLOCK = 256

# most points per leaf of the scan's index over T
_LEAF_SIZE = 64


def kissing_number(delta: int) -> int:
    """Kissing number psi_delta used to size the witness sample T.

    Dimensions above 8 fall back to ceil(2^(0.401 * delta * 1.2)), a sizing
    heuristic with slack for the asymptotic correction term. The value only
    affects sample sizes, never the one-sidedness of the tester.
    """
    if delta < 1:
        raise ValueError("dimension must be at least 1")
    if delta <= len(KISSING_NUMBERS):
        return KISSING_NUMBERS[delta - 1]
    return math.ceil(2.0 ** (0.401 * delta * 1.2))


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
            if self.c1 is None or self.c2 is None or self.c1 <= 0 or self.c2 <= 0:
                raise ValueError("experiment mode needs positive c1 and c2")
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


def run_tester(session: OracleSession, cfg: TesterConfig) -> Verdict:
    """Run the tester once; deterministic in (graph, cfg, seed) including tallies.

    Rejects on the first v in S with deg(v) < k, or the first pair (v, u) in
    S x T order passing the local witness check; accepts otherwise. The
    session is charged for the distinct reads of that scan up to its stop:
    the degrees of S', and for every scanned v its degree, neighbors and
    their coordinates and its own, plus the coordinates of T (only up to the
    witness when the scan stops at the first v of S). A v whose every draw
    of T equals v reads nothing beyond its degree. Rejection evidence is
    re-verified against ground truth, also under ``python -O``; evidence
    that fails it raises AssertionError.
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

    U goes into a leaf index once, before the first block. A leaf whose box
    bound is not below a row's r_k holds no u strictly inside it, and the
    u of every other leaf are re-checked with the arithmetic of dist2_row.
    Counting each u once, a row has a witness when its hits outnumber its
    guarded hits: v itself and its neighbors that are in U and inside r_k.
    """
    g = session.graph
    low = np.flatnonzero(s_degs < k)
    limit = int(low[0]) if low.size else s_vertices.size
    u_vals = np.unique(t_draws)
    leaves, first, p, box_lo, box_hi = leaf_index(g.coords[u_vals], _LEAF_SIZE)
    for lo in range(0, limit, _SCAN_BLOCK):
        block = s_vertices[lo : min(limit, lo + _SCAN_BLOCK)]
        degs = s_degs[lo : lo + block.size]
        nbrs = g.indices[concat_ranges(g.indptr[block], g.indptr[block + 1])]
        owner = np.repeat(np.arange(block.size), degs)
        starts = np.cumsum(degs) - degs
        q = g.coords[block]
        nd = dist2_row(q[owner], g.coords[nbrs])
        rk = nd[np.lexsort((nd, owner))[starts + k - 1]]

        # the (row, leaf) pairs that may hold a u strictly inside r_k, row-major
        q_t = q.T[:, :, None]
        row, leaf = np.nonzero(box_gap2(q_t, q_t, box_lo, box_hi) < rk[:, None])
        # their u coordinate by coordinate, in dist2_row's order: bit-identical to nd
        d2 = None
        for j in range(q.shape[1]):
            d = p[j][leaf]
            d -= q[row, j][:, None]
            d *= d
            d2 = d if d2 is None else np.add(d2, d, out=d2)
        inside = (d2 < rk[row, None]) & first[leaf]
        hits = np.bincount(row, np.count_nonzero(inside, axis=1), block.size)
        # the guard requires u != v and u not in N(v); v's own distance is 0
        ids = np.concatenate((nbrs, block))
        rows = np.concatenate((owner, np.arange(block.size)))
        pos = np.minimum(np.searchsorted(u_vals, ids), u_vals.size - 1)
        guarded = (u_vals[pos] == ids) & (np.concatenate((nd, np.zeros(block.size))) < rk[rows])
        witnessed = np.flatnonzero(hits > np.bincount(rows[guarded], minlength=block.size))

        event = None
        scanned = block.size
        if witnessed.size:
            r = int(witnessed[0])
            scanned = r + 1
            pairs = slice(*np.searchsorted(row, [r, r + 1]))
            found = np.setdiff1d(leaves[leaf[pairs]][inside[pairs]], pos[guarded & (rows == r)])
            t_idx = int(np.flatnonzero(np.isin(t_draws, u_vals[found]))[0])
            event = ("witness", lo + r, t_idx)
        reads = (np.arange(block.size) < scanned) & ((block != u_vals[0]) | (u_vals.size > 1))
        # the first v that reads anything reads T, up to the witness if it is the
        # stop; only when T has one distinct value can that v follow S position 0.
        # All of T marks the same coordinates as U, which has at most n values
        t_read = t_draws[:0]
        if lo == 0 and reads.any():
            t_read = t_draws[: t_idx + 1] if event is not None and scanned == 1 else u_vals
        session.charge_neighbor_rows(block[reads])
        session.coords_many(np.concatenate((block[reads], nbrs[reads[owner]], t_read)))
        if event is not None:
            return event

    if low.size:
        return ("low-degree", limit, None)
    return None


def _evidence_confirmed(g: GeometricGraph, ev: Evidence, k: int) -> bool:
    """Ground-truth confirmation of rejection evidence.

    Low-degree evidence means deg(v) < k. A witness pair (v, u) certifies
    that v is incomplete: u is a non-neighbor other than v strictly inside
    r_k(v), the k-th smallest squared distance from v to its neighbors, which
    forces a missing true k-nearest neighbor. Both the pair and the exact
    witness set of v are checked.
    """
    if ev.reason == "low-degree":
        return g.degree(ev.vertex) < k
    v, u = ev.vertex, ev.witness
    nbrs = g.neighbors(v)
    if u is None or g.check_vertex(u) == v or nbrs.size < k or np.any(nbrs == u):
        return False
    d2 = dist2_row(g.coords[v], g.coords[np.append(nbrs, u)])
    if not d2[-1] < np.partition(d2[:-1], k - 1)[k - 1]:
        return False
    return exact.witnesses_of(g, v, k).incomplete
