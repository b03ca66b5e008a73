"""Sweep harness: corrupt exact k-NN graphs, bucket them by true distance,
and measure tester recall and query cost per (c1, c2) grid cell.

Bucketing always uses the exact ground-truth distance, never the tester's
verdict, and every reject is re-checked against ground truth, so precision
is 1 across the whole sweep. Reports are reproducible bit for bit from
(config, seed).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from .core import OracleSession
from .exact import NeighborhoodProfile
from .generators import corrupt_edges
from .sampling import derive_seed, rng_from
from .tester import TesterConfig, Verdict, run_tester

__all__ = [
    "DatasetSpec",
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "run_sweep",
    "query_budget_ratio",
    "export_report",
    "report_from_json",
    "sweep_config_from_json",
]

log = logging.getLogger(__name__)

DISTRIBUTIONS = ("uniform", "gaussian-mixture")


@dataclass(frozen=True)
class DatasetSpec:
    """One family of synthetic corrupted indices.

    Each seed draws one point set; each (point set, fraction) pair is
    corrupted ``corruptions_per_fraction`` times with derived seeds.
    """

    n: int
    delta: int
    distribution: str
    fractions: tuple[float, ...]
    seeds: tuple[int, ...]
    corruptions_per_fraction: int = 1

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n < 4 or self.delta < 1:
            raise ValueError("dataset needs n >= 4 and delta >= 1")
        if not self.fractions or not self.seeds:
            raise ValueError("dataset needs at least one fraction and one seed")
        if self.corruptions_per_fraction < 1:
            raise ValueError("corruptions_per_fraction must be positive")
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep plan mirroring the sweep.json schema field for field."""

    k: int
    grid: tuple[tuple[float, float], ...]
    datasets: tuple[DatasetSpec, ...]
    bucket_bounds: tuple[float, ...]
    trials_per_cell: int = 1
    min_bucket: int = 30
    epsilon: float = 0.01

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.grid or not self.datasets:
            raise ValueError("sweep needs a grid and at least one dataset")
        bounds = tuple(float(b) for b in self.bucket_bounds)
        if not bounds or bounds[0] <= 0 or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing and start above 0")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be positive")
        object.__setattr__(self, "grid", tuple((float(a), float(b)) for a, b in self.grid))
        object.__setattr__(self, "bucket_bounds", bounds)

    def buckets(self) -> list[tuple[float, float]]:
        """Half-open intervals (lo, hi] partitioning (0, inf)."""
        edges = (0.0,) + self.bucket_bounds + (float("inf"),)
        return list(zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class SweepRow:
    c1: float
    c2: float
    bucket_lo: float
    bucket_hi: float
    instances: int
    rejects: int
    recall: float
    mean_queries: float
    mean_ratio: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    metadata: dict = field(default_factory=dict)


def query_budget_ratio(verdict: Verdict, n: int, k: int) -> float:
    """Total oracle reads of a run relative to the n*k edges of the index."""
    return verdict.queries.total / (n * k)


def _make_points(spec: DatasetSpec, seed: int) -> np.ndarray:
    rng = rng_from(seed)
    if spec.distribution == "uniform":
        return rng.random((spec.n, spec.delta))
    centers = rng.random((8, spec.delta))
    comp = rng.integers(0, len(centers), size=spec.n)
    return centers[comp] + rng.normal(0.0, 0.05, size=(spec.n, spec.delta))


def run_sweep(cfg: SweepConfig, seed: int) -> SweepReport:
    """Generate, corrupt, bucket and test instances over the whole grid.

    Instances at exact distance 0 land in no bucket; they are still run and
    asserted to be accepted. Buckets with fewer than min_bucket instances are
    dropped with a warning. Each instance runs on every cell before the next
    is made, and only per-(cell, bucket) sums are kept, so memory stays flat.
    """
    buckets = cfg.buckets()
    # per cell and bucket: runs, rejects, queries, ratio
    stats = [[[0, 0, 0.0, 0.0] for _ in buckets] for _ in cfg.grid]
    for ii, (g, report) in enumerate(_instances(cfg, seed)):
        b = _bucket_of(buckets, report)
        for cell, (c1, c2) in zip(stats, cfg.grid):
            for trial in range(cfg.trials_per_cell):
                tcfg = TesterConfig(
                    k=cfg.k,
                    epsilon=cfg.epsilon,
                    delta=g.delta,
                    mode="experiment",
                    c1=c1,
                    c2=c2,
                    seed=derive_seed(seed, 1, ii, trial, int(c1 * 1e6), int(c2 * 1e6)),
                )
                verdict = run_tester(OracleSession(g), tcfg)
                if verdict.decision == "reject" and report.min_edits == 0:
                    raise AssertionError("tester rejected a graph at distance 0")
                if b is None:
                    continue
                sums = cell[b]
                sums[0] += 1
                sums[1] += verdict.decision == "reject"
                sums[2] += verdict.queries.total
                sums[3] += query_budget_ratio(verdict, g.n, cfg.k)

    kept = []
    for b, (runs, *_) in enumerate(stats[0]):
        size = runs // cfg.trials_per_cell  # each instance runs that often per cell
        if size < cfg.min_bucket:
            log.warning(
                "dropping bucket (%g, %g]: only %d instances (minimum %d)",
                buckets[b][0], buckets[b][1], size, cfg.min_bucket,
            )
        else:
            kept.append(b)

    rows = []
    for cell, (c1, c2) in zip(stats, cfg.grid):
        for b in kept:
            runs, rejects, queries, ratio = cell[b]
            rows.append(
                SweepRow(
                    c1=c1,
                    c2=c2,
                    bucket_lo=buckets[b][0],
                    bucket_hi=buckets[b][1],
                    instances=runs,
                    rejects=rejects,
                    recall=rejects / runs,
                    mean_queries=queries / runs,
                    mean_ratio=ratio / runs,
                )
            )

    metadata = {
        "seed": int(seed),
        "version": _version,
        "config": sweep_config_to_dict(cfg),
        "note": (
            "corruption fractions are synthetic stand-ins for ANN build quality; "
            "the mapping to any real ANN algorithm's parameters is approximate"
        ),
    }
    return SweepReport(rows=tuple(rows), metadata=metadata)


def _instances(cfg: SweepConfig, seed: int):
    """(corrupted graph, DistanceReport) pairs in sweep order, made one at a time."""
    for di, spec in enumerate(cfg.datasets):
        for si, pseed in enumerate(spec.seeds):
            # one kernel pass gives the exact graph and the k-th-distance
            # structure shared by every corruption of this point set
            profile = NeighborhoodProfile(_make_points(spec, pseed), cfg.k)
            base = profile.graph
            for fi, fraction in enumerate(spec.fractions):
                for j in range(spec.corruptions_per_fraction):
                    cseed = derive_seed(seed, di, si, fi, j)
                    g = corrupt_edges(base, fraction, cseed, k=cfg.k)
                    yield g, profile.report(g)


def _bucket_of(buckets, report) -> int | None:
    if report.min_edits == 0:
        return None
    d = report.epsilon_distance
    for b, (lo, hi) in enumerate(buckets):
        if lo < d <= hi:
            return b
    return None


# serialization

_CSV_HEADER = "c1,c2,bucket_lo,bucket_hi,instances,rejects,recall,mean_queries,mean_ratio"


def export_report(report: SweepReport, format: str = "csv") -> bytes:
    """Deterministic CSV or JSON bytes for a report; column order is fixed."""
    if format == "csv":
        lines = [_CSV_HEADER]
        for r in report.rows:
            lines.append(
                ",".join(
                    [
                        repr(r.c1),
                        repr(r.c2),
                        repr(r.bucket_lo),
                        repr(r.bucket_hi),
                        str(r.instances),
                        str(r.rejects),
                        repr(r.recall),
                        repr(r.mean_queries),
                        repr(r.mean_ratio),
                    ]
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        obj = {
            "metadata": report.metadata,
            "rows": [
                {
                    "c1": r.c1,
                    "c2": r.c2,
                    "bucket_lo": r.bucket_lo,
                    "bucket_hi": None if r.bucket_hi == float("inf") else r.bucket_hi,
                    "instances": r.instances,
                    "rejects": r.rejects,
                    "recall": r.recall,
                    "mean_queries": r.mean_queries,
                    "mean_ratio": r.mean_ratio,
                }
                for r in report.rows
            ],
        }
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


def report_from_json(data: bytes | str) -> SweepReport:
    obj = json.loads(data)
    rows = tuple(
        SweepRow(
            c1=r["c1"],
            c2=r["c2"],
            bucket_lo=r["bucket_lo"],
            bucket_hi=float("inf") if r["bucket_hi"] is None else r["bucket_hi"],
            instances=r["instances"],
            rejects=r["rejects"],
            recall=r["recall"],
            mean_queries=r["mean_queries"],
            mean_ratio=r["mean_ratio"],
        )
        for r in obj["rows"]
    )
    return SweepReport(rows=rows, metadata=obj["metadata"])


def sweep_config_to_dict(cfg: SweepConfig) -> dict:
    return {
        "k": cfg.k,
        "grid": [list(cell) for cell in cfg.grid],
        "datasets": [
            {
                "n": d.n,
                "delta": d.delta,
                "distribution": d.distribution,
                "fractions": list(d.fractions),
                "seeds": list(d.seeds),
                "corruptions_per_fraction": d.corruptions_per_fraction,
            }
            for d in cfg.datasets
        ],
        "bucket_bounds": list(cfg.bucket_bounds),
        "trials_per_cell": cfg.trials_per_cell,
        "min_bucket": cfg.min_bucket,
        "epsilon": cfg.epsilon,
    }


def sweep_config_from_json(data: bytes | str) -> SweepConfig:
    obj = json.loads(data) if isinstance(data, (bytes, str)) else data
    return sweep_config_from_dict(obj)


def sweep_config_from_dict(obj: dict) -> SweepConfig:
    datasets = tuple(
        DatasetSpec(
            n=d["n"],
            delta=d["delta"],
            distribution=d["distribution"],
            fractions=tuple(d["fractions"]),
            seeds=tuple(d["seeds"]),
            corruptions_per_fraction=d.get("corruptions_per_fraction", 1),
        )
        for d in obj["datasets"]
    )
    return SweepConfig(
        k=obj["k"],
        grid=tuple((c[0], c[1]) for c in obj["grid"]),
        datasets=datasets,
        bucket_bounds=tuple(obj["bucket_bounds"]),
        trials_per_cell=obj.get("trials_per_cell", 1),
        min_bucket=obj.get("min_bucket", 30),
        epsilon=obj.get("epsilon", 0.01),
    )
