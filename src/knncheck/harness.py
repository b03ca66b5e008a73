"""Sweep harness: corrupt exact k-NN graphs, bucket them by true distance,
and measure tester recall and query cost per (c1, c2) grid cell.

Bucketing always uses the exact ground-truth distance, never the tester's
verdict, and every reject is re-checked against ground truth, so precision
is 1 across the whole sweep. Reports are reproducible bit for bit from
(config, seed).
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import operator
from dataclasses import asdict, astuple, dataclass, field, fields

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
    "sweep_config_from_json",
]

log = logging.getLogger(__name__)

DISTRIBUTIONS = ("uniform", "gaussian-mixture")


def _integer(name: str, value) -> int:
    """``value`` as a Python int; accepts Python and numpy integers only."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _integers(obj, *names: str) -> None:
    for name in names:
        object.__setattr__(obj, name, _integer(name, getattr(obj, name)))


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
        _integers(self, "n", "delta", "corruptions_per_fraction")
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        object.__setattr__(self, "seeds", tuple(_integer("seed", s) for s in self.seeds))
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n < 4 or self.delta < 1:
            raise ValueError("dataset needs n >= 4 and delta >= 1")
        if not self.fractions or not self.seeds:
            raise ValueError("dataset needs at least one fraction and one seed")
        if not all(0.0 <= f <= 1.0 for f in self.fractions):
            raise ValueError("fractions must lie in [0, 1]")
        if self.corruptions_per_fraction < 1:
            raise ValueError("corruptions_per_fraction must be positive")


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
        _integers(self, "k", "trials_per_cell", "min_bucket")
        object.__setattr__(self, "grid", tuple(tuple(float(c) for c in cell) for cell in self.grid))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "bucket_bounds", tuple(float(b) for b in self.bucket_bounds))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.grid or not self.datasets:
            raise ValueError("sweep needs a grid and at least one dataset")
        if any(len(cell) != 2 for cell in self.grid):
            raise ValueError("each grid cell must be a (c1, c2) pair")
        if not all(0 < c < math.inf for cell in self.grid for c in cell):
            raise ValueError("grid values c1 and c2 must be finite and positive")
        if not all(isinstance(d, DatasetSpec) for d in self.datasets):
            raise ValueError("datasets must be DatasetSpec objects")
        if any(d.n <= self.k for d in self.datasets):
            raise ValueError(f"k={self.k} must be below every dataset's n, got n={min(d.n for d in self.datasets)}")
        bounds = self.bucket_bounds
        if (not bounds or not all(0 < b < math.inf for b in bounds)
                or any(a >= b for a, b in zip(bounds, bounds[1:]))):
            raise ValueError("bucket_bounds must be finite, strictly increasing and start above 0")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be positive")
        if self.min_bucket < 1:
            raise ValueError("min_bucket must be positive")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")

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
        b = _bucket_of(cfg.bucket_bounds, report)
        for ci, (cell, (c1, c2)) in enumerate(zip(stats, cfg.grid)):
            for trial in range(cfg.trials_per_cell):
                tcfg = TesterConfig(
                    k=cfg.k,
                    epsilon=cfg.epsilon,
                    delta=g.delta,
                    mode="experiment",
                    c1=c1,
                    c2=c2,
                    seed=derive_seed(seed, 1, ii, trial, ci),
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
        "config": asdict(cfg),
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


def _bucket_of(bucket_bounds, report) -> int | None:
    """The bucket (lo, hi] holding a positive distance; None at distance 0."""
    if report.min_edits == 0:
        return None
    return bisect.bisect_left(bucket_bounds, report.epsilon_distance)


# serialization


def export_report(report: SweepReport, format: str = "csv") -> bytes:
    """Deterministic CSV or JSON bytes for a report; columns follow SweepRow's fields."""
    if format == "csv":
        lines = [",".join(f.name for f in fields(SweepRow))]
        lines += [",".join(repr(v) for v in astuple(r)) for r in report.rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        rows = [asdict(r) for r in report.rows]
        for r in rows:
            if r["bucket_hi"] == float("inf"):
                r["bucket_hi"] = None
        obj = {"metadata": report.metadata, "rows": rows}
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


def sweep_config_from_json(data: bytes | str) -> SweepConfig:
    """A validated SweepConfig from sweep.json text; defaults are the dataclasses' own.

    Raises ValueError for anything but one JSON object per class, for unknown
    or missing keys and for values the dataclasses reject.
    """
    obj = json.loads(data)
    if isinstance(obj, dict) and isinstance(obj.get("datasets"), list):
        obj = dict(obj, datasets=tuple(_from_object(DatasetSpec, d) for d in obj["datasets"]))
    return _from_object(SweepConfig, obj)


def _from_object(cls, obj):
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {cls.__name__}: {exc}") from None
